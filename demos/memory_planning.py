"""Buffer planning walkthrough: how packing values by liveness into one
buffer bounds the activation memory of a deep encoder-decoder, how many
values share a slot because an elementwise node writes over its dying input,
how close the buffer comes to the live-set lower bound, the plan's figure
for the whole frame (values, window codes and convolution bands sized to the
headroom under the values' peak), and the measured peak of planned against
unplanned execution, verified bitwise.

Run from the repository root:  python3 demos/memory_planning.py
"""

import tracemalloc

import numpy as np

from enetcpu import build_enet, execute, init_weights, optimize, plan_buffers


def main():
    g = build_enet(12, 256, 256)
    store = init_weights(g, seed=5)
    g, store, _ = optimize(g, store)

    plan = plan_buffers(g)
    # a value on the offset of an input it reads is written over that input
    # (a PReLU, add, batch norm or dropout on its dying input's slot)
    off = plan.offset_of
    joined = sum(1 for n in g.nodes if n.id in off
                 and any(off.get(src) == off[n.id] for src in n.inputs))
    print(f"{len(g.nodes)} nodes, {len(off)} values in {len(off) - joined} slots "
          f"of one buffer (the output's producer and what it reads are fresh "
          f"arrays)")
    print(f"arena (buffer size)    : {plan.peak_bytes / 1e6:8.2f} MB")
    print(f"live-set lower bound   : {plan.live_bytes / 1e6:8.2f} MB "
          f"(most slot bytes live at any one node)")
    print(f"without any reuse      : {plan.no_reuse_bytes / 1e6:8.2f} MB")
    print(f"reuse factor           : "
          f"{plan.no_reuse_bytes / plan.peak_bytes:8.1f}x")
    print(f"arena over the bound   : "
          f"{plan.peak_bytes / plan.live_bytes - 1:8.1%}")
    print(f"retained window codes  : {len(plan.retained)} uint8 arrays "
          f"(each pooling argmax as 0..3 = 2*row + col, for the decoder's unpools)")

    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (3, 256, 256)).astype(np.float32)

    def traced(p):
        """The output of one execute and the peak bytes it allocated."""
        tracemalloc.start()
        try:
            return execute(g, store, x, p), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, plain_peak = traced(None)
    planned, planned_peak = traced(plan)
    print(f"frame peak (plan)      : {plan.frame_peak_bytes / 1e6:8.2f} MB "
          f"(values, window codes and the band budget of the conv running)")
    print(f"planned peak           : {planned_peak / 1e6:8.2f} MB "
          f"(tracemalloc over one execute; the buffer is freed when its "
          f"last value dies, before the output's producer runs)")
    print(f"unplanned peak         : {plain_peak / 1e6:8.2f} MB "
          f"(every value a fresh array, banded by the same plan budgets)")
    poisoned = execute(g, store, x, plan, poison=True)
    same = (np.array_equal(plain, planned)
            and np.array_equal(plain, poisoned))
    print(f"planned and poison-checked runs match unplanned bitwise: {same}")
    if not same:
        raise SystemExit("buffer reuse changed the output!")


if __name__ == "__main__":
    main()
