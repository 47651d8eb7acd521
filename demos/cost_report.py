"""Static analysis walkthrough: where the parameters and multiply-adds live,
what fusion removes, and what the fp16 weight file costs on disk.

Run from the repository root:  python3 demos/cost_report.py
"""

import argparse

from enetcpu import (
    FlopConvention,
    build_enet,
    count_flops,
    init_weights,
    model_size_fp16,
    optimize,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=19)
    ap.add_argument("--height", type=int, default=360)
    ap.add_argument("--width", type=int, default=640)
    args = ap.parse_args()

    g = build_enet(args.classes, args.height, args.width)
    rep = count_flops(g, FlopConvention.FMA2)

    print(f"network: {args.classes} classes at 3x{args.height}x{args.width}")
    print(f"{'stage':<14}{'params':>10}{'MACs':>16}{'share':>8}")
    for stage, (params, macs) in rep.by_stage().items():
        if stage in ("input", "output"):
            continue
        print(f"{stage:<14}{params:>10,}{macs:>16,}"
              f"{macs / rep.total_macs:>8.1%}")
    print(f"{'total':<14}{rep.total_params:>10,}{rep.total_macs:>16,}")
    print(f"{rep.total_flops / 1e9:.2f} GFLOPs "
          f"({rep.convention.value}), "
          f"{rep.conv_macs() / rep.total_macs:.1%} of MACs in convolutions")

    size = model_size_fp16(g)
    print(f"fp16 weight file: {size.payload_mb:.2f} MB of tensors, "
          f"{size.container_bytes - size.payload_bytes} bytes of framing")

    # fusion shrinks both the node count and the arithmetic
    store = init_weights(g)
    fused, _, report = optimize(g, store)
    fused_rep = count_flops(fused, FlopConvention.FMA2)
    print(f"fusion: {len(g.nodes)} -> {len(fused.nodes)} nodes "
          f"({report.summary()})")
    saved = rep.total_macs - fused_rep.total_macs
    print(f"fusion removes {saved:,} MACs/frame "
          f"({saved / rep.total_macs:.1%} of the unfused total)")

    # the ten most expensive individual layers
    print("top layers by MACs:")
    top = sorted(rep.per_node, key=lambda n: n.macs, reverse=True)[:10]
    for n in top:
        print(f"  {n.name:<28}{n.macs:>14,}  ({n.out_shape})")


if __name__ == "__main__":
    main()
