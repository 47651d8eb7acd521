"""Closed-loop ENet inference benchmark for enetcpu.

Run from the repository root:

    python3 perfbench/run.py --workload cityscapes-360x640 --seed 1 \
        --seconds 20 --trace 0

One client in one process sends each frame after the previous one returns.
The benchmark drives the public API from outside: load_weights ->
build_enet -> optimize (fused workloads) -> plan_buffers -> execute ->
argmax_labels.  The seed generates the weights, written to an .enwt file,
and a small pool of distinct input frames.  Every planned output is checked
against unplanned execution of the same input; at the default seed the
reference logits must also hash to the value pinned in golden.json.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SRC = ROOT / "src"

if not (SRC / "enetcpu" / "__init__.py").is_file():
    sys.exit(f"perfbench: engine source {SRC / 'enetcpu'} not found")
sys.path.insert(0, str(SRC))

import enetcpu  # noqa: E402
from enetcpu import runtime  # noqa: E402
from enetcpu.graph import NodeKind  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    height: int
    width: int
    fused: bool


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("cityscapes-360x640", 19, 360, 640, fused=True),
    Workload("unfused-128x256", 19, 128, 256, fused=False),
)}

DEFAULT_SEED = 0  # the seed whose reference logits golden.json pins
POOL = 3          # distinct input frames per run
SETUPS = 5        # set-ups per run at least; setup_s and the set-up layers
SETUP_SECONDS = 3.0  # are medians over set-ups repeated for this long at least
STAGES = ("initial", "bottleneck1", "bottleneck2", "bottleneck3",
          "bottleneck4", "bottleneck5", "fullconv")


# ---------------------------------------------------------------------------
# inputs

def make_model(wl: Workload, seed: int, path: Path) -> None:
    """Write seeded weights of the unfused graph to `path`.  Batch-norm
    statistics, PReLU slopes and biases are drawn away from the identity
    values init_weights gives them, so folding and PReLU do real work."""
    g = enetcpu.build_enet(wl.classes, wl.height, wl.width)
    store = enetcpu.init_weights(g, seed)
    rng = np.random.default_rng([seed, 1])
    for key, arr in store.items():
        role = key.rsplit(".", 1)[1]
        if role in ("gamma", "var"):
            store[key] = rng.uniform(0.5, 1.5, arr.shape).astype(np.float32)
        elif role in ("beta", "mean", "bias"):
            store[key] = rng.normal(0.0, 0.1, arr.shape).astype(np.float32)
        elif role == "slopes":
            store[key] = rng.uniform(0.0, 0.5, arr.shape).astype(np.float32)
    enetcpu.save_weights(store, path)


def make_inputs(wl: Workload, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    return [rng.random((3, wl.height, wl.width), dtype=np.float32)
            for _ in range(POOL)]


# ---------------------------------------------------------------------------
# engine calls

@dataclass
class Engine:
    graph: enetcpu.Graph
    weights: dict
    plan: runtime.ExecutionPlan
    built_nodes: int


@dataclass
class Frame:
    input_index: int
    seconds: float
    output: Optional[np.ndarray]
    error: Optional[str]


def attempt(engine: Engine, inputs: list[np.ndarray], i: int) -> Frame:
    """One planned, checked execute call; any exception is the frame's failure."""
    t0 = perf_counter()
    try:
        out = enetcpu.execute(engine.graph, engine.weights, inputs[i], engine.plan)
        err = None
    except Exception as e:  # a failed frame is counted, it does not stop the run
        out, err = None, f"{type(e).__name__}: {e}"
    return Frame(i, perf_counter() - t0, out, err)


def set_up(wl: Workload, path: Path, inputs: list[np.ndarray],
           tracer: Tracer) -> tuple[Engine, Frame, float]:
    """From the .enwt file to the first returned output; returns the engine,
    the first frame and the wall seconds the whole set-up took."""
    t0 = perf_counter()
    with tracer.span("enwt.load_weights"):
        weights = enetcpu.load_weights(path)
    with tracer.span("graph.build_enet"):
        g = enetcpu.build_enet(wl.classes, wl.height, wl.width)
    built_nodes = len(g.nodes)
    if wl.fused:
        with tracer.span("passes.optimize"):
            g, weights, _ = enetcpu.optimize(g, weights)
    with tracer.span("runtime.plan_buffers"):
        plan = enetcpu.plan_buffers(g)
    engine = Engine(g, weights, plan, built_nodes)
    with tracer.span("runtime.execute"):
        first = attempt(engine, inputs, 0)
    return engine, first, perf_counter() - t0


class Checker:
    """Judges each frame against unplanned execution of the same input, made
    once per distinct input outside timing.  At the default seed input 0's
    reference must also hash to the golden value."""

    def __init__(self, engine: Engine, inputs: list[np.ndarray],
                 golden: Optional[str]):
        self.refs: list[Optional[np.ndarray]] = []
        self.notes: list[str] = []
        for i, x in enumerate(inputs):
            try:
                ref = enetcpu.execute(engine.graph, engine.weights, x, plan=None)
            except Exception as e:  # every input stays checkable
                self.notes.append(f"input {i}: reference raised "
                                  f"{type(e).__name__}: {e}")
                ref = None
            if ref is not None and not np.isfinite(ref).all():
                self.notes.append(f"input {i}: reference is not finite")
                ref = None
            self.refs.append(ref)
        self.digest = (hashlib.sha256(self.refs[0].tobytes()).hexdigest()
                       if self.refs[0] is not None else None)
        if golden is not None and self.digest != golden:
            self.notes.append(f"input 0: logits sha256 {self.digest} != "
                              f"golden {golden}")
            self.refs[0] = None
        self.failed = 0
        self.attempted = 0

    def check(self, f: Frame) -> bool:
        ref = self.refs[f.input_index]
        ok = (f.output is not None and ref is not None
              and np.array_equal(f.output, ref)
              and enetcpu.argmax_labels(f.output).shape == ref.shape[1:])
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"input {f.input_index}: " + (
                    f.error or "output differs from the reference"))
        return ok


def peak_mem(engine: Engine, inputs: list[np.ndarray]) -> tuple[Frame, float]:
    """tracemalloc peak, in MB, of the bytes allocated during one execute."""
    tracemalloc.start()
    try:
        frame = attempt(engine, inputs, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return frame, peak / 1e6


def traced_names() -> dict[str, str]:
    """runtime globals to time: every function it imports from another
    enetcpu module (the kernels, validate, infer_shapes), named by module."""
    names = {}
    for attr, obj in vars(runtime).items():
        mod = getattr(obj, "__module__", "")
        if (callable(obj) and not isinstance(obj, type)
                and mod.startswith("enetcpu.") and mod != runtime.__name__):
            names[attr] = f"{mod.split('.', 1)[1]}.{obj.__name__}"
    return names


# ---------------------------------------------------------------------------
# measurement

def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: its value,
    the percentile, and how many samples lie above it."""
    s = sorted(times_ms)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


@dataclass
class Result:
    checker: Checker
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        golden: Optional[str]) -> Result:
    """Set up, check, measure."""
    WORK.mkdir(exist_ok=True)
    model = WORK / f"{wl.name}-seed{seed}-{os.getpid()}.enwt"
    inputs = make_inputs(wl, seed)
    tracer = Tracer()
    names = traced_names()
    kernels = frozenset(a for a, n in names.items() if n.startswith("kernels."))
    setup_times: list[float] = []
    checker = None
    try:
        make_model(wl, seed, model)
        mb_read = model.stat().st_size / 1e6
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
            with (tracer.installed(runtime, names, kernels) if trace
                  else nullcontext()):
                engine, first, took = set_up(wl, model, inputs, tracer)
            setup_times.append(took)
            checker = checker or Checker(engine, inputs, golden)
            checker.check(first)
    finally:
        model.unlink(missing_ok=True)
    mem_frame, peak_mb = peak_mem(engine, inputs)
    checker.check(mem_frame)

    # closed loop until `seconds` of execute wall time; a traced run
    # alternates untraced and traced frames so both see the same conditions
    plain_ms: list[float] = []
    traced: list[tuple[int, float]] = []  # (index of the execute span, ms)
    completed, busy, k = 0, 0.0, 0
    while busy < seconds or k < 2:
        i = k % POOL
        if trace and k % 2:
            tracer.frame = k
            idx = len(tracer.spans)
            with tracer.installed(runtime, names, kernels), \
                    tracer.span("runtime.execute"):
                f = attempt(engine, inputs, i)
            traced.append((idx, f.seconds * 1000.0))
        else:
            f = attempt(engine, inputs, i)
            plain_ms.append(f.seconds * 1000.0)
        completed += checker.check(f)
        busy += f.seconds
        k += 1

    if trace:
        metrics, notes = layer_metrics(tracer, engine, traced, plain_ms,
                                       peak_mb, mb_read)
        return Result(checker, metrics, notes + checker.notes, tracer)
    value, pct, above = tail(plain_ms)
    metrics = {
        "latency_p50_ms": statistics.median(plain_ms),
        "latency_tail_ms": value,
        "frames_per_s": completed / busy,
        "setup_s": statistics.median(setup_times),
        "peak_mem_mb": peak_mb,
    }
    notes = [f"latency_tail_ms is p{pct:.1f} of {len(plain_ms)} timed "
             f"frames, {above} above it"]
    return Result(checker, metrics, notes + checker.notes)


def layer_metrics(tracer: Tracer, engine: Engine, traced: list[tuple[int, float]],
                  plain_ms: list[float], peak_mb: float,
                  mb_read: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run: set-up layers are medians over
    the set-ups, frame layers medians over the traced frames."""
    m: dict[str, float] = {}
    setup_ms: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.frame == -1 and s.parent == -1:
            setup_ms.setdefault(s.name, []).append(s.ms)
    for name in ("enwt.load_weights", "graph.build_enet", "passes.optimize",
                 "runtime.plan_buffers"):
        m[f"{name}.ms"] = statistics.median(setup_ms.get(name, [0.0]))
    m["enwt.mb_read"] = mb_read
    m["graph.nodes"] = engine.built_nodes
    m["passes.nodes_removed"] = engine.built_nodes - len(engine.graph.nodes)
    m["runtime.arena_mb"] = engine.plan.peak_bytes / 1e6
    m["runtime.untracked_mb"] = peak_mb - m["runtime.arena_mb"]

    # the k-th kernel span of a frame ran the k-th compute node
    compute = [n for n in engine.graph.nodes
               if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)]
    macs = {c.name: c.macs for c in enetcpu.count_flops(engine.graph).per_node}
    children = tracer.by_parent()
    unattributed = None
    rows = []
    for idx, _ in traced:
        ex = tracer.spans[idx]
        kids = children.get(idx, [])
        # spans are disjoint and inside execute, so their sum plus self
        # time is exactly execute's wall time
        edge = ex.start
        for c in kids:
            if c.start < edge or c.end > ex.end:
                raise RuntimeError(f"frame {ex.frame}: span {c.name} overlaps "
                                   f"a sibling or leaves runtime.execute")
            edge = c.end
        row: dict[str, float] = {
            "runtime.execute.self_ms": ex.ms - sum(c.ms for c in kids)}
        ks = [c for c in kids if c.name.startswith("kernels.")]
        for c in kids:
            row[f"{c.name}.ms"] = row.get(f"{c.name}.ms", 0.0) + c.ms
        for c in ks:
            row[f"{c.name}.calls"] = row.get(f"{c.name}.calls", 0) + 1
            row[f"{c.name}.mb_moved"] = row.get(f"{c.name}.mb_moved", 0.0) + c.nbytes / 1e6
        if len(ks) != len(compute):
            unattributed = unattributed or (
                f"frame {ex.frame}: {len(ks)} kernel spans for "
                f"{len(compute)} compute nodes")
        else:
            for c, n in zip(ks, compute):
                row[f"stage.{n.stage}.ms"] = row.get(f"stage.{n.stage}.ms", 0.0) + c.ms
                row[f"{c.name}.macs"] = row.get(f"{c.name}.macs", 0) + macs[n.name]
        rows.append(row)
    for key in {key for row in rows for key in row}:
        m[key] = statistics.median(row.get(key, 0.0) for row in rows)

    notes = []
    if unattributed:
        notes.append(f"stage and gmac_per_s metrics unattributed: {unattributed}")
        m = {key: v for key, v in m.items()
             if not key.startswith("stage.") and not key.endswith(".macs")}
        m.update({f"stage.{s}.ms": 0.0 for s in STAGES})
    m["stage.attributed"] = 0 if unattributed else 1
    for key in [key for key in m if key.endswith(".macs")]:
        ms = m[key[:-len(".macs")] + ".ms"]
        m[key[:-len(".macs")] + ".gmac_per_s"] = m.pop(key) / (ms * 1e6) if ms else 0.0
    m["trace.overhead_pct"] = 100.0 * (statistics.median(t for _, t in traced)
                                       / statistics.median(plain_ms) - 1.0)
    return m, notes


# ---------------------------------------------------------------------------
# report

def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def positive(value: str) -> float:
    v = float(value)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return v


def seed_value(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {n}")
    return n


def main(argv=None, workloads: dict[str, Workload] = WORKLOADS,
         golden: Optional[dict[str, str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=seed_value, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=positive, default=spec["run_seconds"],
                   help="execute wall time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if golden is None:
        golden = json.loads((HERE / "golden.json").read_text())
    wl = workloads[args.workload]
    trace = bool(args.trace)
    res = run(wl, args.seed, args.seconds, trace,
              golden.get(wl.name) if args.seed == DEFAULT_SEED else None)

    checker = res.checker
    env = environment(args.seed)
    metrics = {}
    for want in spec["per_layer" if trace else "end_to_end"]:
        name = want["name"]
        # a kernel the runtime never called on this workload did no work
        value = res.metrics.get(name, 0.0 if name.startswith("kernels.") else None)
        if value is None:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": want["unit"]}

    print(f"perfbench {wl.name} ({wl.classes} classes, 3x{wl.height}x{wl.width}, "
          f"{'fused' if wl.fused else 'unfused'}, planned, checked) "
          f"seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env))
    for name, mv in metrics.items():
        print(f"  {name:<36} {mv['value']:>14.6g} {mv['unit']}")
    print(f"  failed_frac {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} frames)")
    print(f"  reference logits sha256 (input 0): {checker.digest}")
    for note in res.notes:
        print(f"  note: {note}")
    extra = {k: v for k, v in res.metrics.items() if k not in metrics}
    if extra:
        print("  also measured: " + json.dumps(extra, sort_keys=True))

    stem = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if trace:
        res.tracer.dump(stem.with_suffix(".spans.jsonl"))
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": wl.name, "environment": env, "notes": res.notes,
         "sha256_input0": checker.digest, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
