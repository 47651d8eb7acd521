"""Command-line interface: build weight files, analyze cost, run inference
on PPM images, benchmark, and compute class weights.

Exit codes: 0 success, 1 usage errors, 2 data/runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .analyzer import (
    FlopConvention,
    compute_class_weights,
    count_flops,
    count_params,
    load_histogram,
    model_size_fp16,
)
from .enwt import load_weights, save_weights
from .errors import EnetError, FormatError
from .graph import build_enet, init_weights
from .passes import optimize, validate
from .pnm import load_palette, load_ppm, save_colormap, save_labelmap
from .runtime import argmax_labels, execute, plan_buffers
from .tensor import DType


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this tool reserves 2 for
    data errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _classes(value: str) -> int:
    n = int(value)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 classes, got {n}")
    return n


def _weight_constant(value: str) -> float:
    c = float(value)
    if not c > 1.0:
        raise argparse.ArgumentTypeError(f"weighting constant must be > 1, got {c}")
    return c


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _non_negative(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {n}")
    return n


def _build_parser() -> _Parser:
    p = _Parser(prog="enetcpu",
                description="CPU inference and static analysis for the ENet "
                            "segmentation architecture")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    b = sub.add_parser("build", help="initialize weights and write a .enwt file")
    b.add_argument("--classes", type=_classes, required=True)
    b.add_argument("--out", required=True, metavar="FILE.enwt")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--fp16", action="store_true",
                   help="store tensors in half precision")

    a = sub.add_parser("analyze", help="static parameter/FLOP/size report")
    a.add_argument("--classes", type=_classes, required=True)
    a.add_argument("--height", type=_positive, required=True)
    a.add_argument("--width", type=_positive, required=True)
    a.add_argument("--convention", choices=[c.value for c in FlopConvention],
                   default=FlopConvention.FMA2.value)
    a.add_argument("--per-stage", action="store_true",
                   help="also print a per-stage breakdown")

    i = sub.add_parser("infer", help="segment a PPM image")
    i.add_argument("--model", required=True, metavar="FILE.enwt")
    i.add_argument("--image", required=True, metavar="IN.ppm")
    i.add_argument("--out", required=True, metavar="LABELS.pgm")
    i.add_argument("--colormap", metavar="OUT.ppm",
                   help="also write a colorized map (needs --palette)")
    i.add_argument("--palette", metavar="PALETTE.txt")
    i.add_argument("--no-fuse", action="store_true",
                   help="skip batch-norm folding and dropout elision")

    n = sub.add_parser("bench", help="measure inference latency")
    n.add_argument("--model", required=True, metavar="FILE.enwt")
    n.add_argument("--height", type=_positive, required=True)
    n.add_argument("--width", type=_positive, required=True)
    n.add_argument("--warmup", type=_non_negative, default=2)
    n.add_argument("--iters", type=_positive, default=5)
    n.add_argument("--no-fuse", action="store_true",
                   help="time the graph without batch-norm folding and "
                        "dropout elision")

    c = sub.add_parser("class-weights",
                       help="inverse-log class weights from a histogram file")
    c.add_argument("--histogram", required=True, metavar="HIST.txt")
    c.add_argument("--c", type=_weight_constant, default=1.02,
                   help="weighting constant (> 1)")
    return p


def _classes_from_store(store) -> int:
    if "fullconv.bias" not in store:
        raise FormatError(
            "weight store has no 'fullconv.bias'; cannot determine the class "
            "count (is this an ENet weight file?)")
    bias = store["fullconv.bias"]
    if bias.ndim != 1:
        raise FormatError(f"'fullconv.bias' has shape {bias.shape}; the class "
                          f"count needs a 1-D bias")
    return int(bias.shape[0])


def _cmd_build(args) -> int:
    g = build_enet(args.classes, 512, 512)
    store = init_weights(g, seed=args.seed)
    diags = validate(g, store)
    if diags:
        raise EnetError("; ".join(diags))
    dtype = DType.F16 if args.fp16 else DType.F32
    nbytes = save_weights(store, args.out, dtype=dtype)
    print(f"built ENet(classes={args.classes}), {count_params(g):,} parameters, "
          f"seed {args.seed}")
    print(f"wrote {args.out} ({nbytes:,} bytes, {dtype.name.lower()})")
    return 0


def _cmd_analyze(args) -> int:
    g = build_enet(args.classes, args.height, args.width)
    rep = count_flops(g, FlopConvention(args.convention))
    size = model_size_fp16(g)
    gflops = rep.total_flops / 1e9
    print(f"ENet classes={args.classes} input=3x{args.height}x{args.width}")
    print(f"parameters : {rep.total_params:,} ({rep.total_params / 1e6:.3f} M)")
    print(f"fp16 size  : {size.payload_mb:.2f} MB payload, "
          f"{size.container_mb:.2f} MB container")
    print(f"MACs       : {rep.total_macs:,}")
    print(f"FLOPs      : {gflops:.2f} GFLOPs ({rep.convention.value})")
    if args.per_stage:
        print()
        print(f"{'stage':<14}{'params':>12}{'MACs':>16}")
        for stage, (params, macs) in rep.by_stage().items():
            if stage in ("input", "output"):
                continue
            print(f"{stage:<14}{params:>12,}{macs:>16,}")
    return 0


def _graph(classes: int, h: int, w: int, store, no_fuse: bool):
    """The ENet graph for a 3 x h x w input and its weights, fused unless
    no_fuse; prints the node count."""
    g = build_enet(classes, h, w)
    n_before = len(g.nodes)
    if no_fuse:
        print(f"graph: {n_before} nodes (fusion disabled)")
    else:
        g, store, _ = optimize(g, store)
        print(f"graph: {len(g.nodes)} nodes after fusion (was {n_before})")
    return g, store


def _cmd_infer(args, parser: _Parser) -> int:
    if bool(args.colormap) != bool(args.palette):
        parser.error("--colormap and --palette must be given together")
    store = load_weights(args.model)
    classes = _classes_from_store(store)
    img = load_ppm(args.image)
    _, h, w = img.shape
    g, store = _graph(classes, h, w, store, args.no_fuse)
    print(f"model: {classes} classes; image: 3x{h}x{w}")
    logits = execute(g, store, img, plan_buffers(g))
    labels = argmax_labels(logits)
    save_labelmap(labels, args.out)
    print(f"wrote labels to {args.out}")
    if args.colormap:
        save_colormap(labels, load_palette(args.palette), args.colormap)
        print(f"wrote colormap to {args.colormap}")
    return 0


def _environment() -> str:
    """One line naming what a timing depends on beyond the code: numpy, the
    BLAS it was built with, the BLAS thread setting and the usable CPUs."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return (f"numpy {np.__version__}  blas {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')}  OPENBLAS_NUM_THREADS "
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'default')}  nproc {cpus}")


def _cmd_bench(args) -> int:
    store = load_weights(args.model)
    classes = _classes_from_store(store)
    g, store = _graph(classes, args.height, args.width, store, args.no_fuse)
    plan = plan_buffers(g)
    x = np.random.default_rng(0).random(tuple(g.input_shape), dtype=np.float32)
    for _ in range(args.warmup):
        execute(g, store, x, plan)
    times = []
    for _ in range(args.iters):
        t0 = time.perf_counter()
        execute(g, store, x, plan)
        times.append((time.perf_counter() - t0) * 1000.0)
    median = float(np.median(times))
    print(f"benchmark {g.input_shape}, warmup {args.warmup}, iters {args.iters}")
    print(_environment())
    print(f"median {median:.2f} ms  min {min(times):.2f} ms  "
          f"{1000.0 / median:.1f} fps")
    print(f"arena {plan.peak_bytes / 1e6:.2f} MB  "
          f"live-set bound {plan.live_bytes / 1e6:.2f} MB")
    print(f"frame peak {plan.frame_peak_bytes / 1e6:.2f} MB "
          f"(values, window codes and convolution bands)")
    return 0


def _cmd_class_weights(args) -> int:
    hist = load_histogram(args.histogram)
    weights = compute_class_weights(hist, c=args.c)
    width = max(len(label) for label in hist.labels)
    for label, wt in zip(hist.labels, weights):
        print(f"{label:<{width}}  {wt:.4f}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "build":
            return _cmd_build(args)
        if args.cmd == "analyze":
            return _cmd_analyze(args)
        if args.cmd == "infer":
            return _cmd_infer(args, parser)
        if args.cmd == "bench":
            return _cmd_bench(args)
        if args.cmd == "class-weights":
            return _cmd_class_weights(args)
    except EnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.cmd}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
