"""Graph execution: buffer planning, the interpreter loop, label extraction,
and latency measurement.

Planning packs intermediate values into one float32 buffer by byte offset.
Values and maxpool window codes (kept outside the buffer) share one liveness
map: each is live from its producer's position to its last reader's.  A
PReLU, add, batch norm or spatial dropout node gives an output of its input's
shape, so it joins the slot of an input that dies at it (either addend of an
add) and writes over that input's bytes.  A slot is a chain of such values;
it lives from its first member's producer to its last member's last reader.
Slots are placed largest first, each into the smallest gap left by the
already-placed slots whose lifetimes overlap its own (greedy by size,
Pisarchyk & Lee, arXiv 2001.03288), so every other node's bytes stay apart
from what it reads.  The plan alone decides where a value lives; the output
node's producer and every value it reads get no offset, and neither does
the graph input, so nothing writes over them.  Every kernel writes through
its `out` argument: over its input's array when the node is on that input's
slot, into its view of the buffer when it has an offset of its own, else
into a fresh array, so without a plan the same loop runs out of place with
no offsets.  The buffer is dropped before the producer runs, with nothing to
copy out, so it is never held beside the output.  Planned and unplanned runs
are bitwise identical, so a planning bug shows up as corrupted values (or
poisoned NaNs in debug mode) instead of silent reuse.  `execute` runs only
the plan that plan_buffers makes for its graph, so no plan edited by hand,
whose live values might share bytes, is ever trusted.

`execute` validates the graph against its weight store on every call,
before any kernel reads a weight; there is no unchecked mode, so
`benchmark` times the same call that inference makes.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnetError, ExecutionError, ShapeError
# bn_affine is called through the module: perfbench times every function
# imported here by name as a span of its own, and bn_affine is not a kernel
from . import graph
from .graph import CONV_KINDS, Graph, NodeKind, infer_shapes
from .kernels import (
    add,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_asymmetric5,
    conv_transpose2d,
    max_unpool2x2,
    maxpool2x2,
    pad_channels,
    prelu,
    spatial_dropout_infer,
)
from .passes import validate
from .tensor import Shape

_BYTES_F32 = 4
_ALIGN = 64  # planned offsets are multiples of one cache line, in bytes
# kinds whose output may take the slot of an input that dies at them
_IN_PLACE = frozenset({NodeKind.PRELU, NodeKind.ADD, NodeKind.BATCHNORM,
                       NodeKind.DROPOUT})


@dataclass(frozen=True)
class ExecutionPlan:
    """Byte offset of every intermediate value in one float32 buffer.

    Values on one slot (see the module docstring) share its offset.
    peak_bytes is the buffer size; live_bytes is the largest total size of
    the slots live at any one node, a lower bound for any packing of them;
    no_reuse_bytes is what holding every planned value alive would cost.
    The output node's producer and the values it reads have no offset: they
    are fresh arrays, and the producer's is the one `execute` returns.
    `retained` names the pools whose window codes some unpool reads; the
    codes of the others are dropped as soon as they exist.  `graph` is the
    graph the plan was made for.  `execute` runs a plan only when it equals
    the one plan_buffers makes for the graph it is given, so a plan made
    for another graph, or edited by hand, is refused rather than trusted.
    """

    graph: Graph
    offset_of: dict[int, int]
    peak_bytes: int
    live_bytes: int
    no_reuse_bytes: int
    retained: frozenset[int]


def _reads(n) -> tuple[int, ...]:
    """Keys of the live arrays a node reads: its inputs, and for an unpool
    the window codes of its pool, kept under the key ~pool_id."""
    if n.kind is NodeKind.MAX_UNPOOL:
        return (*n.inputs, ~n.index_link)
    return n.inputs


def _last_uses(g: Graph) -> dict[int, int]:
    """Liveness over storage order: for each key a node reads (see _reads),
    the position of its last reader."""
    return {key: i for i, n in enumerate(g.nodes) for key in _reads(n)}


def plan_buffers(g: Graph) -> ExecutionPlan:
    """Greedy-by-size offset assignment over the liveness intervals of
    slots."""
    shapes = infer_shapes(g)
    last_use = _last_uses(g)
    producer = g.node(g.output_node.inputs[0])
    unplaced = {producer.id, *producer.inputs}

    slot_of: dict[int, int] = {}  # placed value id -> index into slots
    slots: list[list[int]] = []  # [bytes, first, last]; positions inclusive
    for i, n in enumerate(g.nodes):
        if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT) or n.id in unplaced:
            continue
        size = shapes[n.id].count * _BYTES_F32
        last = last_use.get(n.id, i)
        hosts = [src for src in n.inputs if src in slot_of and last_use[src] == i
                 and slots[slot_of[src]][0] == size] if n.kind in _IN_PLACE else []
        if hosts:
            slot_of[n.id] = slot_of[hosts[0]]
            slots[slot_of[n.id]][2] = last
        else:
            slot_of[n.id] = len(slots)
            slots.append([size, i, last])

    live = [0] * len(g.nodes)
    for size, first, last in slots:
        for p in range(first, last + 1):
            live[p] += size

    slot_offset = [0] * len(slots)
    placed: list[tuple[int, int, int, int]] = []  # (offset, end, first, last)
    for k in sorted(range(len(slots)), key=lambda k: (-slots[k][0], slots[k][1])):
        size, first, last = slots[k]
        need = -(-size // _ALIGN) * _ALIGN
        best, best_gap, top = -1, 0, 0
        for off, end, other_first, other_last in placed:  # ascending offset
            if other_first > last or other_last < first:
                continue  # lifetimes do not overlap: bytes may be shared
            if off - top >= need and (best < 0 or off - top < best_gap):
                best, best_gap = top, off - top
            top = max(top, end)
        slot_offset[k] = top if best < 0 else best
        insort(placed, (slot_offset[k], slot_offset[k] + need, first, last))

    return ExecutionPlan(graph=g,
                         offset_of={nid: slot_offset[k] for nid, k in slot_of.items()},
                         peak_bytes=max((end for _, end, _, _ in placed), default=0),
                         live_bytes=max(live, default=0),
                         no_reuse_bytes=sum(shapes[nid].count * _BYTES_F32
                                            for nid in slot_of),
                         retained=frozenset(~k for k in last_use if k < 0))


def _node_value(n, weights, vals, out):
    """Run one node's kernel into `out` and return its output array; a
    maxpool also stores its window codes in vals, under the key ~n.id."""
    a = vals[n.inputs[0]] if n.inputs else None
    if n.kind in CONV_KINDS:
        bias = weights[n.ref("bias")] if n.conv.has_bias else None
        if n.kind is NodeKind.ASYM_CONV5:
            return conv_asymmetric5(a, weights[n.ref("weight_5x1")],
                                    weights[n.ref("weight_1x5")], bias, out=out)
        conv = conv2d if n.kind is NodeKind.CONV else conv_transpose2d
        return conv(a, weights[n.ref("weight")], bias, n.conv, out=out)
    if n.kind is NodeKind.MAXPOOL:
        res = maxpool2x2(a, out=out)
        vals[~n.id] = res.codes
        return res.values
    if n.kind is NodeKind.MAX_UNPOOL:
        if ~n.index_link not in vals:
            raise ExecutionError(
                f"pooling indices of node {n.index_link} are not available")
        return max_unpool2x2(a, vals[~n.index_link], out=out)
    if n.kind is NodeKind.BATCHNORM:
        return batchnorm_infer(a, *graph.bn_affine(n, weights), out=out)
    if n.kind is NodeKind.PRELU:
        return prelu(a, weights[n.ref("slopes")], out=out)
    if n.kind is NodeKind.ADD:
        return add(a, vals[n.inputs[1]], out=out)
    if n.kind is NodeKind.CONCAT:
        return concat_channels(a, vals[n.inputs[1]], out=out)
    if n.kind is NodeKind.PAD_CHANNELS:
        return pad_channels(a, n.target_channels, out=out)
    if n.kind is NodeKind.DROPOUT:
        return spatial_dropout_infer(a, out=out)
    raise ExecutionError(f"no kernel for {n.kind}")  # pragma: no cover


def execute(g: Graph, weights: dict[str, np.ndarray], x: np.ndarray,
            plan: Optional[ExecutionPlan] = None, *, poison: bool = False
            ) -> np.ndarray:
    """Run the graph over one input tensor and return the output tensor.

    Every call first validates the graph against the weight store (see
    passes.validate) and raises ExecutionError with its diagnostics before
    any kernel runs; a compute node stored after the output's producer does
    not contribute to the output and is refused there.  An input holding a
    NaN or an infinity is refused with ExecutionError too.

    A plan must equal plan_buffers(g), or ExecutionError is raised before
    any kernel runs.  With it, a node the plan gives an offset writes into
    its view of one buffer allocated for this call, or, when it is a PReLU,
    add, batch norm or dropout on the offset of an input it reads, over that
    input's array; every other node writes into a fresh array.  Without a
    plan, every node writes into a fresh array, so `plan=None` is the
    out-of-place reference.
    The buffer is dropped before the output node's producer runs; the plan
    keeps that node and what it reads out of the buffer, so nothing is
    copied.  poison=True fills the buffer and every fresh array with NaN
    before use, overwrites each buffered value with NaN once its last reader
    has run, unless that reader wrote its output over it (the slot is
    poisoned when its last member's last reader has run), and fills the
    whole buffer when it is dropped, so any liveness bug turns into a loud
    failure.  Poison covers values only: pooling window codes live outside
    the buffer, under the same liveness as the values, so a reader after
    their last unpool finds them missing and raises ExecutionError.
    """
    diags = validate(g, weights)
    if diags:
        raise ExecutionError("graph failed validation: " + "; ".join(diags[:5]))
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 3 or Shape(*x.shape) != g.input_shape:
        raise ExecutionError(
            f"input shape {'x'.join(map(str, x.shape))} does not match the "
            f"graph input {g.input_shape}")
    if not np.isfinite(x).all():
        bad = x.size - np.count_nonzero(np.isfinite(x))
        raise ExecutionError(f"input holds {bad} non-finite value(s) "
                             f"(NaN or infinity)")

    shapes = infer_shapes(g)
    last_use = _last_uses(g)
    producer_id = g.output_node.inputs[0]

    offset_of: dict[int, int] = {}
    arena = None
    if plan is not None:
        if plan != plan_buffers(g):
            raise ExecutionError("plan was made for another graph: it is not "
                                 "the plan plan_buffers makes for this one")
        offset_of = plan.offset_of
        arena = np.empty(plan.peak_bytes // _BYTES_F32, dtype=np.float32)
        if poison:
            arena.fill(np.nan)

    vals: dict[int, np.ndarray] = {}  # live values and window codes, by key

    for i, n in enumerate(g.nodes):
        if n.kind is NodeKind.INPUT:
            vals[n.id] = x
        elif n.kind is NodeKind.OUTPUT:
            a = vals[n.inputs[0]]
            vals[n.id] = a.copy() if a is x else a
        else:
            if n.id == producer_id and arena is not None:
                if poison:  # a view left behind would now read NaN
                    arena.fill(np.nan)
                arena = None
            shape = tuple(shapes[n.id])
            if n.id in offset_of:
                off = offset_of[n.id]
                held = [src for src in n.inputs if offset_of.get(src) == off
                        ] if n.kind in _IN_PLACE else []
                if held:  # on its input's slot: write over that input
                    out = vals[held[0]]
                else:
                    start = off // _BYTES_F32
                    out = arena[start: start + shapes[n.id].count].reshape(shape)
            else:
                out = np.empty(shape, dtype=np.float32)
                if poison:
                    out.fill(np.nan)
            try:
                vals[n.id] = _node_value(n, weights, vals, out)
            except EnetError as e:
                raise type(e)(f"node {n.name}: {e}") from e

        # drop what this node read last, and a pool's codes no unpool reads;
        # poison no value whose array this node wrote its output over
        done = (*_reads(n), ~n.id) if n.kind is NodeKind.MAXPOOL else _reads(n)
        for key in set(done):
            if last_use.get(key, i) == i:
                if poison and key in offset_of and vals[key] is not vals[n.id]:
                    vals[key][...] = np.nan
                del vals[key]

    return vals[g.output_node.id]


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel class with the highest score; ties go to the lowest index."""
    if logits.ndim != 3:
        raise ShapeError(f"logits must be CHW, got ndim={logits.ndim}")
    if logits.shape[0] < 2:
        raise ShapeError(f"need at least 2 class maps, got {logits.shape[0]}")
    return np.argmax(logits, axis=0).astype(np.int64)


@dataclass(frozen=True)
class BenchResult:
    """Latency measurement for one graph at one resolution, and its plan."""

    shape: Shape
    warmup: int
    iters: int
    mean_ms: float
    std_ms: float
    median_ms: float
    min_ms: float
    plan: ExecutionPlan

    @property
    def fps(self) -> float:
        return 1000.0 / self.mean_ms if self.mean_ms > 0 else float("inf")


def benchmark(g: Graph, weights: dict[str, np.ndarray], input_shape: Shape,
              warmup: int = 1, iters: int = 5) -> BenchResult:
    """Time planned execution of the graph over a fixed random input: each
    warmup and timed pass is the same checked `execute` call inference makes."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    input_shape = Shape(*input_shape)
    rng = np.random.default_rng(0)
    x = rng.random(tuple(input_shape), dtype=np.float32)
    plan = plan_buffers(g)
    for _ in range(warmup):
        execute(g, weights, x, plan)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        execute(g, weights, x, plan)
        times.append((time.perf_counter() - t0) * 1000.0)
    return BenchResult(shape=input_shape, warmup=warmup, iters=iters,
                       mean_ms=float(np.mean(times)), std_ms=float(np.std(times)),
                       median_ms=float(np.median(times)),
                       min_ms=float(np.min(times)), plan=plan)
