"""Graph execution: buffer planning, the interpreter loop and label
extraction.

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
its `out` argument: into its own view of the buffer at its offset, else
into a fresh array, so without a plan the same loop runs out of place with
no offsets, and a node on its input's slot writes over that input through a
view of the same bytes.  The views alone hold the buffer, so it is freed
when its last value dies, before the producer runs: it is never held beside
the output, and nothing is copied out of it.  Planned and unplanned runs
are bitwise identical, so a planning bug shows up as corrupted values (or
poisoned NaNs in debug mode) instead of silent reuse.  `execute` derives the
plan once per call and runs a given plan only when it equals that one, so no
plan edited by hand, whose live values might share bytes, is ever trusted.

The buffer saves resident memory that a tracemalloc peak does not show.  On
the fused 19-class 3x360x640 graph (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31;
26 frames in each of 2 runs), a variant that gave every value a fresh array,
with the same in-place writes, had the same tracemalloc peak (21.435 MB) and
no clear latency difference, but a maximum RSS of 79.5 MB against 71.9 MB.

The plan also sizes convolution scratch.  It totals the bytes a planned
`execute` holds while each node runs: the buffer until its last value dies,
the fresh arrays, each pool's window codes until its last unpool, and an
asymmetric conv's 5x1 intermediate.  The largest total is the frame's value
peak, and each convolution bands its im2col scratch (ones row and one
accumulator included) to the headroom under that peak, so the scratch fills
memory the frame holds anyway instead of adding to its peak (im2col scratch
is the memory cost of GEMM convolution: Anderson et al., arXiv 1709.03395).
No band is less than one output row (kernels.band_row), so a convolution
with less headroom than that, such as the output's producer at the value
peak, runs one row per band, and its row is all it adds to the peak.  Every
band fits its budget, so the frame figure bounds every band byte.  Unplanned
runs band by the same budgets, and band height does not change a
convolution's bits.

A graph was checked, and its shapes inferred, when it was made (see
graph.Graph).  `execute` validates the weight store against it on every
call, before any kernel reads a weight; there is no unchecked mode.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, fields
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import EnetError, ExecutionError, ShapeError
# bn_affine and band_row are called through their modules: perfbench times
# every function imported here by name as a span of its own, and neither
# is a kernel
from . import graph, kernels
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
_BYTES_F64 = 8
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
    codes of the others are dropped as soon as they exist.  `band_of` maps
    each convolution node's id to its band budget in float64 elements, the
    larger of one band row and the headroom under the value peak, and
    frame_peak_bytes is the most bytes of values, window codes and band
    budget held while any one node runs (see the module docstring); strip
    temporaries and weight casts are left out.  `execute` refuses a plan
    unequal to the one it derives for its graph, rather than trust it.
    """

    offset_of: dict[int, int]
    peak_bytes: int
    live_bytes: int
    no_reuse_bytes: int
    retained: frozenset[int]
    band_of: Mapping[int, int]
    frame_peak_bytes: int


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


def _totals(spans, n: int) -> list[int]:
    """For each position 0..n-1, the sum of the sizes of the (size, first,
    last) spans that cover it, first and last inclusive."""
    step = [0] * (n + 1)
    for size, first, last in spans:
        step[first] += size
        step[last + 1] -= size
    return list(accumulate(step[:n]))


def plan_buffers(g: Graph) -> ExecutionPlan:
    """Greedy-by-size offset assignment over the liveness intervals of
    slots, and a band budget for each convolution from the headroom under
    the frame's value peak."""
    return _plan(g, infer_shapes(g), _last_uses(g))


def _plan(g: Graph, shapes, last_use) -> ExecutionPlan:
    """plan_buffers over infer_shapes(g) and _last_uses(g), given."""
    producer = g.node(g.output_node.inputs[0])
    unplaced = {producer.id, *producer.inputs}

    slot_of: dict[int, int] = {}  # placed value id -> index into slots
    slots: list[list[int]] = []  # [bytes, first, last]; positions inclusive
    # (bytes, first, last) held outside the buffer while a node runs, its
    # output included: the fresh arrays, each pool's window codes until its
    # last unpool, and an asymmetric conv's 5x1 intermediate
    spans: list[tuple[int, int, int]] = []
    convs: list[tuple[int, int, int]] = []  # (position, id, band row) of each conv
    for i, n in enumerate(g.nodes):
        if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            continue
        size = shapes[n.id].count * _BYTES_F32
        last = last_use.get(n.id, i)
        if n.kind is NodeKind.MAXPOOL:
            spans.append((size // _BYTES_F32, i, last_use.get(~n.id, i)))
        elif n.kind in CONV_KINDS:
            convs.append((i, n.id, kernels.band_row(
                *shapes[n.inputs[0]], n.conv,
                transposed=n.kind is NodeKind.CONV_TRANSPOSE,
                asymmetric=n.kind is NodeKind.ASYM_CONV5)))
            if n.kind is NodeKind.ASYM_CONV5:
                spans.append((size, i, i))
        if n.id in unplaced:
            spans.append((size, i, last))
            continue
        hosts = [src for src in n.inputs if src in slot_of and last_use[src] == i
                 and slots[slot_of[src]][0] == size] if n.kind in _IN_PLACE else []
        if hosts:
            slot_of[n.id] = slot_of[hosts[0]]
            slots[slot_of[n.id]][2] = last
        else:
            slot_of[n.id] = len(slots)
            slots.append([size, i, last])

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

    peak_bytes = max((end for _, end, _, _ in placed), default=0)
    freed = max((last for _, _, last in slots), default=-1)  # buffer's last use
    held = _totals([*spans, (peak_bytes, 0, freed)], len(g.nodes))
    value_peak = max(held, default=0)
    band_of = {nid: max(row, (value_peak - held[i]) // _BYTES_F64)
               for i, nid, row in convs}

    return ExecutionPlan(offset_of={nid: slot_offset[k] for nid, k in slot_of.items()},
                         peak_bytes=peak_bytes,
                         live_bytes=max(_totals(slots, len(g.nodes)), default=0),
                         no_reuse_bytes=sum(shapes[nid].count * _BYTES_F32
                                            for nid in slot_of),
                         retained=frozenset(~k for k in last_use if k < 0),
                         band_of=MappingProxyType(band_of),
                         frame_peak_bytes=max(
                             [value_peak] + [held[i] + _BYTES_F64 * band_of[nid]
                                             for i, nid, _ in convs]))


def _node_value(n, weights, vals, out, band):
    """Run one node's kernel into `out` and return its output array; a
    maxpool also stores its window codes in vals, under the key ~n.id.  A
    convolution bands its scratch to `band` float64 elements."""
    a = vals[n.inputs[0]] if n.inputs else None
    if n.kind in CONV_KINDS:
        bias = weights[n.ref("bias")] if n.conv.has_bias else None
        if n.kind is NodeKind.ASYM_CONV5:
            return conv_asymmetric5(a, weights[n.ref("weight_5x1")],
                                    weights[n.ref("weight_1x5")], bias, out=out,
                                    band=band)
        conv = conv2d if n.kind is NodeKind.CONV else conv_transpose2d
        return conv(a, weights[n.ref("weight")], bias, n.conv, out=out, band=band)
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

    The graph was checked when it was made, so a node the output does not
    read never gets here.  Every call validates the weight store against
    the graph (see passes.validate) and raises ExecutionError with its
    diagnostics before any kernel runs.  An input holding a NaN or an
    infinity is refused with ExecutionError too.

    Every call derives the plan once, as plan_buffers(g) would, and each
    convolution bands its scratch to its budget in that plan's band_of.  A
    given plan must equal the derived one, or ExecutionError naming the
    first field that differs is raised before any kernel runs.  With it, a
    node the plan gives an offset writes into its own view of one buffer
    allocated for this call, so a PReLU, add, batch norm or dropout on the
    offset of an input it reads writes over that input; every other node
    writes into a fresh array, as every node does without a plan, the
    out-of-place reference.  The views alone hold the buffer, so it is freed
    when its last value dies, which the plan puts before the output node's
    producer runs, and nothing is copied.  poison=True fills the buffer and
    every fresh array with NaN before use, and overwrites each buffered
    value with NaN once its last reader has run, unless that reader wrote
    its output on the value's offset (the slot is poisoned when its last
    member's last reader has run), so any liveness bug turns into a loud
    failure.  Poison covers values only: pooling window codes live outside
    the buffer, under the same liveness as the values, so a reader after
    their last unpool finds them missing and raises ExecutionError.
    """
    diags = validate(g, weights)
    if diags:
        raise ExecutionError("graph failed validation: " + "; ".join(diags[:5]))
    with np.errstate(over="ignore"):  # a value beyond float32 is refused below
        x, given = np.ascontiguousarray(x, dtype=np.float32), x
    if x.ndim != 3 or Shape(*x.shape) != g.input_shape:
        raise ExecutionError(
            f"input shape {'x'.join(map(str, x.shape))} does not match the "
            f"graph input {g.input_shape}")
    if not np.isfinite(x).all():
        bad = x.size - np.count_nonzero(np.isfinite(x))
        grown = bad - (np.size(given) - np.count_nonzero(np.isfinite(given)))
        raise ExecutionError("input holds " + " and ".join(f"{k} {s}" for k, s in (
            (bad - grown, "non-finite value(s) (NaN or infinity)"),
            (grown, "finite value(s) beyond the float32 range")) if k))

    shapes = infer_shapes(g)
    last_use = _last_uses(g)

    derived = _plan(g, shapes, last_use)
    if plan is not None and plan != derived:
        field = next(f.name for f in fields(ExecutionPlan)
                     if getattr(plan, f.name) != getattr(derived, f.name))
        raise ExecutionError(f"plan's {field} differs from the one "
                             f"plan_buffers makes for this graph")
    # unplanned: the derived plan's band budgets, and none of its offsets
    offset_of = {} if plan is None else plan.offset_of
    band_of = (derived if plan is None else plan).band_of
    del derived
    arena = np.empty(0 if plan is None else plan.peak_bytes // _BYTES_F32, np.float32)
    if poison:
        arena.fill(np.nan)
    # placed nodes' views, last first: popped in storage order, list freed
    views = [arena[offset_of[n.id] // _BYTES_F32:][:shapes[n.id].count].reshape(
        tuple(shapes[n.id])) for n in reversed(g.nodes) if n.id in offset_of]
    del arena

    vals: dict[int, np.ndarray] = {}  # live values and window codes, by key

    for i, n in enumerate(g.nodes):
        if n.kind is NodeKind.INPUT:
            vals[n.id] = x
        elif n.kind is NodeKind.OUTPUT:
            a = vals[n.inputs[0]]
            vals[n.id] = a.copy() if a is x else a
        else:
            if n.id in offset_of:
                out = views.pop()
            else:
                out = np.empty(tuple(shapes[n.id]), dtype=np.float32)
                if poison:
                    out.fill(np.nan)
            try:
                vals[n.id] = _node_value(n, weights, vals, out, band_of.get(n.id))
            except EnetError as e:
                raise type(e)(f"node {n.name}: {e}") from e

        # drop what this node read last, and a pool's codes no unpool reads;
        # poison no value this node wrote its output over, on its offset
        done = (*_reads(n), ~n.id) if n.kind is NodeKind.MAXPOOL else _reads(n)
        for key in set(done):
            if last_use.get(key, i) == i:
                if poison and offset_of.get(key) not in (None, offset_of.get(n.id)):
                    vals[key][...] = np.nan
                del vals[key]

    return vals[g.output_node.id]


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel class with the highest score; ties go to the lowest index."""
    if logits.ndim != 3:
        raise ShapeError(f"logits must be CHW, got ndim={logits.ndim}")
    if logits.shape[0] < 2:
        raise ShapeError(f"need at least 2 class maps, got {logits.shape[0]}")
    return np.argmax(logits, axis=0).astype(np.int64, copy=False)

