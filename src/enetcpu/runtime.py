"""Graph execution: buffer planning, the interpreter loop, label extraction,
and latency measurement.

Planning assigns every intermediate value to a reusable arena slot via
liveness analysis.  With a plan, each compute node's kernel writes its result
straight into its slot view through the kernel's `out` argument; nothing is
copied after a kernel returns.  The planner never gives a node a slot that one
of its live inputs occupies, so no kernel writes over what it reads.  Without
a plan every kernel returns a fresh array; that is the reference, and the two
are bitwise identical, so a planning bug shows up as corrupted values (or
poisoned NaNs in debug mode) instead of silent reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CorruptIndicesError, EnetError, ExecutionError, ShapeError
from .graph import Graph, NodeKind, infer_shapes
from .kernels import (
    BnParams,
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


@dataclass(frozen=True)
class ExecutionPlan:
    """Slot assignment for every intermediate value.

    peak_bytes is the arena high-water mark (sum of slot sizes);
    no_reuse_bytes is what holding every intermediate alive would cost.
    Pool nodes in `retained` keep their index arrays alive past normal
    liveness because a later unpool consumes them.
    """

    order: tuple[int, ...]
    slot_of: dict[int, int]
    slot_sizes: tuple[int, ...]
    peak_bytes: int
    no_reuse_bytes: int
    retained: frozenset[int]


def _last_uses(g: Graph) -> tuple[dict[int, int], dict[int, int]]:
    """Liveness over storage order: for each value id, the position of its
    last reader; for each maxpool id, the position of the last unpool that
    reads its indices."""
    last_use: dict[int, int] = {}
    idx_last_use: dict[int, int] = {}
    for i, n in enumerate(g.nodes):
        for src in n.inputs:
            last_use[src] = i
        if n.kind is NodeKind.MAX_UNPOOL and n.index_link is not None:
            idx_last_use[n.index_link] = i
    return last_use, idx_last_use


def plan_buffers(g: Graph) -> ExecutionPlan:
    """Greedy liveness-driven slot assignment over topological order."""
    shapes = infer_shapes(g)
    last_use, idx_last_use = _last_uses(g)

    slot_of: dict[int, int] = {}
    slot_sizes: list[int] = []
    free: list[int] = []  # currently unassigned slot ids
    no_reuse = 0

    for i, n in enumerate(g.nodes):
        if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            continue
        need = shapes[n.id].count * _BYTES_F32
        no_reuse += need
        # best-fit among free slots; inputs still live, so their slots are
        # not in `free` and the no-aliasing rule holds by construction
        best = -1
        for s in free:
            if slot_sizes[s] >= need and (best < 0 or slot_sizes[s] < slot_sizes[best]):
                best = s
        if best >= 0:
            free.remove(best)
            slot_of[n.id] = best
        else:
            slot_of[n.id] = len(slot_sizes)
            slot_sizes.append(need)
        # release inputs that die at this node (their last consumer is us)
        for src in set(n.inputs):
            if last_use[src] == i and src in slot_of:
                free.append(slot_of[src])
        free.sort()

    return ExecutionPlan(order=tuple(n.id for n in g.nodes), slot_of=slot_of,
                         slot_sizes=tuple(slot_sizes),
                         peak_bytes=sum(slot_sizes), no_reuse_bytes=no_reuse,
                         retained=frozenset(idx_last_use))


def _node_value(n, weights, vals, pool_idx, shapes, out):
    """Run one node's kernel into `out` (a fresh array when None) and return
    its output array; a maxpool also parks its indices in pool_idx."""
    a = vals[n.inputs[0]] if n.inputs else None
    if n.kind in (NodeKind.CONV, NodeKind.CONV_TRANSPOSE):
        conv = conv2d if n.kind is NodeKind.CONV else conv_transpose2d
        bias = weights[n.ref("bias")] if n.conv.has_bias else None
        return conv(a, weights[n.ref("weight")], bias, n.conv, out=out)
    if n.kind is NodeKind.ASYM_CONV5:
        bias = weights[n.ref("bias")] if n.conv.has_bias else None
        return conv_asymmetric5(a, weights[n.ref("weight_5x1")],
                                weights[n.ref("weight_1x5")], bias, out=out)
    if n.kind is NodeKind.MAXPOOL:
        res = maxpool2x2(a, out=out)
        pool_idx[n.id] = res.indices
        return res.values
    if n.kind is NodeKind.MAX_UNPOOL:
        if n.index_link not in pool_idx:
            raise ExecutionError(
                f"pooling indices of node {n.index_link} are not available")
        idx = pool_idx[n.index_link]
        if np.any(idx < 0):
            raise CorruptIndicesError("consumed or poisoned pooling indices")
        out_shape = shapes[n.id]
        return max_unpool2x2(a, idx, out_shape.height, out_shape.width, out=out)
    if n.kind is NodeKind.BATCHNORM:
        p = BnParams(gamma=weights[n.ref("gamma")], beta=weights[n.ref("beta")],
                     mean=weights[n.ref("mean")], var=weights[n.ref("var")],
                     eps=n.bn_eps)
        return batchnorm_infer(a, p, out=out)
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
            plan: Optional[ExecutionPlan] = None, *, check: bool = True,
            poison: bool = False) -> np.ndarray:
    """Run the graph over one input tensor and return the output tensor.

    With a plan, kernels write intermediates straight into the plan's arena
    slots; poison=True additionally overwrites freed slots with NaN (and dead
    pooling indices with -1) so any liveness bug turns into a loud failure.
    An input holding a NaN or an infinity is refused with ExecutionError.
    """
    if check:
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
    last_use, idx_last_use = _last_uses(g)

    arena = None
    if plan is not None:
        if plan.order != tuple(n.id for n in g.nodes) or any(
                plan.slot_sizes[s] < shapes[i].count * _BYTES_F32
                for i, s in plan.slot_of.items()):
            raise ExecutionError("plan was made for another graph: its node "
                                 "order or slot sizes do not fit this one")
        arena = [np.empty(size // _BYTES_F32, dtype=np.float32)
                 for size in plan.slot_sizes]
        if poison:
            for buf in arena:
                buf.fill(np.nan)

    vals: dict[int, np.ndarray] = {}
    pool_idx: dict[int, np.ndarray] = {}
    result: Optional[np.ndarray] = None

    for i, n in enumerate(g.nodes):
        if n.kind is NodeKind.INPUT:
            vals[n.id] = x
        elif n.kind is NodeKind.OUTPUT:
            result = vals[n.inputs[0]].copy()
        else:
            out = None  # planned: the node's slot view, which its kernel fills
            if arena is not None:
                slot = arena[plan.slot_of[n.id]]
                out = slot[: shapes[n.id].count].reshape(tuple(shapes[n.id]))
            try:
                vals[n.id] = _node_value(n, weights, vals, pool_idx, shapes, out)
            except EnetError as e:
                raise type(e)(f"node {n.name}: {e}") from e

        # free values/indices whose last consumer just ran
        for src in set(n.inputs):
            if last_use[src] == i and src in vals:
                if poison and plan is not None and src in plan.slot_of:
                    vals[src][...] = np.nan
                del vals[src]
        if idx_last_use.get(n.index_link) == i:
            if poison:
                pool_idx[n.index_link].fill(-1)
            del pool_idx[n.index_link]

    if result is None:  # pragma: no cover - graphs always carry an output node
        raise ExecutionError("graph has no output node")
    return result


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel class with the highest score; ties go to the lowest index."""
    if logits.ndim != 3:
        raise ShapeError(f"logits must be CHW, got ndim={logits.ndim}")
    if logits.shape[0] < 2:
        raise ShapeError(f"need at least 2 class maps, got {logits.shape[0]}")
    return np.argmax(logits, axis=0).astype(np.int64)


@dataclass(frozen=True)
class BenchResult:
    """Latency measurement for one graph at one resolution."""

    shape: Shape
    warmup: int
    iters: int
    mean_ms: float
    std_ms: float
    median_ms: float
    min_ms: float

    @property
    def fps(self) -> float:
        return 1000.0 / self.mean_ms if self.mean_ms > 0 else float("inf")


def benchmark(g: Graph, weights: dict[str, np.ndarray], input_shape: Shape,
              warmup: int = 1, iters: int = 5, seed: int = 0) -> BenchResult:
    """Time planned execution of the graph over a fixed random input."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    input_shape = Shape(*input_shape)
    if input_shape != g.input_shape:
        raise ExecutionError(
            f"benchmark shape {input_shape} does not match graph input "
            f"{g.input_shape}")
    rng = np.random.default_rng(seed)
    x = rng.random(tuple(input_shape), dtype=np.float32)
    plan = plan_buffers(g)
    execute(g, weights, x, plan)  # one checked pass; timed passes skip checks
    for _ in range(warmup):
        execute(g, weights, x, plan, check=False)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        execute(g, weights, x, plan, check=False)
        times.append((time.perf_counter() - t0) * 1000.0)
    return BenchResult(shape=input_shape, warmup=warmup, iters=iters,
                       mean_ms=float(np.mean(times)), std_ms=float(np.std(times)),
                       median_ms=float(np.median(times)),
                       min_ms=float(np.min(times)))
