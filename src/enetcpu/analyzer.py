"""Static cost analysis: parameter counts, MAC/FLOP estimates, serialized
model size, and class-balancing weights from label histograms.

Everything here is derived from the graph alone (shape inference), never
from executing kernels, so it runs in microseconds at any resolution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .enwt import container_size
from .errors import FormatError
from .graph import (
    CONV_KINDS,
    Graph,
    NodeKind,
    NodeSpec,
    expected_weight_shapes,
    infer_shapes,
)
from .tensor import DType, Shape


class FlopConvention(enum.Enum):
    """How multiply-accumulates translate to FLOPs."""

    FMA2 = "fma2"  # one MAC = 2 FLOPs (multiply + add)
    MAC = "mac"    # one MAC = 1 FLOP (fused)

    @property
    def flops_per_mac(self) -> int:
        return 2 if self is FlopConvention.FMA2 else 1


# weightless elementwise kinds charged one MAC per output element
_ELEMENTWISE = (NodeKind.BATCHNORM, NodeKind.PRELU, NodeKind.ADD,
                NodeKind.MAXPOOL, NodeKind.MAX_UNPOOL)


@dataclass(frozen=True)
class NodeCost:
    """Static cost of one node."""

    name: str
    kind: NodeKind
    stage: str
    out_shape: Shape
    params: int
    macs: int


@dataclass(frozen=True)
class CostReport:
    """Per-node and aggregate cost of a graph at its build resolution."""

    input_shape: Shape
    convention: FlopConvention
    per_node: tuple[NodeCost, ...]

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.per_node)

    @property
    def total_macs(self) -> int:
        return sum(c.macs for c in self.per_node)

    @property
    def total_flops(self) -> int:
        return self.total_macs * self.convention.flops_per_mac

    def conv_macs(self) -> int:
        """MACs spent in convolution-like nodes only."""
        return sum(c.macs for c in self.per_node if c.kind in CONV_KINDS)

    def by_stage(self) -> dict[str, tuple[int, int]]:
        """Ordered stage name -> (params, macs) aggregation."""
        out: dict[str, tuple[int, int]] = {}
        for c in self.per_node:
            p, m = out.get(c.stage, (0, 0))
            out[c.stage] = (p + c.params, m + c.macs)
        return out


def _node_macs(n: NodeSpec, in_shape: Shape, out_shape: Shape,
               want: dict[str, tuple[int, ...]]) -> int:
    if n.kind in CONV_KINDS:
        # every kernel element is applied once per position it slides over:
        # the output's for a convolution, the input's for a transposed one
        at = in_shape if n.kind is NodeKind.CONV_TRANSPOSE else out_shape
        return at.height * at.width * sum(
            math.prod(want[key]) for role, key in n.weight_refs if role != "bias")
    if n.kind in _ELEMENTWISE:
        return out_shape.count
    return 0


def count_params(g: Graph) -> int:
    """Total trainable parameters in the graph."""
    return sum(math.prod(shp) for shp in expected_weight_shapes(g).values())


def count_flops(g: Graph,
                convention: FlopConvention = FlopConvention.FMA2) -> CostReport:
    """Per-node MAC/parameter census at the graph's build resolution."""
    shapes = infer_shapes(g)
    want = expected_weight_shapes(g)
    per_node = []
    for n in g.nodes:
        in_shape = shapes[n.inputs[0]] if n.inputs else shapes[n.id]
        per_node.append(NodeCost(
            name=n.name, kind=n.kind, stage=n.stage, out_shape=shapes[n.id],
            params=sum(math.prod(want[key]) for _, key in n.weight_refs),
            macs=_node_macs(n, in_shape, shapes[n.id], want)))
    return CostReport(input_shape=g.input_shape, convention=convention,
                      per_node=tuple(per_node))


@dataclass(frozen=True)
class SizeReport:
    """Serialized model footprint at a given storage precision."""

    params: int
    payload_bytes: int    # raw tensor data
    container_bytes: int  # payload plus headers and record metadata

    @property
    def payload_mb(self) -> float:
        return self.payload_bytes / 1e6

    @property
    def container_mb(self) -> float:
        return self.container_bytes / 1e6


def model_size_fp16(g: Graph) -> SizeReport:
    """Size of the model serialized with half-precision tensor payloads."""
    params = count_params(g)
    return SizeReport(params=params, payload_bytes=DType.F16.itemsize * params,
                      container_bytes=container_size(expected_weight_shapes(g),
                                                     DType.F16))


# ---------------------------------------------------------------------------
# class-balancing weights

@dataclass(frozen=True)
class ClassHistogram:
    """Pixel counts per class label."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if len(self.labels) != len(counts):
            raise FormatError(
                f"{len(self.labels)} labels but {len(counts)} counts")
        if len(set(self.labels)) != len(self.labels):
            raise FormatError("duplicate class labels in histogram")
        if counts.ndim != 1 or np.any(counts < 0):
            raise FormatError("histogram counts must be non-negative integers")
        if counts.sum() == 0:
            raise FormatError("histogram is empty (all counts zero)")

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.counts.sum()


def load_histogram(path) -> ClassHistogram:
    """Parse a histogram text file: one `<label> <pixel_count>` pair per
    line; blank lines and `#` comments are ignored."""
    labels: list[str] = []
    counts: list[int] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read histogram {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(
                f"{path}:{lineno}: expected '<label> <count>', got {raw.strip()!r}")
        label, count_s = parts
        try:
            count = int(count_s)
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: count {count_s!r} is not an integer") from None
        if count < 0:
            raise FormatError(f"{path}:{lineno}: negative count {count}")
        if label in labels:
            raise FormatError(f"{path}:{lineno}: duplicate label {label!r}")
        labels.append(label)
        counts.append(count)
    if not labels:
        raise FormatError(f"{path}: no histogram entries")
    if sum(counts) >= 2**63:
        raise FormatError(f"{path}: total count {sum(counts)} does not fit int64")
    return ClassHistogram(labels=tuple(labels), counts=np.array(counts, dtype=np.int64))


def compute_class_weights(hist: ClassHistogram, c: float = 1.02) -> np.ndarray:
    """Inverse-log class weighting: w = 1 / ln(c + p_class).

    Rare classes get large weights; the spread is bounded by
    [1/ln(c+1), 1/ln(c)], which for the default c is roughly [1.42, 50.5].
    """
    if not c > 1.0:
        raise ValueError(f"weighting constant c must be > 1, got {c}")
    p = hist.probabilities
    return 1.0 / np.log(c + p)


def bound_class_weights(c: float = 1.02) -> tuple[float, float]:
    """The (min, max) weights reachable for a given c."""
    return 1.0 / math.log(c + 1.0), 1.0 / math.log(c)
