"""Static computation graph: node specs, builders for the segmentation
architecture, shape inference, and weight initialization.

Nodes are immutable and stored in topological order.  Node ids are stable
labels (optimization passes keep the ids of surviving nodes), so storage
position and id may diverge after a pass.  Weights live outside the graph in
a plain dict keyed by "<node name>.<role>" strings.  A node is never given
its keys: they are derived when it is made, from its kind, which names the
roles it binds (a convolution binds "bias" only when its params say so), and
its name.  This module is the one place that says which weights a node has
and how they are laid out, and what a batch norm's weights mean: bn_affine
turns them into the one per-channel float64 scale and shift, with the
constant BN_EPS, that both the unfused kernel and the fold apply.  Nodes
hold structure only; spatial dropout, the identity at inference, has no
rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BuildError, ShapeError, ValidationError
from .kernels import ConvParams
from .tensor import Shape, check_shape

BN_EPS = 1e-5  # the epsilon of every batch norm's sqrt(var + eps)
PRELU_INIT = 0.25


class NodeKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    CONV = "conv"
    CONV_TRANSPOSE = "conv_transpose"
    ASYM_CONV5 = "asym_conv5"
    MAXPOOL = "maxpool"
    MAX_UNPOOL = "max_unpool"
    BATCHNORM = "batchnorm"
    PRELU = "prelu"
    ADD = "add"
    CONCAT = "concat"
    PAD_CHANNELS = "pad_channels"
    DROPOUT = "dropout"


class BottleneckKind(enum.Enum):
    REGULAR = "regular"
    DOWNSAMPLING = "downsampling"
    UPSAMPLING = "upsampling"
    DILATED = "dilated"
    ASYMMETRIC5 = "asymmetric5"


# node kinds that own parameters, with the weight roles they bind; a
# convolution's kernels come in the order they are applied, its bias last
_WEIGHT_ROLES = {
    NodeKind.CONV: ("weight", "bias"),
    NodeKind.CONV_TRANSPOSE: ("weight", "bias"),
    NodeKind.ASYM_CONV5: ("weight_5x1", "weight_1x5", "bias"),
    NodeKind.BATCHNORM: ("gamma", "beta", "mean", "var"),
    NodeKind.PRELU: ("slopes",),
}

# kinds that carry ConvParams; they bind "bias" only when conv.has_bias
CONV_KINDS = (NodeKind.CONV, NodeKind.CONV_TRANSPOSE, NodeKind.ASYM_CONV5)


def out_axis(kind: NodeKind) -> int:
    """Axis of a conv kernel that indexes output channels: kernels are
    (out, in, kh, kw), or (in, out, kh, kw) when transposed."""
    return 1 if kind is NodeKind.CONV_TRANSPOSE else 0


@dataclass(frozen=True)
class NodeSpec:
    """One operator instance in the graph."""

    id: int
    kind: NodeKind
    name: str
    inputs: tuple[int, ...]
    conv: Optional[ConvParams] = None
    target_channels: Optional[int] = None
    index_link: Optional[int] = None  # MAX_UNPOOL -> id of the source MAXPOOL

    def __post_init__(self):
        # derived once per node, not a field: every execute looks weights up
        # by these keys, and a key string made anew is hashed anew
        roles = _WEIGHT_ROLES.get(self.kind, ())
        if self.kind in CONV_KINDS and not self.conv.has_bias:
            roles = roles[:-1]
        object.__setattr__(self, "_refs",
                           tuple((role, f"{self.name}.{role}") for role in roles))

    @property
    def weight_refs(self) -> tuple[tuple[str, str], ...]:
        """(role, weight-store key) pairs this node binds, in role order."""
        return self._refs

    def ref(self, role: str) -> str:
        """Weight-store key bound to a role ("weight", "gamma", ...)."""
        for r, key in self._refs:
            if r == role:
                return key
        raise KeyError(f"node {self.name} has no weight role {role!r}")

    @property
    def stage(self) -> str:
        """Coarse grouping key: initial, bottleneck1..5, fullconv, ..."""
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Graph:
    """Immutable operator DAG with a single input and a single output."""

    nodes: tuple[NodeSpec, ...]
    input_shape: Shape

    def __post_init__(self):
        seen_ids: set[int] = set()
        seen_names: set[str] = set()
        for n in self.nodes:
            if n.id < 0:  # the runtime keys a pool's window codes by ~id
                raise ValidationError(f"negative node id {n.id}")
            if n.id in seen_ids:
                raise ValidationError(f"duplicate node id {n.id}")
            if n.name in seen_names:
                raise ValidationError(f"duplicate node name {n.name!r}")
            for src in n.inputs:
                if src not in seen_ids:
                    raise ValidationError(
                        f"node {n.name} consumes id {src} that is not stored earlier"
                    )
            seen_ids.add(n.id)
            seen_names.add(n.name)
        by_id = {n.id: n for n in self.nodes}
        by_name = {n.name: n for n in self.nodes}
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_name", by_name)
        for attr, kind in (("_input", NodeKind.INPUT), ("_output", NodeKind.OUTPUT)):
            object.__setattr__(self, attr, next(
                (n for n in self.nodes if n.kind is kind), None))

    def __iter__(self) -> Iterator[NodeSpec]:
        return iter(self.nodes)

    def node(self, nid: int) -> NodeSpec:
        return self._by_id[nid]

    def find(self, name: str) -> NodeSpec:
        return self._by_name[name]

    @property
    def input_node(self) -> NodeSpec:
        """The first INPUT node (validate refuses a graph with another count)."""
        if self._input is None:
            raise ValidationError("graph has no input node")
        return self._input

    @property
    def output_node(self) -> NodeSpec:
        """The first OUTPUT node (validate refuses a graph with another count)."""
        if self._output is None:
            raise ValidationError("graph has no output node")
        return self._output

    def consumers(self) -> dict[int, tuple[int, ...]]:
        """Map node id -> ids of nodes that read it, in storage order."""
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                out[src].append(n.id)
        return {k: tuple(v) for k, v in out.items()}


class GraphBuilder:
    """Append-only construction of a Graph in topological order."""

    def __init__(self, input_shape: Shape):
        check_shape(Shape(*input_shape))
        self.input_shape = Shape(*input_shape)
        self._nodes: list[NodeSpec] = []
        self.input_id = self._append(NodeKind.INPUT, "input", ())

    def _append(self, kind: NodeKind, name: str, inputs: tuple[int, ...],
                **attrs) -> int:
        nid = len(self._nodes)
        self._nodes.append(NodeSpec(id=nid, kind=kind, name=name, inputs=inputs,
                                    **attrs))
        return nid

    def conv(self, name: str, src: int, params: ConvParams) -> int:
        return self._append(NodeKind.CONV, name, (src,), conv=params)

    def conv_transpose(self, name: str, src: int, params: ConvParams) -> int:
        return self._append(NodeKind.CONV_TRANSPOSE, name, (src,), conv=params)

    def asym_conv5(self, name: str, src: int, channels: int) -> int:
        params = ConvParams(out_channels=channels, kernel_h=5, kernel_w=5,
                            pad_h=2, pad_w=2)
        return self._append(NodeKind.ASYM_CONV5, name, (src,), conv=params)

    def maxpool(self, name: str, src: int) -> int:
        return self._append(NodeKind.MAXPOOL, name, (src,))

    def max_unpool(self, name: str, src: int, index_source: int) -> int:
        if not 0 <= index_source < len(self._nodes) or \
                self._nodes[index_source].kind is not NodeKind.MAXPOOL:
            raise BuildError(f"unpool {name} index source must be an existing maxpool node")
        return self._append(NodeKind.MAX_UNPOOL, name, (src,),
                            index_link=index_source)

    def batchnorm(self, name: str, src: int) -> int:
        return self._append(NodeKind.BATCHNORM, name, (src,))

    def prelu(self, name: str, src: int) -> int:
        return self._append(NodeKind.PRELU, name, (src,))

    def add(self, name: str, a: int, b: int) -> int:
        return self._append(NodeKind.ADD, name, (a, b))

    def concat(self, name: str, a: int, b: int) -> int:
        return self._append(NodeKind.CONCAT, name, (a, b))

    def pad_channels(self, name: str, src: int, target_channels: int) -> int:
        return self._append(NodeKind.PAD_CHANNELS, name, (src,),
                            target_channels=target_channels)

    def dropout(self, name: str, src: int) -> int:
        return self._append(NodeKind.DROPOUT, name, (src,))

    def find(self, name: str) -> int:
        for n in self._nodes:
            if n.name == name:
                return n.id
        raise KeyError(f"no node named {name!r}")

    def build(self, final: int) -> Graph:
        self._append(NodeKind.OUTPUT, "output", (final,))
        return Graph(nodes=tuple(self._nodes), input_shape=self.input_shape)


# ---------------------------------------------------------------------------
# architecture blocks

def build_initial_block(b: GraphBuilder) -> int:
    """Entry block: 3x3 stride-2 conv to 13 maps next to a 2x2 maxpool of the
    raw input, concatenated to 16 channels, then BN and PReLU."""
    c, h, w = b.input_shape
    if c != 3:
        raise BuildError(f"initial block expects a 3-channel input, got {c}")
    if h % 2 or w % 2:
        raise BuildError(f"initial block needs even input dims, got {h}x{w}")
    conv = b.conv("initial.conv", b.input_id,
                  ConvParams(out_channels=13, kernel_h=3, kernel_w=3,
                             stride=2, pad_h=1, pad_w=1))
    pool = b.maxpool("initial.pool", b.input_id)
    cat = b.concat("initial.concat", conv, pool)
    bn = b.batchnorm("initial.bn", cat)
    return b.prelu("initial.prelu", bn)


def build_bottleneck(b: GraphBuilder, kind: BottleneckKind, in_ch: int,
                     out_ch: int, src: int, *, name: str, dilation: int = 1,
                     unpool_source: Optional[int] = None) -> int:
    """Residual bottleneck: 1x1 projection, main convolution, 1x1 expansion
    on the extension branch; identity / pool+pad / conv+unpool on the main
    branch; Add then PReLU after the merge."""
    if in_ch % 4 or out_ch % 4:
        raise BuildError(f"{name}: channel counts must be divisible by 4, "
                         f"got {in_ch} -> {out_ch}")
    inner = out_ch // 4
    if kind is BottleneckKind.DILATED:
        if dilation < 2:
            raise BuildError(f"{name}: dilated bottleneck needs dilation >= 2")
    elif dilation != 1:
        raise BuildError(f"{name}: dilation only applies to dilated bottlenecks")
    if kind in (BottleneckKind.REGULAR, BottleneckKind.DILATED,
                BottleneckKind.ASYMMETRIC5):
        if in_ch != out_ch:
            raise BuildError(f"{name}: {kind.value} bottleneck cannot change "
                             f"channel count ({in_ch} -> {out_ch})")
    if kind is BottleneckKind.DOWNSAMPLING and out_ch < in_ch:
        raise BuildError(f"{name}: downsampling bottleneck cannot shrink channels")
    if kind is BottleneckKind.UPSAMPLING and unpool_source is None:
        raise BuildError(f"{name}: upsampling bottleneck needs an unpool index source")

    # extension branch: projection
    if kind is BottleneckKind.DOWNSAMPLING:
        proj_params = ConvParams(out_channels=inner, kernel_h=2, kernel_w=2, stride=2)
    else:
        proj_params = ConvParams(out_channels=inner, kernel_h=1, kernel_w=1)
    ext = b.conv(f"{name}.ext.proj", src, proj_params)
    ext = b.batchnorm(f"{name}.ext.proj_bn", ext)
    ext = b.prelu(f"{name}.ext.proj_prelu", ext)

    # extension branch: main convolution
    if kind is BottleneckKind.ASYMMETRIC5:
        ext = b.asym_conv5(f"{name}.ext.asym", ext, inner)
    elif kind is BottleneckKind.UPSAMPLING:
        ext = b.conv_transpose(
            f"{name}.ext.deconv", ext,
            ConvParams(out_channels=inner, kernel_h=3, kernel_w=3, stride=2,
                       pad_h=1, pad_w=1, out_pad=1))
    else:
        ext = b.conv(
            f"{name}.ext.conv", ext,
            ConvParams(out_channels=inner, kernel_h=3, kernel_w=3,
                       pad_h=dilation, pad_w=dilation, dilation=dilation))
    ext = b.batchnorm(f"{name}.ext.conv_bn", ext)
    ext = b.prelu(f"{name}.ext.conv_prelu", ext)

    # extension branch: expansion, then regularizer.  Spatial dropout (rate
    # 0.01 in stage 1, 0.1 after it, in the paper) only acts in training; at
    # inference it is the identity, so the node carries no rate
    ext = b.conv(f"{name}.ext.expand", ext,
                 ConvParams(out_channels=out_ch, kernel_h=1, kernel_w=1))
    ext = b.batchnorm(f"{name}.ext.expand_bn", ext)
    ext = b.dropout(f"{name}.ext.dropout", ext)

    # main branch
    if kind is BottleneckKind.DOWNSAMPLING:
        main = b.maxpool(f"{name}.main.pool", src)
        main = b.pad_channels(f"{name}.main.pad", main, out_ch)
    elif kind is BottleneckKind.UPSAMPLING:
        main = b.conv(f"{name}.main.conv", src,
                      ConvParams(out_channels=out_ch, kernel_h=1, kernel_w=1))
        main = b.batchnorm(f"{name}.main.bn", main)
        main = b.max_unpool(f"{name}.main.unpool", main, unpool_source)
    else:
        main = src

    merged = b.add(f"{name}.add", main, ext)
    return b.prelu(f"{name}.prelu", merged)


def build_enet(num_classes: int, input_h: int, input_w: int) -> Graph:
    """The full encoder-decoder segmentation network."""
    if num_classes < 2:
        raise BuildError(f"need at least 2 classes, got {num_classes}")
    if input_h % 8 or input_w % 8:
        raise BuildError(
            f"input dims must be divisible by 8, got {input_h}x{input_w}"
        )
    b = GraphBuilder(Shape(3, input_h, input_w))
    x = build_initial_block(b)

    # stage 1: downsample to 64 channels, then 4 regular blocks
    x = build_bottleneck(b, BottleneckKind.DOWNSAMPLING, 16, 64, x,
                         name="bottleneck1.0")
    for i in range(1, 5):
        x = build_bottleneck(b, BottleneckKind.REGULAR, 64, 64, x,
                             name=f"bottleneck1.{i}")

    # stages 2 and 3 share one sequence; stage 3 skips the downsampler
    seq = [
        (BottleneckKind.REGULAR, 1), (BottleneckKind.DILATED, 2),
        (BottleneckKind.ASYMMETRIC5, 1), (BottleneckKind.DILATED, 4),
        (BottleneckKind.REGULAR, 1), (BottleneckKind.DILATED, 8),
        (BottleneckKind.ASYMMETRIC5, 1), (BottleneckKind.DILATED, 16),
    ]
    x = build_bottleneck(b, BottleneckKind.DOWNSAMPLING, 64, 128, x,
                         name="bottleneck2.0")
    for i, (kind, rate) in enumerate(seq, start=1):
        x = build_bottleneck(b, kind, 128, 128, x, name=f"bottleneck2.{i}",
                             dilation=rate if kind is BottleneckKind.DILATED else 1)
    for i, (kind, rate) in enumerate(seq, start=1):
        x = build_bottleneck(b, kind, 128, 128, x, name=f"bottleneck3.{i}",
                             dilation=rate if kind is BottleneckKind.DILATED else 1)

    # decoder: unpool with the encoder's pooling indices
    x = build_bottleneck(b, BottleneckKind.UPSAMPLING, 128, 64, x,
                         name="bottleneck4.0",
                         unpool_source=b.find("bottleneck2.0.main.pool"))
    for i in (1, 2):
        x = build_bottleneck(b, BottleneckKind.REGULAR, 64, 64, x,
                             name=f"bottleneck4.{i}")
    x = build_bottleneck(b, BottleneckKind.UPSAMPLING, 64, 16, x,
                         name="bottleneck5.0",
                         unpool_source=b.find("bottleneck1.0.main.pool"))
    x = build_bottleneck(b, BottleneckKind.REGULAR, 16, 16, x, name="bottleneck5.1")

    # bare full convolution to class scores; the only biased layer
    x = b.conv_transpose("fullconv", x,
                         ConvParams(out_channels=num_classes, kernel_h=2,
                                    kernel_w=2, stride=2, has_bias=True))
    return b.build(x)


# ---------------------------------------------------------------------------
# shape inference

def infer_shapes(g: Graph) -> dict[int, Shape]:
    """Propagate the input shape through every node; raises ValidationError
    naming the first node whose geometry is inconsistent."""
    shapes: dict[int, Shape] = {}

    def fail(n: NodeSpec, why: str):
        raise ValidationError(f"node {n.id} ({n.name}): {why}")

    for n in g.nodes:
        try:
            if n.kind is NodeKind.INPUT:
                out = check_shape(g.input_shape)
            elif n.kind is NodeKind.OUTPUT:
                out = shapes[n.inputs[0]]
            elif n.kind is NodeKind.CONV:
                c, h, w = shapes[n.inputs[0]]
                oh, ow = n.conv.conv_out_hw(h, w)
                out = Shape(n.conv.out_channels, oh, ow)
            elif n.kind is NodeKind.CONV_TRANSPOSE:
                c, h, w = shapes[n.inputs[0]]
                oh, ow = n.conv.tconv_out_hw(h, w)
                out = Shape(n.conv.out_channels, oh, ow)
            elif n.kind is NodeKind.ASYM_CONV5:
                c, h, w = shapes[n.inputs[0]]
                if c != n.conv.out_channels:
                    fail(n, f"asymmetric conv keeps channel count, got {c} in "
                            f"vs {n.conv.out_channels} out")
                oh, ow = n.conv.conv_out_hw(h, w)
                out = Shape(c, oh, ow)
            elif n.kind is NodeKind.MAXPOOL:
                c, h, w = shapes[n.inputs[0]]
                if h % 2 or w % 2:
                    fail(n, f"maxpool needs even dims, got {h}x{w}")
                out = Shape(c, h // 2, w // 2)
            elif n.kind is NodeKind.MAX_UNPOOL:
                c, h, w = shapes[n.inputs[0]]
                if n.index_link is None or n.index_link not in shapes:
                    fail(n, "unpool has no resolvable index source")
                link = g.node(n.index_link)
                if link.kind is not NodeKind.MAXPOOL:
                    fail(n, f"unpool index source {link.name} is not a maxpool")
                if shapes[n.index_link] != Shape(c, h, w):
                    fail(n, f"unpool input {Shape(c, h, w)} does not match "
                            f"index source output {shapes[n.index_link]}")
                out = Shape(c, 2 * h, 2 * w)
            elif n.kind in (NodeKind.BATCHNORM, NodeKind.PRELU, NodeKind.DROPOUT):
                out = shapes[n.inputs[0]]
            elif n.kind is NodeKind.ADD:
                a, bb = shapes[n.inputs[0]], shapes[n.inputs[1]]
                if a != bb:
                    fail(n, f"add inputs disagree: {a} vs {bb}")
                out = a
            elif n.kind is NodeKind.CONCAT:
                a, bb = shapes[n.inputs[0]], shapes[n.inputs[1]]
                if a[1:] != bb[1:]:
                    fail(n, f"concat spatial dims disagree: {a} vs {bb}")
                out = Shape(a.channels + bb.channels, a.height, a.width)
            elif n.kind is NodeKind.PAD_CHANNELS:
                c, h, w = shapes[n.inputs[0]]
                if n.target_channels < c:
                    fail(n, f"cannot pad {c} channels down to {n.target_channels}")
                out = Shape(n.target_channels, h, w)
            else:  # pragma: no cover - enum is closed
                fail(n, f"unknown node kind {n.kind}")
            shapes[n.id] = check_shape(out)
        except ShapeError as e:
            fail(n, str(e))
    return shapes


# ---------------------------------------------------------------------------
# weight initialization

def expected_weight_shapes(g: Graph) -> dict[str, tuple[int, ...]]:
    """Shape every weight-store entry must have, derived from the graph.

    Kernels are 4-D (see out_axis); every other role (bias, BN statistics,
    PReLU slopes) holds one value per output channel."""
    shapes = infer_shapes(g)
    out: dict[str, tuple[int, ...]] = {}
    for n in g.nodes:
        if not n.weight_refs:
            continue
        in_c = shapes[n.inputs[0]].channels
        c = n.conv.out_channels if n.kind in CONV_KINDS else in_c
        if n.kind is NodeKind.CONV:
            kernels = {"weight": (c, in_c, n.conv.kernel_h, n.conv.kernel_w)}
        elif n.kind is NodeKind.CONV_TRANSPOSE:
            kernels = {"weight": (in_c, c, n.conv.kernel_h, n.conv.kernel_w)}
        elif n.kind is NodeKind.ASYM_CONV5:
            kernels = {"weight_5x1": (c, in_c, 5, 1), "weight_1x5": (c, c, 1, 5)}
        else:
            kernels = {}
        for role, key in n.weight_refs:
            out[key] = kernels.get(role, (c,))
    return out


def bn_affine(n: NodeSpec, weights: dict[str, np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
    """A BATCHNORM node as the per-channel float64 map x*scale + shift, with
    scale = gamma / sqrt(var + BN_EPS) and shift = beta - mean*scale (Ioffe
    & Szegedy, 2015, section 3.1).  The unfused kernel applies this pair and
    the fold writes it into a convolution.  The statistics are not checked
    here: passes.validate refuses bad ones before either path runs."""
    gamma, beta, mean, var = (weights[key].astype(np.float64)
                              for _, key in n.weight_refs)
    scale = gamma / np.sqrt(var + BN_EPS)
    return scale, beta - mean * scale


def init_weights(g: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic random initialization: conv weights are zero-mean
    gaussian scaled by 1/sqrt(fan-in), biases zero, BN is the identity
    transform, PReLU slopes start at 0.25."""
    rng = np.random.default_rng(seed)
    want = expected_weight_shapes(g)
    store: dict[str, np.ndarray] = {}
    for n in g.nodes:
        for role, key in n.weight_refs:
            shp = want[key]
            if role.startswith("weight"):
                fan_in = math.prod(shp) // shp[out_axis(n.kind)]
                store[key] = (rng.standard_normal(shp) / np.sqrt(fan_in)).astype(np.float32)
            elif role in ("bias", "beta", "mean"):
                store[key] = np.zeros(shp, dtype=np.float32)
            elif role in ("gamma", "var"):
                store[key] = np.ones(shp, dtype=np.float32)
            elif role == "slopes":
                store[key] = np.full(shp, PRELU_INIT, dtype=np.float32)
            else:  # pragma: no cover - role set is closed
                raise ValidationError(f"unknown weight role in key {key!r}")
    return store
