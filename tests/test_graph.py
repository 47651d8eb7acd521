"""Graph construction and shape inference: stage topology, channel widths,
unpool index wiring, weight initialization."""

from collections import Counter

import numpy as np
import pytest

from enetcpu.errors import BuildError, ValidationError
from enetcpu.graph import (
    BottleneckKind,
    Graph,
    GraphBuilder,
    NodeKind,
    NodeSpec,
    build_bottleneck,
    build_enet,
    build_initial_block,
    expected_weight_shapes,
    infer_shapes,
    init_weights,
)
from enetcpu.kernels import ConvParams
from enetcpu.tensor import Shape


# ---------------------------------------------------------------------------
# initial block

def test_initial_block_halves_dims_to_16_channels():
    b = GraphBuilder(Shape(3, 512, 512))
    out = build_initial_block(b)
    g = b.build(out)
    shapes = infer_shapes(g)
    assert shapes[out] == Shape(16, 256, 256)
    assert shapes[g.find("initial.conv").id] == Shape(13, 256, 256)
    assert shapes[g.find("initial.pool").id] == Shape(3, 256, 256)


def test_initial_block_other_resolution():
    b = GraphBuilder(Shape(3, 640, 360))
    out = build_initial_block(b)
    g = b.build(out)
    assert infer_shapes(g)[out] == Shape(16, 320, 180)


def test_initial_block_conv_is_bias_free():
    b = GraphBuilder(Shape(3, 64, 64))
    build_initial_block(b)
    g = b.build(b.find("initial.prelu"))
    conv = g.find("initial.conv")
    assert conv.conv == ConvParams(out_channels=13, kernel_h=3, kernel_w=3,
                                   stride=2, pad_h=1, pad_w=1)
    assert [r for r, _ in conv.weight_refs] == ["weight"]


def test_initial_block_preconditions():
    with pytest.raises(BuildError):
        build_initial_block(GraphBuilder(Shape(4, 64, 64)))
    with pytest.raises(BuildError):
        build_initial_block(GraphBuilder(Shape(3, 63, 64)))
    with pytest.raises(BuildError):
        build_initial_block(GraphBuilder(Shape(3, 64, 62 + 1)))


# ---------------------------------------------------------------------------
# bottleneck construction

def _single_bottleneck(kind, in_ch, out_ch, h=16, w=16, **kw):
    b = GraphBuilder(Shape(in_ch, h, w))
    if kind is BottleneckKind.UPSAMPLING:
        # mirror the encoder: the index source is a pool of an out_ch-wide
        # tensor, and the block input sits at the pooled resolution
        b2 = GraphBuilder(Shape(out_ch, h, w))
        pool = b2.maxpool("setup.pool", b2.input_id)
        src = b2.conv("setup.conv", pool,
                      ConvParams(out_channels=in_ch, kernel_h=1, kernel_w=1))
        kw["unpool_source"] = pool
        b = b2
    else:
        src = b.input_id
    out = build_bottleneck(b, kind, in_ch, out_ch, src, name="blk", **kw)
    return b.build(out), out


def test_regular_bottleneck_channel_trace():
    g, out = _single_bottleneck(BottleneckKind.REGULAR, 128, 128)
    shapes = infer_shapes(g)
    assert shapes[g.find("blk.ext.proj").id].channels == 32
    assert shapes[g.find("blk.ext.conv").id].channels == 32
    assert shapes[g.find("blk.ext.expand").id].channels == 128
    assert shapes[out] == Shape(128, 16, 16)


def test_regular_bottleneck_node_census():
    g, _ = _single_bottleneck(BottleneckKind.REGULAR, 64, 64)
    kinds = Counter(n.kind for n in g.nodes if not n.name.startswith(("input", "output")))
    assert kinds == {NodeKind.CONV: 3, NodeKind.BATCHNORM: 3, NodeKind.PRELU: 3,
                     NodeKind.DROPOUT: 1, NodeKind.ADD: 1}


def test_downsampling_bottleneck_structure():
    g, out = _single_bottleneck(BottleneckKind.DOWNSAMPLING, 16, 64)
    shapes = infer_shapes(g)
    assert shapes[out] == Shape(64, 8, 8)
    proj = g.find("blk.ext.proj")
    assert (proj.conv.kernel_h, proj.conv.kernel_w, proj.conv.stride) == (2, 2, 2)
    assert shapes[g.find("blk.main.pool").id] == Shape(16, 8, 8)
    assert g.find("blk.main.pad").target_channels == 64
    kinds = Counter(n.kind for n in g.nodes)
    assert kinds[NodeKind.MAXPOOL] == 1 and kinds[NodeKind.PAD_CHANNELS] == 1


def test_upsampling_bottleneck_structure():
    g, out = _single_bottleneck(BottleneckKind.UPSAMPLING, 128, 64, h=8, w=8)
    shapes = infer_shapes(g)
    # setup pool halves 8x8 to 4x4; the block doubles it back
    assert shapes[out] == Shape(64, 8, 8)
    deconv = g.find("blk.ext.deconv")
    p = deconv.conv
    assert (p.kernel_h, p.stride, p.pad_h, p.out_pad) == (3, 2, 1, 1)
    main_conv = g.find("blk.main.conv")
    assert [r for r, _ in main_conv.weight_refs] == ["weight"]  # bias-free
    unpool = g.find("blk.main.unpool")
    assert unpool.index_link == g.find("setup.pool").id
    kinds = Counter(n.kind for n in g.nodes)
    assert kinds[NodeKind.BATCHNORM] == 4
    assert kinds[NodeKind.CONV_TRANSPOSE] == 1


def test_dilated_and_asymmetric_bottlenecks():
    g, _ = _single_bottleneck(BottleneckKind.DILATED, 64, 64, dilation=4)
    conv = g.find("blk.ext.conv")
    assert conv.conv.dilation == 4 and conv.conv.pad_h == 4
    assert infer_shapes(g)[conv.id] == Shape(16, 16, 16)

    g2, _ = _single_bottleneck(BottleneckKind.ASYMMETRIC5, 64, 64)
    asym = g2.find("blk.ext.asym")
    assert asym.kind is NodeKind.ASYM_CONV5
    assert infer_shapes(g2)[asym.id] == Shape(16, 16, 16)
    # single graph node, two kernel halves, no bias
    assert [r for r, _ in asym.weight_refs] == ["weight_5x1", "weight_1x5"]


def test_bottleneck_preconditions():
    b = GraphBuilder(Shape(16, 16, 16))
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.REGULAR, 16, 18, b.input_id, name="x")
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.REGULAR, 16, 32, b.input_id, name="x")
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.DILATED, 16, 16, b.input_id, name="x",
                         dilation=1)
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.REGULAR, 16, 16, b.input_id, name="x",
                         dilation=2)
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.DOWNSAMPLING, 16, 8, b.input_id, name="x")
    with pytest.raises(BuildError):
        build_bottleneck(b, BottleneckKind.UPSAMPLING, 16, 16, b.input_id, name="x")


# ---------------------------------------------------------------------------
# the full network

def test_enet_stage_output_shapes_at_512():
    g = build_enet(19, 512, 512)
    shapes = infer_shapes(g)

    def out_of(name):
        return shapes[g.find(name).id]

    assert out_of("initial.prelu") == Shape(16, 256, 256)
    assert out_of("bottleneck1.0.prelu") == Shape(64, 128, 128)
    assert out_of("bottleneck1.4.prelu") == Shape(64, 128, 128)
    assert out_of("bottleneck2.0.prelu") == Shape(128, 64, 64)
    assert out_of("bottleneck2.8.prelu") == Shape(128, 64, 64)
    assert out_of("bottleneck3.8.prelu") == Shape(128, 64, 64)  # encoder output
    assert out_of("bottleneck4.0.prelu") == Shape(64, 128, 128)
    assert out_of("bottleneck4.2.prelu") == Shape(64, 128, 128)
    assert out_of("bottleneck5.0.prelu") == Shape(16, 256, 256)
    assert out_of("bottleneck5.1.prelu") == Shape(16, 256, 256)
    assert out_of("fullconv") == Shape(19, 512, 512)
    assert shapes[g.output_node.id] == Shape(19, 512, 512)


def test_enet_non_square_resolution():
    g = build_enet(12, 480, 360)
    shapes = infer_shapes(g)
    assert shapes[g.output_node.id] == Shape(12, 480, 360)
    # stages 2/3 run at 1/8 resolution even when that is odd-sized
    assert shapes[g.find("bottleneck3.8.prelu").id] == Shape(128, 60, 45)


def test_enet_node_kind_census():
    g = build_enet(19, 512, 512)
    kinds = Counter(n.kind for n in g.nodes)
    assert kinds == {
        NodeKind.INPUT: 1, NodeKind.OUTPUT: 1,
        NodeKind.CONV: 78, NodeKind.CONV_TRANSPOSE: 3, NodeKind.ASYM_CONV5: 4,
        NodeKind.MAXPOOL: 3, NodeKind.MAX_UNPOOL: 2,
        NodeKind.BATCHNORM: 84, NodeKind.PRELU: 82,
        NodeKind.ADD: 27, NodeKind.DROPOUT: 27,
        NodeKind.CONCAT: 1, NodeKind.PAD_CHANNELS: 2,
    }
    assert len(g.nodes) == 315


def test_enet_dilation_schedule():
    g = build_enet(19, 512, 512)
    for stage in (2, 3):
        for idx, rate in ((2, 2), (4, 4), (6, 8), (8, 16)):
            conv = g.find(f"bottleneck{stage}.{idx}.ext.conv")
            assert conv.conv.dilation == rate, (stage, idx)
        for idx in (3, 7):
            assert g.find(f"bottleneck{stage}.{idx}.ext.asym").kind is NodeKind.ASYM_CONV5
        for idx in (1, 5):
            assert g.find(f"bottleneck{stage}.{idx}.ext.conv").conv.dilation == 1


def test_enet_unpool_index_wiring():
    g = build_enet(19, 512, 512)
    assert (g.find("bottleneck4.0.main.unpool").index_link
            == g.find("bottleneck2.0.main.pool").id)
    assert (g.find("bottleneck5.0.main.unpool").index_link
            == g.find("bottleneck1.0.main.pool").id)


def test_enet_only_fullconv_has_bias():
    g = build_enet(19, 512, 512)
    biased = [n.name for n in g.nodes
              if any(r == "bias" for r, _ in n.weight_refs)]
    assert biased == ["fullconv"]


def test_enet_build_preconditions():
    with pytest.raises(BuildError):
        build_enet(1, 64, 64)
    with pytest.raises(BuildError):
        build_enet(19, 100, 100)
    with pytest.raises(BuildError):
        build_enet(19, 64, 60)


def test_enet_build_is_deterministic():
    a = build_enet(19, 256, 256)
    b = build_enet(19, 256, 256)
    assert a.nodes == b.nodes
    assert a.input_shape == b.input_shape


def test_graph_storage_is_topological():
    g = build_enet(7, 64, 64)
    pos = {n.id: i for i, n in enumerate(g.nodes)}
    for n in g.nodes:
        for src in n.inputs:
            assert pos[src] < pos[n.id]
        if n.index_link is not None:
            assert pos[n.index_link] < pos[n.id]


def test_graph_rejects_forward_references_and_duplicates():
    n0 = NodeSpec(id=0, kind=NodeKind.INPUT, name="input", inputs=())
    bad = NodeSpec(id=1, kind=NodeKind.PRELU, name="p", inputs=(5,))
    with pytest.raises(ValidationError):
        Graph(nodes=(n0, bad), input_shape=Shape(1, 2, 2))
    dup = NodeSpec(id=0, kind=NodeKind.PRELU, name="q", inputs=(0,))
    with pytest.raises(ValidationError):
        Graph(nodes=(n0, dup), input_shape=Shape(1, 2, 2))


def test_graph_rejects_negative_ids():
    # the runtime keys a pool's window codes by ~id, which must never be a
    # node id
    n0 = NodeSpec(id=-1, kind=NodeKind.INPUT, name="input", inputs=())
    with pytest.raises(ValidationError, match="negative node id -1"):
        Graph(nodes=(n0,), input_shape=Shape(1, 2, 2))


def test_graph_input_and_output_nodes_are_found_once_and_missing_ones_named():
    g = build_enet(4, 32, 32)
    assert g.input_node is g.nodes[0] and g.output_node is g.nodes[-1]
    assert g.input_node.kind is NodeKind.INPUT and g.output_node.kind is NodeKind.OUTPUT
    lone = Graph(nodes=(NodeSpec(id=0, kind=NodeKind.INPUT, name="input", inputs=()),),
                 input_shape=Shape(1, 2, 2))
    assert lone.input_node is lone.nodes[0]
    with pytest.raises(ValidationError, match="no output node"):
        lone.output_node


# ---------------------------------------------------------------------------
# shape inference failure paths

def test_infer_shapes_rejects_mismatched_add():
    b = GraphBuilder(Shape(4, 8, 8))
    left = b.conv("c1", b.input_id, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    right = b.conv("c2", b.input_id, ConvParams(out_channels=8, kernel_h=1, kernel_w=1))
    bad = b.add("sum", left, right)
    g = b.build(bad)
    with pytest.raises(ValidationError, match="sum"):
        infer_shapes(g)


def test_infer_shapes_rejects_odd_pool_and_unfit_kernel():
    b = GraphBuilder(Shape(1, 5, 6))
    bad = b.maxpool("pool", b.input_id)
    with pytest.raises(ValidationError, match="pool"):
        infer_shapes(b.build(bad))

    b2 = GraphBuilder(Shape(1, 4, 4))
    bad2 = b2.conv("big", b2.input_id,
                   ConvParams(out_channels=1, kernel_h=7, kernel_w=7))
    with pytest.raises(ValidationError, match="big"):
        infer_shapes(b2.build(bad2))


def test_infer_shapes_rejects_inconsistent_unpool_link():
    # unpool whose input dims do not match the linked pool's output dims
    b = GraphBuilder(Shape(4, 16, 16))
    pool = b.maxpool("pool", b.input_id)          # 4 x 8 x 8
    pooled_again = b.maxpool("pool2", pool)       # 4 x 4 x 4
    up = b.max_unpool("up", pooled_again, pool)   # input 4x4 vs link output 8x8
    with pytest.raises(ValidationError, match="up"):
        infer_shapes(b.build(up))


# ---------------------------------------------------------------------------
# weight initialization

def test_init_weights_shapes_and_values():
    g = build_enet(19, 64, 64)
    store = init_weights(g, seed=0)
    want = expected_weight_shapes(g)
    assert set(store) == set(want)
    for key, shp in want.items():
        assert store[key].shape == tuple(shp), key
        assert store[key].dtype == np.float32

    assert store["initial.conv.weight"].shape == (13, 3, 3, 3)
    assert store["bottleneck1.0.ext.proj.weight"].shape == (16, 16, 2, 2)
    assert store["bottleneck2.3.ext.asym.weight_5x1"].shape == (32, 32, 5, 1)
    assert store["bottleneck2.3.ext.asym.weight_1x5"].shape == (32, 32, 1, 5)
    assert store["bottleneck4.0.ext.deconv.weight"].shape == (16, 16, 3, 3)
    assert store["fullconv.weight"].shape == (16, 19, 2, 2)
    assert store["fullconv.bias"].shape == (19,)

    assert np.all(store["fullconv.bias"] == 0.0)
    assert np.all(store["initial.bn.gamma"] == 1.0)
    assert np.all(store["initial.bn.var"] == 1.0)
    assert np.all(store["initial.bn.mean"] == 0.0)
    assert np.all(store["initial.prelu.slopes"] == 0.25)


def test_init_weights_deterministic_per_seed():
    g = build_enet(5, 64, 64)
    a = init_weights(g, seed=7)
    b = init_weights(g, seed=7)
    c = init_weights(g, seed=8)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_weights_scale_tracks_fan_in():
    g = build_enet(19, 64, 64)
    store = init_weights(g, seed=3)
    # std of 1/sqrt(fan_in)-scaled gaussians: fan_in = 128 for stage-2 proj
    w = store["bottleneck2.1.ext.proj.weight"]  # (32, 128, 1, 1)
    assert abs(float(w.std()) - 1.0 / np.sqrt(128)) < 0.02
