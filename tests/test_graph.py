"""Graph construction and shape inference: stage topology, channel widths,
unpool index wiring, the refusals of a malformed node or graph, weight
initialization."""

import re
from collections import Counter
from dataclasses import replace

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
    last_readers,
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
    # the graph keys a pool's window codes by ~id in its last readers,
    # which must never be a node id
    n0 = NodeSpec(id=-1, kind=NodeKind.INPUT, name="input", inputs=())
    with pytest.raises(ValidationError, match="negative node id -1"):
        Graph(nodes=(n0,), input_shape=Shape(1, 2, 2))


@pytest.mark.parametrize("kind,inputs,lacks", [
    (NodeKind.CONV, (0,), "has no ConvParams"),
    (NodeKind.CONV_TRANSPOSE, (0,), "has no ConvParams"),
    (NodeKind.ASYM_CONV5, (0,), "has no ConvParams"),
    (NodeKind.PAD_CHANNELS, (0,), "has no target_channels"),
    (NodeKind.ADD, (0,), "reads 2 input(s), given 1"),
    (NodeKind.OUTPUT, (), "reads 1 input(s), given 0"),
    (NodeKind.PRELU, (0, 0), "reads 1 input(s), given 2"),
])
def test_a_malformed_node_is_refused_naming_its_kind_and_what_it_lacks(
        kind, inputs, lacks):
    want = f"node 1 (bad) of kind {kind.value} {lacks}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        NodeSpec(id=1, kind=kind, name="bad", inputs=inputs)


def test_graph_input_and_output_nodes_are_found_once_and_missing_ones_named():
    g = build_enet(4, 32, 32)
    assert g.input_node is g.nodes[0] and g.output_node is g.nodes[-1]
    assert g.input_node.kind is NodeKind.INPUT and g.output_node.kind is NodeKind.OUTPUT
    inp = NodeSpec(id=0, kind=NodeKind.INPUT, name="input", inputs=())
    with pytest.raises(ValidationError,
                       match="graph must have exactly 1 output node, found 0"):
        Graph(nodes=(inp,), input_shape=Shape(1, 2, 2))
    two = (inp, NodeSpec(id=1, kind=NodeKind.INPUT, name="input2", inputs=()),
           NodeSpec(id=2, kind=NodeKind.OUTPUT, name="output", inputs=(0,)))
    with pytest.raises(ValidationError,
                       match="graph must have exactly 1 input node, found 2"):
        Graph(nodes=two, input_shape=Shape(1, 2, 2))


def test_graph_refuses_detached_nodes():
    b = GraphBuilder(Shape(2, 4, 4))
    main = b.prelu("act", b.input_id)
    b.conv("orphan", b.input_id, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    with pytest.raises(ValidationError,
                       match=r"^node 2 \(orphan\) does not contribute to the output$"):
        b.build(main)
    # only an unpool reads through its link: a stray one elsewhere reads nothing
    nodes = (NodeSpec(0, NodeKind.INPUT, "input", ()),
             NodeSpec(1, NodeKind.CONV, "orphan", (0,),
                      conv=ConvParams(out_channels=2, kernel_h=1, kernel_w=1)),
             NodeSpec(2, NodeKind.PRELU, "act", (0,), index_link=1),
             NodeSpec(3, NodeKind.OUTPUT, "output", (2,)))
    with pytest.raises(ValidationError,
                       match=r"^node 1 \(orphan\) does not contribute to the output$"):
        Graph(nodes=nodes, input_shape=Shape(2, 4, 4))


def test_graph_refuses_a_dead_chain_naming_its_last_node():
    # every node but the output must be read: of a chain nobody reads, the
    # last node is the one with no reader
    b = GraphBuilder(Shape(2, 4, 4))
    main = b.prelu("act", b.input_id)
    dead = b.conv("dead0", b.input_id, ConvParams(out_channels=2, kernel_h=1,
                                                  kernel_w=1))
    b.prelu("dead1", dead)
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(dead1\) does not contribute to the output$"):
        b.build(main)


def test_graph_refuses_a_pool_read_only_through_a_dead_unpools_link():
    b = GraphBuilder(Shape(2, 8, 8))
    pool = b.maxpool("pool", b.input_id)
    other = b.maxpool("other", b.input_id)
    b.max_unpool("up", other, pool)  # reads pool's window codes; nothing reads it
    main = b.prelu("act", other)
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(up\) does not contribute to the output$"):
        b.build(main)


def test_graph_refuses_nodes_stored_after_the_output_producer():
    b = GraphBuilder(Shape(2, 4, 4))
    act = b.prelu("act", b.input_id)
    late = b.conv("late", act, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    b.prelu("later", late)
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(later\) does not contribute to the output$"):
        b.build(act)
    # nor may any node read the output node
    nodes = (NodeSpec(0, NodeKind.INPUT, "input", ()),
             NodeSpec(1, NodeKind.PRELU, "act", (0,)),
             NodeSpec(2, NodeKind.OUTPUT, "output", (1,)),
             NodeSpec(3, NodeKind.PRELU, "after", (2,)))
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(after\) does not contribute to the output$"):
        Graph(nodes=nodes, input_shape=Shape(2, 4, 4))


def test_an_unpool_link_to_a_later_node_is_no_read_of_it():
    # only a node stored earlier can be read: a later pool that nothing else
    # reads does not contribute, whatever links to it
    nodes = (NodeSpec(0, NodeKind.INPUT, "input", ()),
             NodeSpec(1, NodeKind.MAXPOOL, "pool", (0,)),
             NodeSpec(2, NodeKind.MAX_UNPOOL, "up", (1,), index_link=3),
             NodeSpec(3, NodeKind.MAXPOOL, "late", (0,)),
             NodeSpec(4, NodeKind.OUTPUT, "output", (2,)))
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(late\) does not contribute to the output$"):
        Graph(nodes=nodes, input_shape=Shape(2, 8, 8))


def test_last_readers_key_values_by_id_and_window_codes_by_not_id():
    b = GraphBuilder(Shape(2, 8, 8))
    pool = b.maxpool("pool", b.input_id)  # positions equal ids here
    up1 = b.max_unpool("up1", pool, pool)
    mid = b.maxpool("mid", up1)  # no unpool reads its codes
    up2 = b.max_unpool("up2", mid, pool)  # pool's codes' last reader
    twice = b.add("twice", up2, up2)
    out = b.add("sum", twice, up1)
    g = b.build(out)
    last = last_readers(g)
    assert dict(last) == {0: pool, pool: up1, ~pool: up2, up1: out, mid: up2,
                          up2: twice, twice: out, out: g.output_node.id}
    assert last_readers(g) is last
    with pytest.raises(TypeError):
        last[0] = 0


def test_graph_refuses_a_bad_unpool_link():
    b = GraphBuilder(Shape(2, 8, 8))
    pool = b.maxpool("pool", b.input_id)
    up = b.max_unpool("up", pool, pool)
    g = b.build(up)
    # corrupt the link: a non-pool node, a missing node, no node at all, and
    # -1, which the graph must not record as a read of ~-1 == 0, the input
    for link, why in ((0, "unpool index source input is not a maxpool"),
                      (99, "unpool has no resolvable index source"),
                      (None, "unpool has no resolvable index source"),
                      (-1, "unpool has no resolvable index source")):
        bad_nodes = tuple(
            replace(n, index_link=link) if n.name == "up" else n for n in g.nodes
        )
        with pytest.raises(ValidationError, match=rf"^node 2 \(up\): {why}$"):
            Graph(nodes=bad_nodes, input_shape=g.input_shape)


# ---------------------------------------------------------------------------
# shape inference failure paths

def test_infer_shapes_rejects_mismatched_add():
    b = GraphBuilder(Shape(4, 8, 8))
    left = b.conv("c1", b.input_id, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    right = b.conv("c2", b.input_id, ConvParams(out_channels=8, kernel_h=1, kernel_w=1))
    bad = b.add("sum", left, right)
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(sum\): add inputs disagree: 4x8x8 vs 8x8x8$"):
        b.build(bad)


def test_shapes_are_inferred_once_when_the_graph_is_made():
    b = GraphBuilder(Shape(2, 5, 5))
    pool = b.maxpool("pool", b.input_id)  # odd dims cannot pool
    with pytest.raises(ValidationError,
                       match=r"^node 1 \(pool\): maxpool needs even dims, got 5x5$"):
        b.build(pool)
    g = build_enet(4, 32, 32)
    shapes = infer_shapes(g)
    assert infer_shapes(g) is shapes and shapes[g.output_node.id] == Shape(4, 32, 32)
    with pytest.raises(TypeError):
        shapes[0] = Shape(1, 1, 1)


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
