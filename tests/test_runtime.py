"""Runtime: buffer planning, interpreter correctness (planned == unplanned,
bitwise), pooled-index retention and labels."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enetcpu import graph, kernels, runtime
from enetcpu.analyzer import count_flops, count_params, model_size_fp16
from enetcpu.errors import ExecutionError, ShapeError, ValidationError
from enetcpu.graph import (
    CONV_KINDS,
    GraphBuilder,
    NodeKind,
    build_enet,
    expected_weight_shapes,
    infer_shapes,
    init_weights,
)
from enetcpu.kernels import ConvParams
from enetcpu.passes import optimize
from enetcpu.runtime import argmax_labels, execute, plan_buffers
from enetcpu.tensor import Shape
from reference import ref_conv_transpose2d

F32 = np.float32


def _chain_graph():
    """input -> conv -> prelu -> conv -> output, all one shape."""
    b = GraphBuilder(Shape(4, 8, 8))
    x = b.conv("c1", b.input_id, ConvParams(out_channels=4, kernel_h=3,
                                            kernel_w=3, pad_h=1, pad_w=1))
    x = b.prelu("p1", x)
    x = b.conv("c2", x, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    return b.build(x)


# ---------------------------------------------------------------------------
# planning

# the kinds that may write their output over an input they read last
ELEMENTWISE = {NodeKind.PRELU, NodeKind.ADD, NodeKind.BATCHNORM, NodeKind.DROPOUT}


def _band_rows(g):
    """For each convolution of g, the float64 elements one output row of its
    band holds, worked out from the nodes, infer_shapes(g) and the conv
    params: its im2col rows (a bias's ones row included) plus one
    accumulator, times the row's width.  A transposed conv's output phase
    (ry, rx) takes the taps ky = ry + pad_h and kx = rx + pad_w (mod
    stride), and its row is that of its widest phase; an asymmetric conv's
    is the larger of its 5x1 and 1x5 passes'."""
    shapes = infer_shapes(g)
    rows = {}
    for n in g.nodes:
        if n.kind not in CONV_KINDS:
            continue
        p, c = n.conv, shapes[n.inputs[0]].channels
        oc, bias, (_, oh, ow) = p.out_channels, int(p.has_bias), shapes[n.id]
        if n.kind is NodeKind.CONV:
            rows[n.id] = (c * p.kernel_h * p.kernel_w + bias + oc) * ow
        elif n.kind is NodeKind.ASYM_CONV5:
            rows[n.id] = max(c * 5 + oc, oc * 5 + bias + oc) * ow
        else:
            s = p.stride
            tys = [sum((ky - ry - p.pad_h) % s == 0 for ky in range(p.kernel_h))
                   for ry in range(min(s, oh))]
            txs = [(sum((kx - rx - p.pad_w) % s == 0 for kx in range(p.kernel_w)),
                    len(range(rx, ow, s))) for rx in range(min(s, ow))]
            rows[n.id] = max(((c * ty * tx + bias + oc) * nx
                              for ty in tys if ty for tx, nx in txs if tx), default=0)
    return rows


def _plan_faults(g, plan):
    """What is wrong with a plan, found from the nodes, infer_shapes(g) and
    the plan alone, with liveness worked out here; empty for a sound plan.
    Every offset is a multiple of 64 and its value fits the buffer; no two
    values live at one position share a byte, but for one kind of sharing:
    a PReLU, add, batch norm or dropout node on the same offset and size as
    an input it is the last reader of; the input, the output, the output's
    producer and what it reads have no offset; band_of holds exactly the
    convolutions, none below one row of its band (see _band_rows); the
    frame peak covers the bytes held while each node runs, its band
    budget included."""
    faults = []
    shapes = infer_shapes(g)
    pos = {n.id: i for i, n in enumerate(g.nodes)}
    last_use = {src: pos[n.id] for n in g.nodes for src in n.inputs}
    span = {}
    for nid, off in plan.offset_of.items():
        if nid not in pos:
            faults.append(f"offset for id {nid}, which the graph lacks")
            continue
        span[nid] = (off, off + shapes[nid].count * 4)
        if off < 0 or off % 64 or span[nid][1] > plan.peak_bytes:
            faults.append(f"{g.node(nid).name} at {span[nid]} is misaligned "
                          f"or outside the {plan.peak_bytes}-byte buffer")

    def written_over(a, b):
        n = g.node(a)
        return (n.kind in ELEMENTWISE and b in n.inputs
                and last_use[b] == pos[a] and span[a] == span[b])

    ids = sorted(span, key=pos.get)
    for k, a in enumerate(ids):
        for b in ids[k + 1:]:
            if pos[b] > last_use.get(a, pos[a]):
                continue  # a is dead before b is made
            apart = span[a][1] <= span[b][0] or span[b][1] <= span[a][0]
            if not (apart or written_over(b, a)):
                faults.append(f"{g.node(a).name} and {g.node(b).name} are live "
                              f"together and share bytes")
    producer = g.node(g.output_node.inputs[0])
    for nid in {g.input_node.id, g.output_node.id, producer.id, *producer.inputs}:
        if nid in plan.offset_of:
            faults.append(f"{g.node(nid).name} has an offset")
    rows = _band_rows(g)
    if set(plan.band_of) != rows.keys():
        faults.append("band_of does not hold exactly the convolutions")
    faults += [f"{g.node(nid).name}'s band {band} is below one row ({rows[nid]})"
               for nid, band in plan.band_of.items() if band < rows.get(nid, 0)]

    # bytes held while each node runs: the buffer until the last position a
    # placed value is live, every other value from its producer to its last
    # reader, a pool's uint8 window codes until its last unpool, an
    # asymmetric conv's 5x1 intermediate and a convolution's band budget
    held = [0] * len(g.nodes)

    def hold(size, first, last):
        for i in range(first, last + 1):
            held[i] += size

    if span:
        hold(plan.peak_bytes, 0, max(last_use.get(nid, pos[nid]) for nid in span))
    codes_last = {n.index_link: pos[n.id] for n in g.nodes
                  if n.kind is NodeKind.MAX_UNPOOL}
    for i, n in enumerate(g.nodes):
        if n.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            continue
        size = shapes[n.id].count * 4
        if n.id not in span:
            hold(size, i, last_use.get(n.id, i))
        if n.kind is NodeKind.MAXPOOL:
            hold(size // 4, i, codes_last.get(n.id, i))
        if n.kind is NodeKind.ASYM_CONV5:
            held[i] += size
        held[i] += 8 * plan.band_of.get(n.id, 0)
    top = max(range(len(held)), key=held.__getitem__)
    if plan.frame_peak_bytes < held[top]:
        faults.append(f"frame_peak_bytes is below the {held[top]} bytes held "
                      f"while {g.nodes[top].name} runs")
    return faults


def test_plan_chain_reuses_one_slot():
    b = GraphBuilder(Shape(4, 8, 8))
    x = b.input_id
    for i in range(2):
        x = b.conv(f"c{i}", x, ConvParams(out_channels=4, kernel_h=3, kernel_w=3,
                                          pad_h=1, pad_w=1))
        x = b.prelu(f"p{i}", x)
    g = b.build(b.conv("last", x, ConvParams(out_channels=4, kernel_h=1, kernel_w=1)))
    plan = plan_buffers(g)
    assert _plan_faults(g, plan) == []
    value = 4 * 8 * 8 * 4
    # the output's producer writes into the returned array, and the value it
    # reads is a fresh array too, so neither is in the buffer
    assert g.find("last").id not in plan.offset_of
    assert g.find("p1").id not in plan.offset_of
    # the first PReLU writes over the conv it reads last, so c0 and p0 are one
    # slot; the second conv reads that slot and needs bytes of its own
    off = {name: plan.offset_of[g.find(name).id] for name in ("c0", "p0", "c1")}
    assert off["p0"] == off["c0"] != off["c1"]
    assert plan.peak_bytes == plan.live_bytes == 2 * value
    assert plan.no_reuse_bytes == 3 * value


def test_plan_add_inputs_get_distinct_slots():
    b = GraphBuilder(Shape(2, 4, 4))
    left = b.conv("l", b.input_id, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    right = b.conv("r", b.input_id, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    s = b.add("s", left, right)
    # a second PReLU, so the sum is not read by the output's producer
    g = b.build(b.prelu("act2", b.prelu("act", s)))
    plan = plan_buffers(g)
    assert _plan_faults(g, plan) == []
    # both addends die at the sum, which writes over the first; the addends
    # are live together and stay apart
    value = 2 * 4 * 4 * 4
    spans = {name: (plan.offset_of[g.find(name).id],
                    plan.offset_of[g.find(name).id] + value)
             for name in ("l", "r", "s")}
    assert spans["s"] == spans["l"]
    assert spans["l"][1] <= spans["r"][0] or spans["r"][1] <= spans["l"][0]
    assert plan.peak_bytes == plan.live_bytes == 2 * value


def test_plan_puts_an_unfused_conv_bn_prelu_chain_on_one_offset():
    b = GraphBuilder(Shape(4, 8, 8))
    c = b.conv("c", b.input_id, ConvParams(out_channels=6, kernel_h=3, kernel_w=3,
                                           pad_h=1, pad_w=1))
    act = b.prelu("act", b.batchnorm("bn", c))
    mid = b.conv("mid", act, ConvParams(out_channels=6, kernel_h=1, kernel_w=1))
    g = b.build(b.conv("last", mid, ConvParams(out_channels=4, kernel_h=1,
                                               kernel_w=1)))
    plan = plan_buffers(g)
    assert _plan_faults(g, plan) == []
    # `mid` is read by the output's producer, so it is a fresh array, and
    # the three buffered values take one value's bytes
    assert plan.offset_of.keys() == {g.find(name).id for name in ("c", "bn", "act")}
    assert set(plan.offset_of.values()) == {0}
    assert plan.peak_bytes == plan.live_bytes == plan.no_reuse_bytes // 3 == 6 * 8 * 8 * 4
    w = init_weights(g, seed=3)
    x = np.random.default_rng(3).random((4, 8, 8), dtype=F32)
    plain = execute(g, w, x)
    for got in (execute(g, w, x, plan), execute(g, w, x, plan, poison=True)):
        np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))


def test_plan_never_aliases_output_with_live_inputs():
    g = build_enet(19, 64, 64)
    fused = optimize(g, init_weights(g, seed=0))[0]
    for graph in (g, fused):
        plan = plan_buffers(graph)
        assert _plan_faults(graph, plan) == []
        assert graph.output_node.inputs[0] not in plan.offset_of


def test_plan_leaves_the_output_producer_and_what_it_reads_unplaced():
    g = build_enet(19, 64, 64)
    fused = optimize(g, init_weights(g, seed=0))[0]
    for graph in (g, fused):
        plan = plan_buffers(graph)
        producer = graph.node(graph.output_node.inputs[0])
        assert producer.name == "fullconv"
        assert not {producer.id, *producer.inputs} & plan.offset_of.keys()
        compute = {n.id for n in graph.nodes
                   if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)}
        assert plan.offset_of.keys() == compute - {producer.id, *producer.inputs}


def test_plan_enet_reuse_beats_no_reuse():
    g = build_enet(19, 128, 128)
    plan = plan_buffers(g)
    assert plan.peak_bytes < plan.no_reuse_bytes
    # reuse should be dramatic on a 315-node graph, not marginal
    assert plan.peak_bytes < plan.no_reuse_bytes // 5
    # greedy-by-size packing reaches the live-set lower bound on ENet
    assert plan.peak_bytes == plan.live_bytes
    assert len(plan.retained) == 2  # two encoder pools feed decoder unpools


def test_plan_checker_passes_fused_and_unfused_enet_at_128x256():
    g = build_enet(19, 128, 256)
    for graph_ in (g, optimize(g, init_weights(g, seed=0))[0]):
        assert _plan_faults(graph_, plan_buffers(graph_)) == []


def test_plan_checker_rejects_each_kind_of_fault():
    g = build_enet(5, 32, 32)
    plan = plan_buffers(g)
    first = next(iter(plan.offset_of))
    conv = next(n.id for n in g.nodes if n.kind in CONV_KINDS)
    row = _band_rows(g)[conv]
    edits = {  # the fault each edit must be reported as
        "is misaligned": dict(offset_of={**plan.offset_of,
                                         first: plan.offset_of[first] + 4}),
        f"outside the {plan.peak_bytes - 64}-byte buffer":
            dict(peak_bytes=plan.peak_bytes - 64),
        "input has an offset": dict(offset_of={**plan.offset_of,
                                               g.input_node.id: 0}),
        "band_of does not hold": dict(band_of={k: v for k, v in plan.band_of.items()
                                               if k != conv}),
        f"{g.node(conv).name}'s band {row - 1} is below one row ({row})":
            dict(band_of={**plan.band_of, conv: row - 1}),
        # at 32x32 the frame's peak is at the first conv, whose band fills
        # the headroom under it
        f"frame_peak_bytes is below the {plan.frame_peak_bytes} bytes held "
        f"while initial.conv runs": dict(frame_peak_bytes=plan.frame_peak_bytes - 1),
        "frame_peak_bytes is below": dict(frame_peak_bytes=plan.peak_bytes - 1),
    }
    for fault, edit in edits.items():
        found = _plan_faults(g, dataclasses.replace(plan, **edit))
        assert any(fault in f for f in found), (fault, found)


# ---------------------------------------------------------------------------
# execution

def test_execute_planned_equals_unplanned_bitwise_on_random_graphs():
    # every motif returns to 4x8x8, so any two drawn values can be added;
    # the 50 graphs hold every node kind GraphBuilder makes
    one = ConvParams(out_channels=4, kernel_h=1, kernel_w=1)
    three = ConvParams(out_channels=4, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1)
    drawn = set()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        b = GraphBuilder(Shape(4, 8, 8))
        vals = [b.conv("c0", b.input_id, one)]
        for i in range(int(rng.integers(3, 12))):
            choice = rng.integers(0, 10)
            src = vals[-1]
            other = vals[int(rng.integers(0, len(vals)))]
            if choice == 0:
                nid = b.conv(f"conv{i}", src, three)
            elif choice == 1:
                nid = b.prelu(f"act{i}", src)
            elif choice == 2:
                nid = b.batchnorm(f"bn{i}", src)
            elif choice == 3:
                nid = b.add(f"add{i}", src, other)
            elif choice == 4:
                nid = b.dropout(f"drop{i}", src)
            elif choice == 5:
                nid = b.conv(f"merge{i}", b.concat(f"cat{i}", src, other), one)
            elif choice == 6:
                nid = b.conv(f"narrow{i}", b.pad_channels(f"pad{i}", src, 7), one)
            elif choice == 7:
                nid = b.asym_conv5(f"asym{i}", src, 4)
            elif choice == 8:
                nid = b.conv_transpose(f"tconv{i}", src, three)
            else:
                pool = b.maxpool(f"pool{i}", src)
                up = b.max_unpool(f"up{i}", b.conv(f"mid{i}", pool, one), pool)
                nid = b.add(f"skip{i}", up, src)
            vals.append(nid)
        g = b.build(vals[-1])
        drawn |= {n.kind for n in g.nodes}
        w = init_weights(g, seed=seed)
        x = rng.random((4, 8, 8), dtype=F32)
        assert _plan_faults(g, plan_buffers(g)) == []
        plain = execute(g, w, x)
        planned = execute(g, w, x, plan_buffers(g))
        poisoned = execute(g, w, x, plan_buffers(g), poison=True)
        np.testing.assert_array_equal(plain, planned)
        np.testing.assert_array_equal(plain, poisoned)
        assert np.all(np.isfinite(plain))
    assert drawn == set(NodeKind)


_STEPS = ("conv", "down", "up", "asym", "prelu", "bn", "dropout", "add",
          "concat", "pad", "pool", "unpool")


@st.composite
def _built_graphs(draw):
    """A graph that GraphBuilder makes step by step from every node kind.
    Each step reads the value before it, so every node reaches the output,
    and an add or concat also reads any earlier value that fits, the input
    or the step's own source included, so values have shared readers.
    Stride-2 convolutions halve a value and stride-2 transposed ones double
    it; several unpools may read one pool's window codes, in one step or in
    steps far apart.  With no steps, the output reads the input."""
    b = GraphBuilder(Shape(3, 8, 8))
    vals = [(b.input_id, Shape(3, 8, 8))]
    pools = []  # (maxpool id, its output shape)
    for i in range(draw(st.integers(0, 12), label="steps")):
        src, (c, h, w) = vals[-1]
        step = draw(st.sampled_from(_STEPS), label="step")
        oc = draw(st.integers(1, 6), label="channels")
        same_hw = [v for v in vals if v[1][1:] == (h, w)]
        open_pools = [p for p in pools if p[1][1:] == (h, w)]
        if step == "conv":
            nid = b.conv(f"conv{i}", src, ConvParams(
                out_channels=oc, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1))
            shape = Shape(oc, h, w)
        elif step == "down" and h > 1 and w > 1:
            nid = b.conv(f"down{i}", src, ConvParams(
                out_channels=oc, kernel_h=3, kernel_w=3, stride=2, pad_h=1, pad_w=1))
            shape = Shape(oc, (h + 1) // 2, (w + 1) // 2)
        elif step == "up" and h <= 8:
            nid = b.conv_transpose(f"up{i}", src, ConvParams(
                out_channels=oc, kernel_h=3, kernel_w=3, stride=2, pad_h=1,
                pad_w=1, out_pad=1))
            shape = Shape(oc, 2 * h, 2 * w)
        elif step == "asym":
            nid, shape = b.asym_conv5(f"asym{i}", src, c), Shape(c, h, w)
        elif step == "add":
            other = draw(st.sampled_from([v for v, shp in vals if shp == (c, h, w)]))
            nid, shape = b.add(f"add{i}", src, other), Shape(c, h, w)
        elif step == "concat" and c <= 6:
            other, (oc, _, _) = draw(st.sampled_from(
                [v for v in same_hw if v[1].channels <= 6]))
            nid, shape = b.concat(f"cat{i}", src, other), Shape(c + oc, h, w)
        elif step == "pad" and c <= 6:
            nid, shape = b.pad_channels(f"pad{i}", src, c + oc), Shape(c + oc, h, w)
        elif step == "pool" and h % 2 == 0 and w % 2 == 0:
            nid, shape = b.maxpool(f"pool{i}", src), Shape(c, h // 2, w // 2)
            pools.append((nid, shape))
        elif step == "unpool" and open_pools:
            pool, pooled = draw(st.sampled_from(open_pools))
            if c != pooled.channels:
                src = b.conv(f"fit{i}", src, ConvParams(
                    out_channels=pooled.channels, kernel_h=1, kernel_w=1))
            nid = b.max_unpool(f"unpool{i}", src, pool)
            shape = Shape(pooled.channels, 2 * h, 2 * w)
            if draw(st.booleans(), label="unpool twice"):
                nid = b.add(f"both{i}", nid, b.max_unpool(f"again{i}", src, pool))
        elif step == "bn":
            nid, shape = b.batchnorm(f"bn{i}", src), Shape(c, h, w)
        elif step == "dropout":
            nid, shape = b.dropout(f"drop{i}", src), Shape(c, h, w)
        else:  # also any step whose precondition failed
            nid, shape = b.prelu(f"act{i}", src), Shape(c, h, w)
        vals.append((nid, shape))
    return b.build(vals[-1][0])


def test_plans_of_built_graphs_are_sound_and_runs_agree_bitwise():
    # every graph _built_graphs draws: _plan_faults finds nothing, and the
    # planned and poisoned runs give the unplanned run's bits, which also
    # shows that each pool's window codes live until its last unpool
    seen = set()

    @settings(max_examples=150)
    @given(g=_built_graphs(), seed=st.integers(0, 2**16))
    def check(g, seed):
        plan = plan_buffers(g)
        assert _plan_faults(g, plan) == []
        w = init_weights(g, seed=seed)
        x = np.random.default_rng(seed).random((3, 8, 8), dtype=F32) - 0.5
        plain = execute(g, w, x)
        for got in (execute(g, w, x, plan), execute(g, w, x, plan, poison=True)):
            np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))
        links = [n.index_link for n in g.nodes if n.kind is NodeKind.MAX_UNPOOL]
        strides = {(n.kind, n.conv.stride) for n in g.nodes if n.conv}
        readers = [src for n in g.nodes for src in n.inputs]
        facts = {
            "two unpools of one pool": len(links) > len(set(links)),
            "stride-2 conv and tconv": {(NodeKind.CONV, 2),
                                        (NodeKind.CONV_TRANSPOSE, 2)} <= strides,
            "a shared reader": len(readers) > len(set(readers)),
            "output reads the input": g.output_node.inputs == (g.input_node.id,),
        }
        seen.update(n.kind for n in g.nodes)
        seen.update(fact for fact, held in facts.items() if held)

    check()
    assert seen == set(NodeKind) | {
        "two unpools of one pool", "stride-2 conv and tconv", "a shared reader",
        "output reads the input"}


def _poison_shows(g, w, x, plan, plain):
    """Whether a poisoned run on `plan` gives an output other than `plain`,
    or a non-finite one, which execute refuses."""
    try:
        got = execute(g, w, x, plan, poison=True)
    except ExecutionError as e:
        return "non-finite" in str(e)
    return not np.array_equal(got, plain)


def test_poison_catches_a_value_moved_onto_a_live_inputs_bytes(monkeypatch):
    # a planner mutant: one value placed on the bytes of an input that a
    # later node still reads; poison mode must turn that into a wrong or
    # non-finite output.  execute runs only the plan stored with the graph,
    # so the mutant is stored in its place
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=1)
    x = np.random.default_rng(2).random((3, 64, 64), dtype=F32)
    plain = execute(g, w, x)
    plan = plan_buffers(g)
    shapes = infer_shapes(g)
    pos = {n.id: i for i, n in enumerate(g.nodes)}
    last_use = {}
    for n in g.nodes:
        for src in n.inputs:
            last_use[src] = pos[n.id]
    node, src = next(
        (n, src) for n in g.nodes if n.id in plan.offset_of for src in n.inputs
        if src in plan.offset_of and last_use[src] > pos[n.id]
        and shapes[n.id].count <= shapes[src].count)
    mutant = dataclasses.replace(
        plan, offset_of={**plan.offset_of, node.id: plan.offset_of[src]})
    assert _plan_faults(g, mutant)
    monkeypatch.setitem(vars(g), runtime._STORED, mutant)
    assert _poison_shows(g, w, x, mutant, plain), \
        f"{node.name} written over live {g.node(src).name} went unnoticed"


def test_poison_catches_an_elementwise_node_written_over_an_input_read_later(
        monkeypatch):
    # a planner mutant: a PReLU, add or batch norm put on the bytes of an
    # input that a later node still reads; it writes over that input, which
    # must show as a wrong or non-finite output
    b = GraphBuilder(Shape(4, 8, 8))
    c0 = b.conv("c0", b.input_id, ConvParams(out_channels=4, kernel_h=3,
                                             kernel_w=3, pad_h=1, pad_w=1))
    act = b.prelu("act", c0)
    bn = b.batchnorm("bn", c0)
    s = b.add("s", act, c0)
    c1 = b.conv("c1", b.add("t", s, bn), ConvParams(out_channels=4, kernel_h=1,
                                                     kernel_w=1))
    merged = b.add("merged", c1, c0)  # reads c0 after act, bn and s ran
    g = b.build(b.prelu("out", b.prelu("tail", merged)))
    w = init_weights(g, seed=4)
    x = np.random.default_rng(4).random((4, 8, 8), dtype=F32) - 0.5
    plain = execute(g, w, x)
    plan = plan_buffers(g)
    for node in ("act", "bn", "s"):
        nid = g.find(node).id
        assert plan.offset_of[nid] != plan.offset_of[c0]
        mutant = dataclasses.replace(
            plan, offset_of={**plan.offset_of, nid: plan.offset_of[c0]})
        assert _plan_faults(g, mutant)
        monkeypatch.setitem(vars(g), runtime._STORED, mutant)
        assert _poison_shows(g, w, x, mutant, plain), \
            f"{node} written over live c0 went unnoticed"


def test_the_output_producers_input_placed_in_the_buffer_holds_it_to_the_end(
        monkeypatch):
    # a planner mutant: fullconv's input given bytes of its own past the end
    # of the buffer; execute follows the plan's offsets, so the bits stay,
    # poisoned or not, but the buffer lives until fullconv has read that
    # input, beside the logits, and the peak grows past the plan's figure
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=1)
    x = np.random.default_rng(2).random((3, 64, 64), dtype=F32)
    plan = plan_buffers(g)
    src = g.find("fullconv").inputs[0]
    mutant = dataclasses.replace(
        plan, offset_of={**plan.offset_of, src: plan.peak_bytes},
        peak_bytes=plan.peak_bytes + infer_shapes(g)[src].count * 4)
    held = (mutant.peak_bytes + infer_shapes(g)[g.find("fullconv").id].count * 4
            + 8 * plan.band_of[g.find("fullconv").id])
    assert _plan_faults(g, mutant) == [
        "bottleneck5.1.prelu has an offset",
        f"frame_peak_bytes is below the {held} bytes held while fullconv runs"]

    def traced(p):
        tracemalloc.start()
        try:
            return execute(g, w, x, p), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, peak = traced(plan)
    monkeypatch.setitem(vars(g), runtime._STORED, mutant)
    got, mutant_peak = traced(mutant)
    np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))
    np.testing.assert_array_equal(
        execute(g, w, x, mutant, poison=True).view(np.int32), plain.view(np.int32))
    assert mutant_peak > peak


def test_execute_accepts_a_plan_made_for_an_equal_graph():
    g = build_enet(4, 64, 64)
    w = init_weights(g, seed=0)
    x = np.random.default_rng(9).random((3, 64, 64), dtype=F32)
    twin = build_enet(4, 64, 64)
    assert twin is not g and twin == g
    np.testing.assert_array_equal(execute(g, w, x, plan_buffers(twin)),
                                  execute(g, w, x))


@pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
def test_execute_derives_shapes_and_plan_once(monkeypatch, planned):
    # the plan is derived once per Graph, by whichever of plan_buffers and
    # execute asks first, and never per execute; validate and infer_shapes
    # stay runtime globals, where a tracer wrapping them times each once a
    # frame, the frame that derives the plan included
    g = build_enet(5, 32, 32)
    w = init_weights(g, seed=0)
    calls = []
    for name in ("validate", "infer_shapes", "_plan"):
        def counting(*args, real=getattr(runtime, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(runtime, name, counting)
    plan = plan_buffers(g) if planned else None
    assert calls == (["_plan"] if planned else [])
    x = np.zeros((3, 32, 32), dtype=F32)
    for given in (plan, None, plan):
        execute(g, w, x, given)
    assert sorted(calls) == ["_plan"] + ["infer_shapes"] * 3 + ["validate"] * 3
    assert plan is None or plan_buffers(g) is plan


# the kernel each compute node's kind runs, by its name in runtime
KERNEL_OF = {
    NodeKind.CONV: "conv2d", NodeKind.CONV_TRANSPOSE: "conv_transpose2d",
    NodeKind.ASYM_CONV5: "conv_asymmetric5", NodeKind.MAXPOOL: "maxpool2x2",
    NodeKind.MAX_UNPOOL: "max_unpool2x2", NodeKind.BATCHNORM: "batchnorm_infer",
    NodeKind.PRELU: "prelu", NodeKind.ADD: "add",
    NodeKind.CONCAT: "concat_channels", NodeKind.PAD_CHANNELS: "pad_channels",
    NodeKind.DROPOUT: "spatial_dropout_infer",
}


@pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
@pytest.mark.parametrize("fused,compute_nodes", [(True, 203), (False, 313)],
                         ids=["fused", "unfused"])
def test_execute_calls_one_kernel_global_per_compute_node_in_order(
        monkeypatch, planned, fused, compute_nodes):
    # perfbench times every function runtime imports from another enetcpu
    # module by wrapping that module global, and gives the k-th kernel span
    # of a frame to the k-th compute node; validate and infer_shapes must
    # each be one span of every frame, the one that derives the plan too
    g = build_enet(19, 16, 32)
    w = init_weights(g, seed=0)
    if fused:
        g, w, _ = optimize(g, w)
    imported = {attr: obj.__module__ for attr, obj in vars(runtime).items()
                if callable(obj) and not isinstance(obj, type)
                and obj.__module__.startswith("enetcpu.")
                and obj.__module__ != runtime.__name__}
    assert {attr for attr, mod in imported.items()
            if mod != "enetcpu.kernels"} == {"validate", "infer_shapes"}
    assert {a for a, mod in imported.items()
            if mod == "enetcpu.kernels"} == set(KERNEL_OF.values())
    calls = []
    for attr in imported:
        def counting(*args, real=getattr(runtime, attr), attr=attr, **kw):
            calls.append(attr)
            return real(*args, **kw)
        monkeypatch.setattr(runtime, attr, counting)
    plan = plan_buffers(g) if planned else None
    calls.clear()
    execute(g, w, np.zeros((3, 16, 32), dtype=F32), plan)
    compute = [n for n in g.nodes
               if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)]
    assert len(compute) == compute_nodes
    assert [c for c in calls if c in KERNEL_OF.values()] == [
        KERNEL_OF[n.kind] for n in compute]
    assert sorted(c for c in calls if c not in KERNEL_OF.values()) == [
        "infer_shapes", "validate"]


def test_a_plan_is_stored_read_only():
    g = build_enet(5, 32, 32)
    plan = plan_buffers(g)
    assert plan_buffers(g) is plan
    with pytest.raises(TypeError):
        plan.offset_of[next(iter(plan.offset_of))] = 0
    with pytest.raises(TypeError):
        plan.band_of[next(iter(plan.band_of))] = 0


def test_liveness_is_recorded_once_per_graph_and_never_per_execute(monkeypatch):
    # a Graph records its last readers when it is made; plan_buffers and
    # every execute, planned or not, read that one stored map
    made = []
    real_init = graph.Graph.__post_init__
    monkeypatch.setattr(graph.Graph, "__post_init__",
                        lambda g: made.append(g) or real_init(g))
    g = build_enet(5, 32, 32)
    w = init_weights(g, seed=0)
    fused, fw, _ = optimize(g, w)
    assert made == [g, fused]  # optimize builds one graph
    stored = {id(graph.last_readers(h)) for h in (g, fused)}
    with pytest.raises(TypeError):
        graph.last_readers(g)[0] = 0
    # the plan too is derived once per Graph, from that stored map
    planned, read = [], []
    real_plan, real_readers = runtime._plan, graph.last_readers
    monkeypatch.setattr(runtime, "_plan",
                        lambda h: planned.append(h) or real_plan(h))
    monkeypatch.setattr(graph, "last_readers",
                        lambda h: read.append(real_readers(h)) or read[-1])
    plan = plan_buffers(fused)
    x = np.random.default_rng(3).random((3, 32, 32), dtype=F32)
    for args in ((g, w, x), (fused, fw, x, plan), (fused, fw, x), (g, w, x)):
        execute(*args)
    assert made == [g, fused] and planned == [fused, g]
    assert len(read) == 6 and {id(m) for m in read} == stored


def test_shapes_are_walked_once_per_graph_and_never_per_execute(monkeypatch):
    walks = []
    real = graph._shape_walk
    monkeypatch.setattr(graph, "_shape_walk", lambda g: walks.append(g) or real(g))
    g = build_enet(5, 32, 32)
    assert len(walks) == 1
    w = init_weights(g, seed=0)
    fused, fw, _ = optimize(g, w)
    assert len(walks) == 2  # optimize builds one graph
    plan = plan_buffers(fused)
    x = np.random.default_rng(3).random((3, 32, 32), dtype=F32)
    for args in ((g, w, x), (fused, fw, x, plan), (fused, fw, x)):
        execute(*args)
    assert len(walks) == 2


def test_weight_shapes_are_derived_once_per_graph_and_never_per_execute(
        monkeypatch):
    # the graph stores them when it is made; validate, the analyzer and
    # init_weights read them
    derived = []
    real = graph._weight_shape_walk
    monkeypatch.setattr(graph, "_weight_shape_walk",
                        lambda g: derived.append(g) or real(g))
    g = build_enet(5, 32, 32)
    assert derived == [g]
    w = init_weights(g, seed=0)
    count_params(g), count_flops(g), model_size_fp16(g)
    fused, fw, _ = optimize(g, w)
    assert derived == [g, fused]
    plan = plan_buffers(fused)
    x = np.random.default_rng(3).random((3, 32, 32), dtype=F32)
    for args in ((g, w, x), (fused, fw, x, plan), (fused, fw, x)):
        execute(*args)
    assert derived == [g, fused]
    assert expected_weight_shapes(g) is expected_weight_shapes(g)
    with pytest.raises(TypeError):
        expected_weight_shapes(g)["initial.conv.weight"] = (1,)


def test_execute_returns_a_fresh_array_when_the_output_reads_the_input():
    b = GraphBuilder(Shape(2, 4, 4))
    g = b.build(b.input_id)
    w = init_weights(g, seed=0)
    x = np.random.default_rng(3).random((2, 4, 4), dtype=F32)
    plan = plan_buffers(g)
    assert plan.offset_of == {} and plan.peak_bytes == 0
    for p in (None, plan):
        got = execute(g, w, x, p)
        assert not np.shares_memory(got, x)
        np.testing.assert_array_equal(got, x)


def test_planned_execute_peak_is_the_arena_the_output_and_scratch():
    # tracemalloc peak of one planned fused 3x360x640 execute: the buffer,
    # the returned logits, and at most 8 MB of kernel scratch and pooling
    # indices on top
    g = build_enet(19, 360, 640)
    g, w, _ = optimize(g, init_weights(g, seed=0))
    plan = plan_buffers(g)
    x = np.random.default_rng(4).random((3, 360, 640), dtype=F32)
    tracemalloc.start()
    try:
        logits = execute(g, w, x, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.peak_bytes == plan.live_bytes
    assert peak <= plan.peak_bytes + logits.nbytes + 8 * 10**6, peak / 1e6


@pytest.mark.parametrize("fused,h,w", [(True, 360, 640), (False, 128, 256)],
                         ids=["fused-360x640", "unfused-128x256"])
def test_planned_execute_peak_is_at_most_the_unplanned_peak(fused, h, w):
    # the buffer is freed before fullconv runs, so while it runs only its
    # input (a fresh array, never in the buffer), the logits and one band of
    # convolution scratch are held; fullconv has no headroom under that
    # value peak, so its band is one row: 16 im2col rows of its one tap per
    # phase, the bias's ones row and a 19-row accumulator, w/2 wide, with
    # numpy's cast buffers on top.  Every earlier band fills the headroom
    # under the same peak
    g = build_enet(19, h, w)
    weights = init_weights(g, seed=0)
    if fused:
        g, weights, _ = optimize(g, weights)
    plan = plan_buffers(g)
    x = np.random.default_rng(4).random((3, h, w), dtype=F32)
    peaks = {}
    for name, p in (("planned", plan), ("unplanned", None)):
        tracemalloc.start()
        try:
            logits = execute(g, weights, x, p)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    producer = g.node(g.output_node.inputs[0])
    assert producer.name == "fullconv"
    fullconv_input = infer_shapes(g)[producer.inputs[0]].count * 4
    assert peaks["planned"] <= 1.01 * peaks["unplanned"], peaks
    row = (16 + 1 + 19) * (w // 2)
    assert plan.band_of[producer.id] == row
    assert peaks["planned"] <= (logits.nbytes + fullconv_input
                                + row * 8 + 2**17), peaks


@pytest.mark.parametrize("planned", [True, False], ids=["planned", "unplanned"])
@pytest.mark.parametrize("fused,h,w", [(True, 360, 640), (False, 128, 256)],
                         ids=["fused-360x640", "unfused-128x256"])
def test_plan_frame_peak_is_the_measured_execute_peak(fused, h, w, planned):
    # the plan's figure counts values, window codes and band budgets; what it
    # leaves out (strip temporaries, weight casts, numpy's cast buffers) and
    # bands smaller than their budget keep it within 5% of tracemalloc's peak.
    # Unplanned, every value is a fresh array, banded by the same budgets
    g = build_enet(19, h, w)
    weights = init_weights(g, seed=0)
    if fused:
        g, weights, _ = optimize(g, weights)
    plan = plan_buffers(g)
    x = np.random.default_rng(4).random((3, h, w), dtype=F32)
    tracemalloc.start()
    try:
        execute(g, weights, x, plan if planned else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(plan.frame_peak_bytes - peak) <= 0.05 * peak, (
        plan.frame_peak_bytes / 1e6, peak / 1e6)


def test_execute_through_pool_unpool_with_retained_indices():
    for seed in range(10):
        b = GraphBuilder(Shape(4, 8, 8))
        pre = b.conv("pre", b.input_id,
                     ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
        pool = b.maxpool("pool", pre)
        mid = b.conv("mid", pool, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
        up = b.max_unpool("up", mid, pool)
        merged = b.add("merge", pre, up)  # forces `pre` to stay live across the dip
        out = b.prelu("out", merged)
        g = b.build(out)
        w = init_weights(g, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.random((4, 8, 8), dtype=F32)
        plain = execute(g, w, x)
        planned = execute(g, w, x, plan_buffers(g))
        np.testing.assert_array_equal(plain, planned)


def test_plan_frame_peak_counts_window_codes_and_the_asymmetric_intermediate():
    # values of 4x8x8 (1 KiB) and 4x4x4 (256 B) float32; the pool's uint8
    # codes (64 B) live until the unpool, and the 5x1 pass's 4x4x4 output is
    # held while the 1x5 pass runs.  `mid` has no headroom above one row of
    # its band, (4*5 + 4) * 4 float64 elements in either pass, so the
    # figure is what it holds plus that row: the buffer, the codes, the
    # intermediate and 768 bytes of band
    b = GraphBuilder(Shape(4, 8, 8))
    pre = b.conv("pre", b.input_id,
                 ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    pool = b.maxpool("pool", pre)
    mid = b.asym_conv5("mid", pool, 4)
    up = b.max_unpool("up", mid, pool)
    g = b.build(b.prelu("out", b.add("merge", pre, up)))
    plan = plan_buffers(g)
    assert set(plan.band_of) == {pre, mid}
    assert plan.band_of[mid] == (4 * 5 + 4) * 4
    assert plan.frame_peak_bytes == plan.peak_bytes + 64 + 256 + 8 * 96


def test_window_codes_live_until_the_last_unpool_that_reads_them():
    # two unpools read one pool's codes; freeing them after the first would
    # make the second fail, so every mode must run and agree bit for bit
    b = GraphBuilder(Shape(4, 8, 8))
    pre = b.conv("pre", b.input_id,
                 ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    pool = b.maxpool("pool", pre)
    mid = b.conv("mid", pool, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    up1 = b.max_unpool("up1", pool, pool)
    up2 = b.max_unpool("up2", mid, pool)
    g = b.build(b.prelu("out", b.add("merge", up1, up2)))
    w = init_weights(g, seed=0)
    x = np.random.default_rng(7).random((4, 8, 8), dtype=F32)
    plan = plan_buffers(g)
    assert plan.retained == {pool}
    plain = execute(g, w, x)
    for got in (execute(g, w, x, plan), execute(g, w, x, plan, poison=True)):
        np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))


def test_window_codes_outlive_the_buffer_when_an_unpool_makes_the_output():
    # the output's producer runs after the buffer is freed; the codes it
    # reads live outside the buffer and must still be there
    b = GraphBuilder(Shape(4, 8, 8))
    pre = b.conv("pre", b.input_id,
                 ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    pool = b.maxpool("pool", pre)
    mid = b.conv("mid", pool, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    g = b.build(b.max_unpool("up", mid, pool))
    w = init_weights(g, seed=0)
    x = np.random.default_rng(8).random((4, 8, 8), dtype=F32)
    plan = plan_buffers(g)
    plain = execute(g, w, x)
    for got in (execute(g, w, x, plan), execute(g, w, x, plan, poison=True)):
        np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))


def _random_graph_ending_in_two_buffered_inputs(seed):
    """A seeded random chain over convolutions, transposed convolutions,
    maxpool/unpool pairs, concat, pad_channels, PReLU and add, each node
    reading the one before it and sometimes an earlier value too.  The output
    producer reads two values from the buffer: add(a, b), concat(a, b) or
    add(v, v), by seed."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(Shape(3, 8, 8))
    vals = [(b.conv("c0", b.input_id,
                    ConvParams(out_channels=4, kernel_h=1, kernel_w=1)), Shape(4, 8, 8))]
    pools = []  # (maxpool id, its output shape)
    for i in range(int(rng.integers(4, 14))):
        src, (c, h, w) = vals[-1]
        op = int(rng.integers(0, 8))
        open_pools = [p for p in pools if p[1][1:] == (h, w)]
        if op == 0 or c > 12:
            oc = int(rng.integers(2, 7))
            nid = b.conv(f"conv{i}", src, ConvParams(out_channels=oc, kernel_h=3,
                                                     kernel_w=3, pad_h=1, pad_w=1))
            shape = Shape(oc, h, w)
        elif op == 1 and h <= 8:
            oc = int(rng.integers(2, 7))
            nid = b.conv_transpose(f"up{i}", src, ConvParams(
                out_channels=oc, kernel_h=3, kernel_w=3, stride=2, pad_h=1,
                pad_w=1, out_pad=1))
            shape = Shape(oc, 2 * h, 2 * w)
        elif op == 2 and h >= 4:
            nid = b.maxpool(f"pool{i}", src)
            shape = Shape(c, h // 2, w // 2)
            pools.append((nid, shape))
        elif op in (3, 7) and open_pools:
            pool, pooled = open_pools[int(rng.integers(0, len(open_pools)))]
            if c != pooled.channels:
                src = b.conv(f"fit{i}", src, ConvParams(out_channels=pooled.channels,
                                                        kernel_h=1, kernel_w=1))
            nid = b.max_unpool(f"unpool{i}", src, pool)
            shape = Shape(pooled.channels, 2 * h, 2 * w)
        elif op == 4:
            same_hw = [v for v in vals if v[1][1:] == (h, w)]
            other, other_shape = same_hw[int(rng.integers(0, len(same_hw)))]
            nid = b.concat(f"cat{i}", src, other)
            shape = Shape(c + other_shape.channels, h, w)
        elif op == 5:
            shape = Shape(c + int(rng.integers(1, 4)), h, w)
            nid = b.pad_channels(f"pad{i}", src, shape.channels)
        elif op == 6:
            same = [v for v, shp in vals if shp == (c, h, w)]
            nid = b.add(f"add{i}", src, same[int(rng.integers(0, len(same)))])
            shape = Shape(c, h, w)
        else:
            nid, shape = b.prelu(f"act{i}", src), Shape(c, h, w)
        vals.append((nid, shape))

    last, shape = vals[-1]
    if seed % 3 == 2:
        return b.build(b.add("final", last, last))
    others = [v for v, shp in vals[:-1] if shp == shape] or [b.prelu("tail", last)]
    other = others[int(rng.integers(0, len(others)))]
    return b.build((b.add if seed % 3 == 0 else b.concat)("final", last, other))


def test_planned_equals_unplanned_when_the_output_producer_reads_the_buffer():
    # every output producer here reads two values (or one twice) that would
    # otherwise live in the buffer; the plan keeps them out of it, so the
    # buffer is freed before the producer runs, and the planned and poisoned
    # runs still match the unplanned one bit for bit
    kinds = set()
    for seed in range(40):
        g = _random_graph_ending_in_two_buffered_inputs(seed)
        kinds |= {n.kind for n in g.nodes}
        plan = plan_buffers(g)
        assert _plan_faults(g, plan) == []
        producer = g.node(g.output_node.inputs[0])
        assert not any(src in plan.offset_of for src in producer.inputs)
        assert len(set(producer.inputs)) == (1 if seed % 3 == 2 else 2)
        w = init_weights(g, seed=seed)
        x = np.random.default_rng(200 + seed).random((3, 8, 8), dtype=F32)
        plain = execute(g, w, x)
        assert np.all(np.isfinite(plain))
        for got in (execute(g, w, x, plan), execute(g, w, x, plan, poison=True)):
            np.testing.assert_array_equal(got.view(np.int32), plain.view(np.int32))
    assert {NodeKind.MAXPOOL, NodeKind.MAX_UNPOOL, NodeKind.CONCAT,
            NodeKind.PAD_CHANNELS, NodeKind.CONV_TRANSPOSE, NodeKind.ADD} <= kinds


def test_a_node_stored_after_the_output_producer_is_refused():
    # `late` reads a value the output producer also reads, so a planned run
    # would drop the buffer while it is still to run; the graph refuses it
    # when it is made, so no execute, planned, poisoned or not, ever sees it
    b = GraphBuilder(Shape(4, 8, 8))
    a = b.conv("a", b.input_id, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    act = b.prelu("act", a)
    b.conv("late", a, ConvParams(out_channels=4, kernel_h=1, kernel_w=1))
    with pytest.raises(ValidationError,
                       match=r"^node 3 \(late\) does not contribute to the output$"):
        b.build(act)


def test_transposed_conv_with_unequal_pads_has_the_inferred_shape():
    b = GraphBuilder(Shape(2, 4, 4))
    up = b.conv_transpose("up", b.input_id,
                          ConvParams(out_channels=2, kernel_h=3, kernel_w=3, stride=2,
                                     pad_h=1, pad_w=0, out_pad=1))
    g = b.build(up)
    assert tuple(infer_shapes(g)[up]) == (2, 8, 10)
    w = init_weights(g, seed=0)
    x = np.random.default_rng(1).random((2, 4, 4), dtype=F32)
    plain = execute(g, w, x)
    np.testing.assert_array_equal(plain, execute(g, w, x, plan_buffers(g)))
    want = ref_conv_transpose2d(x, w["up.weight"], stride=2, pad=1, out_pad=1, pad_w=0)
    assert plain.shape == want.shape
    assert np.max(np.abs(plain - want)) <= 1e-6


def test_execute_full_enet_planned_poisoned_and_plain_agree():
    g = build_enet(5, 64, 64)
    w = init_weights(g, seed=1)
    rng = np.random.default_rng(2)
    x = rng.random((3, 64, 64), dtype=F32)
    plain = execute(g, w, x)
    planned = execute(g, w, x, plan_buffers(g))
    poisoned = execute(g, w, x, plan_buffers(g), poison=True)
    np.testing.assert_array_equal(plain, planned)
    np.testing.assert_array_equal(plain, poisoned)
    assert plain.shape == (5, 64, 64)
    assert np.all(np.isfinite(plain))


def test_execute_is_deterministic_across_runs():
    g = build_enet(4, 64, 64)
    w = init_weights(g, seed=3)
    rng = np.random.default_rng(4)
    x = rng.random((3, 64, 64), dtype=F32)
    runs = [execute(g, w, x, plan_buffers(g)) for _ in range(3)]
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[1], runs[2])


def test_execute_rejects_wrong_input_shape_and_bad_store():
    g = build_enet(4, 64, 64)
    w = init_weights(g, seed=0)
    with pytest.raises(ExecutionError, match="input"):
        execute(g, w, np.zeros((3, 32, 32), dtype=F32))
    bad = dict(w)
    del bad["fullconv.bias"]
    with pytest.raises(ExecutionError, match="validation"):
        execute(g, bad, np.zeros((3, 64, 64), dtype=F32))


def test_execute_rejects_a_plan_made_for_another_graph():
    g = build_enet(4, 64, 64)
    w = init_weights(g, seed=0)
    x = np.zeros((3, 64, 64), dtype=F32)
    with pytest.raises(ExecutionError, match="plan's offset_of differs"):
        execute(g, w, x, plan_buffers(build_enet(4, 32, 32)))
    with pytest.raises(ExecutionError, match="plan's offset_of differs"):
        execute(g, w, x, plan_buffers(_chain_graph()))
    plan = plan_buffers(g)
    edited = dataclasses.replace(plan, frame_peak_bytes=plan.frame_peak_bytes + 1)
    with pytest.raises(ExecutionError, match="plan's frame_peak_bytes differs"):
        execute(g, w, x, edited)


def test_execute_refuses_a_plan_that_places_the_output_producer():
    # the plan keeps the producer out of the buffer, so the buffer is freed
    # before the producer runs and its output is the array returned; a
    # hand-made plan that gives it an offset is refused up front, naming
    # the field that differs
    g = _chain_graph()
    w = init_weights(g, seed=0)
    plan = plan_buffers(g)
    mutant = dataclasses.replace(
        plan, offset_of={**plan.offset_of, g.find("c2").id: 0})
    assert _plan_faults(g, mutant)
    with pytest.raises(ExecutionError, match="plan's offset_of differs"):
        execute(g, w, np.zeros((4, 8, 8), dtype=F32), mutant)


def test_execute_refuses_a_plan_whose_live_values_share_bytes():
    # a hand-made plan that moves the first stage-1 expansion onto the bytes
    # of the entry block's PReLU, which its bottleneck's add still reads;
    # trusted, it returned finite logits that were wrong, with no error
    g, w, _ = optimize(build_enet(5, 32, 32),
                       init_weights(build_enet(5, 32, 32), seed=0))
    plan = plan_buffers(g)
    moved, host = g.find("bottleneck1.0.ext.expand").id, g.find("initial.prelu").id
    assert plan.offset_of[moved] != plan.offset_of[host]
    mutant = dataclasses.replace(
        plan, offset_of={**plan.offset_of, moved: plan.offset_of[host]})
    assert _plan_faults(g, mutant)
    x = np.random.default_rng(7).random((3, 32, 32), dtype=F32)
    with pytest.raises(ExecutionError, match="plan's offset_of differs"):
        execute(g, w, x, mutant)


@pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
def test_execute_rejects_non_finite_input_and_counts_it(planned):
    g = build_enet(5, 32, 32)
    w = init_weights(g, seed=0)
    plan = plan_buffers(g) if planned else None
    x = np.random.default_rng(5).random((3, 32, 32), dtype=F32)
    x[0, 3, 4] = np.nan
    with pytest.raises(ExecutionError, match="1 non-finite"):
        execute(g, w, x, plan)
    x[2, 0, 0], x[1, 31, 31] = np.inf, -np.inf
    with pytest.raises(ExecutionError, match="3 non-finite"):
        execute(g, w, x, plan)
    # finite float64 values beyond float32's range are named as such, and
    # the cast that finds them warns of nothing
    wide = x.astype(np.float64)
    wide[0, 0, 1], wide[1, 2, 3] = 1e39, -1e300
    with pytest.raises(ExecutionError, match=r"input holds 3 non-finite value\(s\) "
                       r"\(NaN or infinity\) and 2 finite value\(s\) beyond the "
                       r"float32 range$"):
        execute(g, w, wide, plan)
    wide[np.isinf(wide) | np.isnan(wide)] = 0.0
    with pytest.raises(ExecutionError, match=r"input holds 2 finite value\(s\) "
                       r"beyond the float32 range$"):
        execute(g, w, wide, plan)


def test_planned_kernels_share_bytes_only_with_the_input_they_write_over(
        monkeypatch):
    # wrap runtime's kernel globals, as a tracer would, and check every call
    # of a planned 19-class graph, fused and unfused: `out` shares no byte
    # with any input, unless it covers exactly the first input of an
    # elementwise kernel (either addend of add): the same data pointer,
    # shape and strides
    over = {"prelu": 1, "add": 2, "batchnorm_infer": 1, "spatial_dropout_infer": 1}
    calls = []

    def same_bytes(a, b):
        return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
                and a.shape == b.shape and a.strides == b.strides)

    def watch(fn):
        def wrapped(*args, **kwargs):
            out = kwargs.get("out")
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            shared = [k for k, a in enumerate(arrays)
                      if out is not None and np.shares_memory(out, a)]
            calls.append((fn.__name__, out is not None and all(
                same_bytes(arrays[k], out) and k < over.get(fn.__name__, 0)
                for k in shared), bool(shared)))
            res = fn(*args, **kwargs)
            value = res.values if isinstance(res, kernels.PoolResult) else res
            assert value is out, fn.__name__
            return res
        return wrapped

    for name, obj in list(vars(runtime).items()):
        if getattr(obj, "__module__", "") == kernels.__name__ and \
                not isinstance(obj, type):
            monkeypatch.setattr(runtime, name, watch(obj))
    g = build_enet(19, 64, 64)
    w = init_weights(g, seed=6)
    x = np.random.default_rng(7).random((3, 64, 64), dtype=F32)
    # fusing leaves one batch norm (the initial block's) and no dropout
    for (graph, weights), in_place in (
            ((g, w), set(over)),
            (optimize(g, w)[:2], set(over) - {"spatial_dropout_infer"})):
        calls.clear()
        execute(graph, weights, x, plan_buffers(graph))
        compute = [n for n in graph.nodes
                   if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)]
        assert len(calls) == len(compute)
        assert all(ok for _, ok, _ in calls), [c for c in calls if not c[1]][:5]
        assert {name for name, _, shared in calls if shared} == in_place


# ---------------------------------------------------------------------------
# labels

def test_argmax_labels_tie_breaks_low_and_matches_scan():
    tie = np.zeros((3, 2, 2), dtype=F32)
    np.testing.assert_array_equal(argmax_labels(tie), np.zeros((2, 2), dtype=np.int64))

    rng = np.random.default_rng(5)
    logits = rng.random((7, 9, 11), dtype=F32)
    got = argmax_labels(logits)
    assert got.shape == (9, 11) and got.dtype == np.int64
    for y in range(9):
        for x in range(11):
            best = 0
            for c in range(1, 7):
                if logits[c, y, x] > logits[best, y, x]:
                    best = c
            assert got[y, x] == best


def test_argmax_labels_needs_two_classes():
    with pytest.raises(ShapeError):
        argmax_labels(np.zeros((1, 4, 4), dtype=F32))

