"""The convolution GEMM lowering against its former self, and its scratch.

reference.padded_conv2d and reference.padded_conv_transpose2d are the
engine's previous conv2d and conv_transpose2d: an np.pad copy of the input,
one im2col per transposed-conv phase, each lowered by
reference.sliding_conv_gemm (one 5-D transposed im2col copy out of a
sliding-window view, the bias added to the float64 accumulator after the
GEMM).  Every conv, transposed-conv and asymmetric node of the fused and
unfused build_enet(19, 64, 128) graphs, with seeded non-trivial weights, is
run by the engine and again with those oracles swapped in, on the node's
real input; the float32 outputs must agree bit for bit.  fullconv's four
phases, which share one im2col in the engine, are each checked against
their own.  The engine runs at each of BUDGETS: the band the kernels
once took by default, the one before it, and one so small that every
network conv runs in many bands.  Each budget reaches the kernels the way
a plan's budgets do, as the band execute hands each conv node, in place of
the plan's own.
The check runs in a fresh interpreter per BLAS thread count, because
OpenBLAS reads OPENBLAS_NUM_THREADS once at load time.

Run this file directly to print, per budget and graph, the nodes checked
and the nodes that disagreed, as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enetcpu import kernels, runtime
from enetcpu.graph import GraphBuilder, NodeKind, build_enet, init_weights
from enetcpu.kernels import ConvParams, conv2d, conv_transpose2d
from enetcpu.passes import optimize
from enetcpu.runtime import execute, plan_buffers
from enetcpu.tensor import Shape
from reference import (
    padded_conv2d,
    padded_conv_transpose2d,
    rand_bias,
    rand_conv_weight,
    rand_input,
    rand_tconv_weight,
)
from test_golden import _perturbed_weights

CONV_KINDS = (NodeKind.CONV, NodeKind.CONV_TRANSPOSE, NodeKind.ASYM_CONV5)


def _graphs():
    g = build_enet(num_classes=19, input_h=64, input_w=128)
    weights = _perturbed_weights(g, seed=0)
    fg, fw, _ = optimize(g, weights)
    return {"fused": (fg, fw), "unfused": (g, weights)}


# the kernels' former default bands, 2 MiB and 4 MiB (reference.SLIDING_BAND),
# and a budget that splits every network conv into bands of a few rows
BUDGETS = (1 << 18, 1 << 19, 1 << 12)


def _bandless(fn):
    """A former kernel that takes, and ignores, the engine's band keyword."""
    def former(*args, band=None, **kwargs):
        return fn(*args, **kwargs)
    return former


def oracle_report():
    """Per engine band budget and graph, the convolution nodes run and those
    whose output differs from the former kernels'."""
    x = np.random.default_rng(5).random((3, 64, 128), dtype=np.float32)
    node_value = runtime._node_value
    former = {(runtime, "conv2d"): _bandless(padded_conv2d),
              (runtime, "conv_transpose2d"): _bandless(padded_conv_transpose2d),
              # conv_asymmetric5's passes
              (kernels, "conv2d"): _bandless(padded_conv2d)}
    engine = {key: getattr(*key) for key in former}
    report = {}
    for budget in BUDGETS:
        report[budget] = {}
        for name, (g, weights) in _graphs().items():
            checked, differ = [], []

            def checked_node_value(n, weights, vals, out, band):
                got = node_value(n, weights, vals, out,
                                 budget if n.kind in CONV_KINDS else band)
                if n.kind in CONV_KINDS:
                    for (module, attr), fn in former.items():
                        setattr(module, attr, fn)
                    try:
                        want = node_value(n, weights, vals, None, None)
                    finally:
                        for (module, attr), fn in engine.items():
                            setattr(module, attr, fn)
                    checked.append(n.name)
                    if not np.array_equal(got.view(np.uint32), want.view(np.uint32)):
                        differ.append(n.name)
                return got

            runtime._node_value = checked_node_value
            try:
                execute(g, weights, x, plan_buffers(g))
            finally:
                runtime._node_value = node_value
            report[budget][name] = {"checked": checked, "differ": differ}
    return report


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_network_conv_matches_the_former_lowering(threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(map(int, report)) == sorted(BUDGETS)
    for name, (g, _) in _graphs().items():
        convs = [n.name for n in g.nodes if n.kind in CONV_KINDS]
        assert {n.kind for n in g.nodes} >= set(CONV_KINDS)
        for budget in BUDGETS:
            got = report[str(budget)][name]
            assert sorted(got["checked"]) == sorted(convs), (budget, name)
            assert got["differ"] == [], (budget, name)


# (transposed, ic, oc, kh, kw, stride, pad, h, w, budget): the largest
# biased network shapes at a 2 MiB budget, and small ones whose rows fit a
# small budget a few at a time
SCRATCH_CASES = [
    (False, 32, 32, 3, 3, 1, 1, 45, 80, 1 << 18),   # stage 2/3 3x3, K = 288 + 1
    (False, 32, 128, 1, 1, 1, 0, 45, 80, 1 << 18),  # stage 2/3 1x1 expansion
    (False, 3, 13, 3, 3, 2, 1, 360, 640, 1 << 18),  # the initial conv
    (True, 16, 19, 2, 2, 2, 0, 180, 320, 1 << 18),  # fullconv
    (False, 16, 16, 3, 3, 1, 1, 20, 30, 20000),
    (True, 16, 19, 2, 2, 2, 0, 24, 40, 5000),
    (True, 8, 6, 3, 3, 2, 1, 11, 13, 2000),
]


@pytest.mark.parametrize("case", SCRATCH_CASES,
                         ids=[str(i) for i in range(len(SCRATCH_CASES))])
def test_band_scratch_with_bias_row_stays_within_the_budget(monkeypatch, case):
    tr, ic, oc, kh, kw, s, pad, h, w, budget = case
    bands = []
    im2col = kernels._im2col

    def recording_im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones):
        cols = im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones)
        bands.append((x.shape[0] * kh * kw, cols.shape))
        return cols

    monkeypatch.setattr(kernels, "_im2col", recording_im2col)
    rng = np.random.default_rng(sum(case[1:9]))
    x = rand_input(rng, ic, h, w)
    bias = rand_bias(rng, oc)
    p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw, stride=s,
                   pad_h=pad, pad_w=pad, out_pad=int(tr and pad > 0),
                   has_bias=True)
    if tr:
        conv_transpose2d(x, rand_tconv_weight(rng, ic, oc, kh, kw), bias, p,
                         band=budget)
    else:
        conv2d(x, rand_conv_weight(rng, oc, ic, kh, kw), bias, p, band=budget)
    assert len(bands) > (s * s if tr else 1)  # some window ran in several bands
    for taps, (k, n) in bands:
        assert k == taps + 1  # the ones row that takes the bias
        assert (k + oc) * n <= budget, (k, oc, n, budget)


def _bands_of_execute(monkeypatch, g, weights, plan):
    """Run execute and return, for each im2col band a convolution built,
    (node, the band execute gave it, GEMM rows, im2col shape, output rows)."""
    running, gemm_rows, bands = [], [], []
    node_value = runtime._node_value
    conv_gemm, im2col = kernels._conv_gemm, kernels._im2col

    def recording_node_value(n, weights, vals, out, band):
        running.append((n, band))
        return node_value(n, weights, vals, out, band)

    def recording_conv_gemm(x, top, left, kh, kw, stride, dilation, gemms, bias,
                            band=None):
        gemm_rows.append(gemms[0][1].shape[0])
        return conv_gemm(x, top, left, kh, kw, stride, dilation, gemms, bias, band)

    def recording_im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones):
        cols = im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones)
        bands.append((*running[-1], gemm_rows[-1], cols.shape, oh))
        return cols

    monkeypatch.setattr(runtime, "_node_value", recording_node_value)
    monkeypatch.setattr(kernels, "_conv_gemm", recording_conv_gemm)
    monkeypatch.setattr(kernels, "_im2col", recording_im2col)
    x = np.random.default_rng(5).random(tuple(g.input_shape), dtype=np.float32)
    execute(g, weights, x, plan)
    return bands


@pytest.mark.parametrize("planned", [True, False], ids=["planned", "unplanned"])
@pytest.mark.parametrize("name", ["fused", "unfused"])
def test_execute_bands_each_conv_to_its_plan_budget(monkeypatch, name, planned):
    # with a plan or without one, execute bands by the plan it derives
    g, weights = _graphs()[name]
    plan = plan_buffers(g)
    convs = {n.id for n in g.nodes if n.kind in CONV_KINDS}
    assert set(plan.band_of) == convs
    with pytest.raises(TypeError):  # the plan's budgets are read-only
        plan.band_of[min(convs)] = 1
    fullconv = g.node(g.output_node.inputs[0])
    assert fullconv.name == "fullconv"
    # no headroom there: one row of its 16x32x64 input's band, 16 im2col
    # rows of its one tap per phase, the ones row and a 19-row accumulator
    assert plan.band_of[fullconv.id] == (16 + 1 + 19) * 64
    bands = _bands_of_execute(monkeypatch, g, weights,
                              plan if planned else None)
    assert {n.id for n, *_ in bands} == convs
    for n, band, oc, (k, cols), _ in bands:
        assert band == plan.band_of[n.id], n.name
        assert (k + oc) * cols <= band, (n.name, k, oc, cols, band)


def test_a_wide_contraction_bands_within_its_budget(monkeypatch):
    # a biased 3x3 512->512 conv at 8x30, K = 4,609: one row of its band is
    # (4,609 + 512) * 30 float64 elements, 1.2 MB.  It is the output's
    # producer, at the frame's peak, so its budget is that one row, and
    # every band it builds fits it.  Past K = 384 this BLAS sums K in
    # blocks, so nothing here is checked bit for bit
    b = GraphBuilder(Shape(512, 8, 30))
    conv = b.conv("wide", b.input_id,
                  ConvParams(out_channels=512, kernel_h=3, kernel_w=3, pad_h=1,
                             pad_w=1, has_bias=True))
    g = b.build(conv)
    plan = plan_buffers(g)
    assert plan.band_of[conv] == kernels.band_row(512, 8, 30, g.node(conv).conv) \
        == (4609 + 512) * 30
    assert plan.frame_peak_bytes == 512 * 8 * 30 * 4 + 8 * plan.band_of[conv]
    bands = _bands_of_execute(monkeypatch, g, init_weights(g, seed=0), plan)
    assert len(bands) == 8  # one output row per band
    for n, band, oc, (k, cols), _ in bands:
        assert (k, oc, cols) == (4609, 512, 30)
        assert (k + oc) * cols <= band == plan.band_of[conv]


def test_phases_that_read_one_window_share_its_im2col(monkeypatch):
    # fullconv's four phases (2x2, stride 2) all read the input itself: each
    # band's im2col is built once, for the four GEMMs, and the bands tile
    # the phases' rows once
    bands = []
    im2col = kernels._im2col

    def recording_im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones):
        bands.append((y0, oh))
        return im2col(x, top, left, kh, kw, stride, dilation, y0, oh, ow, ones)

    monkeypatch.setattr(kernels, "_im2col", recording_im2col)
    rng = np.random.default_rng(3)
    x = rand_input(rng, 16, 24, 40)
    wt, bias = rand_tconv_weight(rng, 16, 19, 2, 2), rand_bias(rng, 19)
    p = ConvParams(out_channels=19, kernel_h=2, kernel_w=2, stride=2,
                   has_bias=True)
    got = conv_transpose2d(x, wt, bias, p, band=5000)
    assert len(bands) > 1
    assert [y0 for y0, _ in bands] == sorted({y0 for y0, _ in bands})
    assert sum(oh for _, oh in bands) == 24
    want = padded_conv_transpose2d(x, wt, bias, p)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


if __name__ == "__main__":
    print(json.dumps(oracle_report()))
