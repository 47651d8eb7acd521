"""Static analysis: parameter counts, MAC/FLOP totals against independently
derived figures, serialized size, class weighting."""

import numpy as np
import pytest

from enetcpu.errors import FormatError
from enetcpu.analyzer import (
    ClassHistogram,
    FlopConvention,
    bound_class_weights,
    compute_class_weights,
    count_flops,
    count_params,
    load_histogram,
    model_size_fp16,
)
from enetcpu.graph import GraphBuilder, build_enet, build_initial_block, init_weights
from enetcpu.kernels import ConvParams
from enetcpu.passes import optimize
from enetcpu.tensor import Shape

# totals at 3x640x360 derived by hand from the layer listing (conv MACs from
# output elements x fan-in, transposed convs from input elements x out x k^2,
# one MAC per output element for BN/PReLU/Add/pool/unpool)
ENET19_MACS_640x360 = 1_795_852_800
ENET19_CONV_MACS_640x360 = 1_723_564_800
ENET19_PARAMS = 372_306


# ---------------------------------------------------------------------------
# parameters

def test_initial_block_param_budget():
    b = GraphBuilder(Shape(3, 64, 64))
    out = build_initial_block(b)
    g = b.build(out)
    report = count_flops(g)
    per = {c.name: c.params for c in report.per_node}
    assert per["initial.conv"] == 351          # 13*3*3*3, bias-free
    assert per["initial.bn"] == 64             # 4 stats per channel
    assert per["initial.prelu"] == 16
    assert count_params(g) == 351 + 64 + 16


def test_enet_param_count_exact_and_in_window():
    g = build_enet(19, 512, 512)
    params = count_params(g)
    assert params == ENET19_PARAMS
    assert 0.33e6 <= params <= 0.41e6
    # independent cross-check: every stored weight element is a parameter
    store = init_weights(build_enet(19, 64, 64), seed=0)
    assert sum(a.size for a in store.values()) == params


def test_param_count_independent_of_resolution():
    assert count_params(build_enet(19, 512, 512)) == count_params(
        build_enet(19, 64, 64))
    assert count_params(build_enet(12, 64, 64)) == ENET19_PARAMS - 7 * (16 * 4 + 1)


# ---------------------------------------------------------------------------
# MACs and FLOPs

def test_single_conv_flop_example():
    b = GraphBuilder(Shape(1, 4, 4))
    c = b.conv("c", b.input_id, ConvParams(out_channels=1, kernel_h=3,
                                           kernel_w=3, pad_h=1, pad_w=1))
    g = b.build(c)
    rep = count_flops(g)
    assert rep.total_macs == 144               # 16 outputs x 9-tap fan-in
    assert rep.total_flops == 288
    assert count_flops(g, FlopConvention.MAC).total_flops == 144


def test_transposed_conv_macs_use_input_elements():
    b = GraphBuilder(Shape(16, 8, 8))
    t = b.conv_transpose("t", b.input_id,
                         ConvParams(out_channels=19, kernel_h=2, kernel_w=2,
                                    stride=2, has_bias=True))
    g = b.build(t)
    rep = count_flops(g)
    assert rep.total_macs == 16 * 8 * 8 * 19 * 4


def test_asymmetric_conv_macs_sum_both_kernels():
    c, h, w = 4, 6, 10
    b = GraphBuilder(Shape(c, h, w))
    g = b.build(b.asym_conv5("a", b.input_id, c))
    # the 5x1 kernel reads the c input channels, the 1x5 its c mid channels
    assert count_flops(g).total_macs == c * c * 5 * h * w + c * c * 5 * h * w


def test_enet_total_macs_at_640x360():
    g = build_enet(19, 640, 360)
    rep = count_flops(g)
    assert rep.total_macs == ENET19_MACS_640x360
    assert rep.conv_macs() == ENET19_CONV_MACS_640x360
    gflops = rep.total_flops / 1e9
    assert 0.8 * 3.83 <= gflops <= 1.2 * 3.83
    # swapped height/width gives the same totals
    rep2 = count_flops(build_enet(19, 360, 640))
    assert rep2.total_macs == rep.total_macs


def test_stages_2_and_3_dominate_conv_macs():
    rep = count_flops(build_enet(19, 640, 360))
    conv_by_stage = {}
    for c in rep.per_node:
        if c.macs and c.kind.value in ("conv", "conv_transpose", "asym_conv5"):
            conv_by_stage[c.stage] = conv_by_stage.get(c.stage, 0) + c.macs
    mid = conv_by_stage["bottleneck2"] + conv_by_stage["bottleneck3"]
    assert mid / rep.conv_macs() >= 0.60


def test_halving_input_dims_quarters_conv_macs_exactly():
    big = count_flops(build_enet(19, 64, 64)).conv_macs()
    small = count_flops(build_enet(19, 32, 32)).conv_macs()
    assert big == 4 * small


def test_report_totals_match_per_node_sum():
    rep = count_flops(build_enet(5, 64, 64))
    assert rep.total_params == sum(c.params for c in rep.per_node)
    assert rep.total_macs == sum(c.macs for c in rep.per_node)
    stages = rep.by_stage()
    assert sum(p for p, _ in stages.values()) == rep.total_params
    assert sum(m for _, m in stages.values()) == rep.total_macs
    assert list(stages)[0] == "input" and "bottleneck3" in stages


def test_fusion_never_increases_macs_or_params():
    g = build_enet(19, 64, 64)
    w = init_weights(g, seed=0)
    g2, _, _ = optimize(g, w)
    before = count_flops(g)
    after = count_flops(g2)
    assert after.total_macs < before.total_macs      # 83 BN layers vanished
    assert after.total_params < before.total_params  # 4c stats -> c bias
    assert len(g2.nodes) < len(g.nodes)


# ---------------------------------------------------------------------------
# serialized size

def test_fp16_size_window():
    g = build_enet(19, 512, 512)
    size = model_size_fp16(g)
    assert size.params == ENET19_PARAMS
    assert size.payload_bytes == 2 * ENET19_PARAMS
    assert 0.6 <= size.payload_mb <= 0.85
    assert size.container_bytes > size.payload_bytes
    assert 0.6 <= size.container_mb <= 0.9


# ---------------------------------------------------------------------------
# class weights

def test_class_weight_extremes():
    lo, hi = bound_class_weights(1.02)
    assert lo == pytest.approx(1.42227, abs=1e-4)
    assert hi == pytest.approx(50.4983, abs=1e-3)

    single = ClassHistogram(labels=("road",), counts=np.array([100]))
    w = compute_class_weights(single)
    assert w[0] == pytest.approx(lo, abs=1e-9)

    two = ClassHistogram(labels=("a", "b"), counts=np.array([100, 0]))
    w2 = compute_class_weights(two)
    assert w2[1] == pytest.approx(hi, abs=1e-9)
    assert np.all(w2 >= lo - 1e-12) and np.all(w2 <= hi + 1e-12)


def test_class_weights_decrease_with_probability():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 10_000, size=12)
    hist = ClassHistogram(labels=tuple(f"c{i}" for i in range(12)), counts=counts)
    w = compute_class_weights(hist)
    order = np.argsort(hist.probabilities)
    assert np.all(np.diff(w[order]) <= 0)  # rarer class, larger weight
    assert np.all((w >= bound_class_weights()[0]) & (w <= bound_class_weights()[1]))


def test_class_weights_reject_bad_constant():
    hist = ClassHistogram(labels=("a",), counts=np.array([1]))
    with pytest.raises(ValueError):
        compute_class_weights(hist, c=1.0)
    with pytest.raises(ValueError):
        compute_class_weights(hist, c=0.5)


def test_histogram_file_roundtrip(tmp_path):
    p = tmp_path / "hist.txt"
    p.write_text(
        "# CamVid-ish pixel counts\n"
        "sky 76801000\n"
        "building 117963000\n\n"
        "pole 2618000  # thin things\n"
    )
    hist = load_histogram(p)
    assert hist.labels == ("sky", "building", "pole")
    assert hist.counts.tolist() == [76801000, 117963000, 2618000]
    w = compute_class_weights(hist)
    assert w.shape == (3,)
    assert w[2] > w[1]  # poles are rare, weigh them up


def test_histogram_file_errors(tmp_path):
    cases = {
        "bad_fields.txt": ("sky 1 2\n", "expected"),
        "bad_count.txt": ("sky abc\n", "not an integer"),
        "negative.txt": ("sky -3\n", "negative"),
        "dup.txt": ("sky 1\nsky 2\n", "duplicate"),
        "empty.txt": ("# nothing\n", "no histogram entries"),
        "zero.txt": ("sky 0\nroad 0\n", "empty"),
        "wide.txt": (f"sky {2**64}\n", "does not fit int64"),
        "wraps.txt": (f"sky {2**63 - 1}\nroad 1\n", "does not fit int64"),
        "not_utf8.txt": ("sky 1\n\udcff 2\n", "cannot read"),
    }
    for fname, (content, needle) in cases.items():
        p = tmp_path / fname
        p.write_text(content, errors="surrogateescape")  # \udcff: byte 0xff
        with pytest.raises(FormatError, match=needle):
            load_histogram(p)
    with pytest.raises(FormatError, match="cannot read"):
        load_histogram(tmp_path / "missing.txt")
