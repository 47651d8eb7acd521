"""Kernel correctness: frozen worked examples, oracle parity on randomized
instances, and algebraic invariants (adjointness, linearity, tie-breaking)."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from enetcpu import kernels
from enetcpu.errors import CorruptIndicesError, ShapeError
from enetcpu.graph import BN_EPS
from enetcpu.kernels import (
    ConvParams,
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
from reference import (
    argmax_maxpool2x2,
    codes_to_flat,
    rand_bias,
    rand_conv_weight,
    rand_input,
    rand_tconv_weight,
    ref_batchnorm,
    ref_conv2d,
    ref_conv_transpose2d,
    ref_max_unpool2x2,
    ref_maxpool2x2,
    ref_prelu,
    stuffed_conv_transpose2d,
)

F32 = np.float32


# ---------------------------------------------------------------------------
# conv2d: frozen examples

def test_conv2d_1x1_scale():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=F32)
    w = np.full((1, 1, 1, 1), 2.0, dtype=F32)
    p = ConvParams(out_channels=1, kernel_h=1, kernel_w=1)
    out = conv2d(x, w, None, p)
    assert out.dtype == F32
    np.testing.assert_array_equal(out, [[[2.0, 4.0], [6.0, 8.0]]])


def test_conv2d_3x3_ones_pad1():
    x = np.ones((1, 2, 2), dtype=F32)
    w = np.ones((1, 1, 3, 3), dtype=F32)
    p = ConvParams(out_channels=1, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1)
    out = conv2d(x, w, None, p)
    np.testing.assert_array_equal(out, [[[4.0, 4.0], [4.0, 4.0]]])


def test_conv2d_stride2_halves_even_dims():
    rng = np.random.default_rng(0)
    x = rand_input(rng, 4, 16, 12)
    w = rand_conv_weight(rng, 6, 4, 2, 2)
    p = ConvParams(out_channels=6, kernel_h=2, kernel_w=2, stride=2)
    assert conv2d(x, w, None, p).shape == (6, 8, 6)


def test_conv2d_dilated_preserves_dims_when_pad_equals_rate():
    rng = np.random.default_rng(1)
    for rate in (2, 4, 8, 16):
        x = rand_input(rng, 2, 2 * rate + 2, 2 * rate + 4)
        w = rand_conv_weight(rng, 2, 2, 3, 3)
        p = ConvParams(out_channels=2, kernel_h=3, kernel_w=3,
                       pad_h=rate, pad_w=rate, dilation=rate)
        assert conv2d(x, w, None, p).shape == x.shape


def test_conv2d_bias_presence_must_match_params():
    x = np.ones((1, 3, 3), dtype=F32)
    w = np.ones((1, 1, 1, 1), dtype=F32)
    p_nobias = ConvParams(out_channels=1, kernel_h=1, kernel_w=1)
    p_bias = ConvParams(out_channels=1, kernel_h=1, kernel_w=1, has_bias=True)
    with pytest.raises(ShapeError):
        conv2d(x, w, np.zeros(1, dtype=F32), p_nobias)
    with pytest.raises(ShapeError):
        conv2d(x, w, None, p_bias)


def test_conv2d_rejects_channel_mismatch_and_empty_output():
    x = np.ones((3, 4, 4), dtype=F32)
    w = np.ones((2, 4, 1, 1), dtype=F32)
    with pytest.raises(ShapeError):
        conv2d(x, w, None, ConvParams(out_channels=2, kernel_h=1, kernel_w=1))
    # kernel extends past the padded input -> no valid output positions
    w2 = np.ones((2, 3, 5, 5), dtype=F32)
    with pytest.raises(ShapeError):
        conv2d(x, w2, None, ConvParams(out_channels=2, kernel_h=5, kernel_w=5))


def test_conv_params_validation():
    with pytest.raises(ShapeError):
        ConvParams(out_channels=0, kernel_h=1, kernel_w=1)
    with pytest.raises(ShapeError):
        ConvParams(out_channels=1, kernel_h=1, kernel_w=1, stride=0)
    with pytest.raises(ShapeError):
        ConvParams(out_channels=1, kernel_h=1, kernel_w=1, pad_h=-1)
    # dilation > 1 combined with stride > 1 is outside this engine's contract
    with pytest.raises(ShapeError):
        ConvParams(out_channels=1, kernel_h=3, kernel_w=3, stride=2, dilation=2)


# ---------------------------------------------------------------------------
# conv2d: oracle parity and invariants

def _conv_cases():
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(40):  # plain kernels, strides 1 and 2
        k = int(rng.choice([1, 2, 3]))
        s = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        ic = int(rng.integers(1, 8))
        oc = int(rng.integers(1, 8))
        h = int(rng.integers(k + 2, 14))
        w = int(rng.integers(k + 2, 14))
        cases.append((k, k, s, pad, pad, 1, ic, oc, h, w))
    for _ in range(20):  # asymmetric halves
        tall = bool(rng.integers(0, 2))
        kh, kw = (5, 1) if tall else (1, 5)
        ph, pw = (2, 0) if tall else (0, 2)
        ic = int(rng.integers(1, 6))
        oc = int(rng.integers(1, 6))
        h = int(rng.integers(6, 12))
        w = int(rng.integers(6, 12))
        cases.append((kh, kw, 1, ph, pw, 1, ic, oc, h, w))
    for rate in (2, 4, 8, 16):  # dilated, pad = rate
        for _ in range(10):
            ic = int(rng.integers(1, 5))
            oc = int(rng.integers(1, 5))
            h = int(rng.integers(4, 8)) + rate
            w = int(rng.integers(4, 8)) + rate
            cases.append((3, 3, 1, rate, rate, rate, ic, oc, h, w))
    return cases


def test_conv2d_matches_reference_on_randomized_instances():
    cases = _conv_cases()
    assert len(cases) >= 100
    rng = np.random.default_rng(77)
    worst = 0.0
    for kh, kw, s, ph, pw, d, ic, oc, h, w in cases:
        x = rand_input(rng, ic, h, w)
        wt = rand_conv_weight(rng, oc, ic, kh, kw)
        bias = rand_bias(rng, oc) if rng.integers(0, 2) else None
        p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw, stride=s,
                       pad_h=ph, pad_w=pw, dilation=d, has_bias=bias is not None)
        got = conv2d(x, wt, bias, p)
        want = ref_conv2d(x, wt, bias, stride=s, pad_h=ph, pad_w=pw, dilation=d)
        assert got.shape == want.shape
        worst = max(worst, float(np.max(np.abs(got.astype(np.float64) - want))))
    assert worst <= 1e-6, f"worst conv2d deviation {worst}"


def test_conv2d_is_linear():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rand_input(rng, 3, 8, 8)
        y = rand_input(rng, 3, 8, 8)
        wt = rand_conv_weight(rng, 4, 3, 3, 3)
        p = ConvParams(out_channels=4, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1)
        a, b = 0.5, -1.25
        lhs = conv2d((a * x + b * y).astype(F32), wt, None, p)
        rhs = a * conv2d(x, wt, None, p) + b * conv2d(y, wt, None, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-5


def test_conv2d_deterministic_across_calls():
    rng = np.random.default_rng(6)
    x = rand_input(rng, 8, 16, 16)
    wt = rand_conv_weight(rng, 8, 8, 3, 3)
    p = ConvParams(out_channels=8, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1)
    first = conv2d(x, wt, None, p)
    for _ in range(3):
        assert np.array_equal(conv2d(x, wt, None, p), first)


def test_conv2d_dilation1_matches_plain_windowed_contraction():
    # dilation=1 must be the exact degenerate case of the dilated path
    rng = np.random.default_rng(7)
    x = rand_input(rng, 4, 10, 10)
    wt = rand_conv_weight(rng, 5, 4, 3, 3)
    p = ConvParams(out_channels=5, kernel_h=3, kernel_w=3, stride=2,
                   pad_h=1, pad_w=1, dilation=1)
    got = conv2d(x, wt, None, p)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, ::2, ::2]
    plain = np.tensordot(wt.astype(np.float64), win.astype(np.float64),
                         axes=([1, 2, 3], [0, 3, 4])).astype(F32)
    assert np.array_equal(got, plain)


def _windowed_contraction(x, wt, bias, p):
    """The tensordot-over-windows contraction conv2d computed before im2col."""
    xp = np.pad(x, ((0, 0), (p.pad_h, p.pad_h), (p.pad_w, p.pad_w)))
    eff_kh = p.dilation * (p.kernel_h - 1) + 1
    eff_kw = p.dilation * (p.kernel_w - 1) + 1
    win = sliding_window_view(xp, (eff_kh, eff_kw), axis=(1, 2))
    win = win[:, ::p.stride, ::p.stride, ::p.dilation, ::p.dilation]
    out = np.tensordot(wt.astype(np.float64), win.astype(np.float64),
                       axes=([1, 2, 3], [0, 3, 4]))
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return out.astype(F32)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_conv2d_bitwise_equals_windowed_contraction():
    # im2col + one GEMM is the same float64 GEMM on the same layout that
    # tensordot runs, so the rounded outputs must agree bit for bit
    rng = np.random.default_rng(8)
    cases = [c for c in _conv_cases() if c[2] > 1 or c[5] > 1]  # strided or dilated
    cases += [(1, 1, 1, 0, 0, 1, ic, oc, 9, 13)
              for ic, oc in ((1, 1), (3, 7), (32, 128), (128, 32))]
    cases += [(3, 3, 1, 1, 1, 1, 32, 32, 12, 20),       # K = 288
              (2, 2, 2, 0, 0, 1, 64, 32, 12, 20),
              (3, 3, 1, 8, 8, 8, 32, 32, 18, 20)]
    for kh, kw, s, ph, pw, d, ic, oc, h, w in cases:
        x = rand_input(rng, ic, h, w)
        wt = rand_conv_weight(rng, oc, ic, kh, kw)
        bias = rand_bias(rng, oc) if rng.integers(0, 2) else None
        p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw, stride=s,
                       pad_h=ph, pad_w=pw, dilation=d, has_bias=bias is not None)
        assert _bitwise_equal(conv2d(x, wt, bias, p),
                              _windowed_contraction(x, wt, bias, p))


# ---------------------------------------------------------------------------
# conv_transpose2d

def _tparams(wt, bias, stride, pad, out_pad=0, pad_w=None):
    """ConvParams of a transposed conv with weight wt (in, out, kh, kw)."""
    return ConvParams(out_channels=wt.shape[1], kernel_h=wt.shape[2],
                      kernel_w=wt.shape[3], stride=stride, pad_h=pad,
                      pad_w=pad if pad_w is None else pad_w, out_pad=out_pad,
                      has_bias=bias is not None)


def test_conv_transpose2d_single_pixel_scatter():
    x = np.ones((1, 1, 1), dtype=F32)
    w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=F32)  # (in=1, out=1, 2, 2)
    out = conv_transpose2d(x, w, None, _tparams(w, None, stride=2, pad=0))
    np.testing.assert_array_equal(out, [[[1.0, 2.0], [3.0, 4.0]]])


def test_conv_transpose2d_2x2_stride2_doubles_dims():
    rng = np.random.default_rng(8)
    x = rand_input(rng, 16, 8, 6)
    w = rand_tconv_weight(rng, 16, 5, 2, 2)
    b = rand_bias(rng, 5)
    out = conv_transpose2d(x, w, b, _tparams(w, b, stride=2, pad=0))
    assert out.shape == (5, 16, 12)


def test_conv_transpose2d_3x3_stride2_outpad1_doubles_dims():
    rng = np.random.default_rng(9)
    x = rand_input(rng, 4, 5, 7)
    w = rand_tconv_weight(rng, 4, 3, 3, 3)
    out = conv_transpose2d(x, w, None, _tparams(w, None, stride=2, pad=1, out_pad=1))
    assert out.shape == (3, 10, 14)


def test_conv_transpose2d_rejects_bad_geometry():
    x = np.ones((2, 4, 4), dtype=F32)
    w = np.ones((2, 2, 2, 2), dtype=F32)
    with pytest.raises(ShapeError):  # out_pad >= stride
        conv_transpose2d(x, w, None, _tparams(w, None, stride=2, pad=0, out_pad=2))
    with pytest.raises(ShapeError):  # empty output
        conv_transpose2d(x, w, None, _tparams(w, None, stride=1, pad=4))
    w_bad = np.ones((3, 2, 2, 2), dtype=F32)
    with pytest.raises(ShapeError):
        conv_transpose2d(x, w_bad, None, _tparams(w_bad, None, stride=1, pad=0))
    p = _tparams(w, None, stride=2, pad=0)
    with pytest.raises(ShapeError, match="disagrees with params"):
        conv_transpose2d(x, np.ones((2, 2, 3, 3), dtype=F32), None, p)
    with pytest.raises(ShapeError, match="has_bias"):
        conv_transpose2d(x, w, np.zeros(2, dtype=F32), p)
    with pytest.raises(ShapeError, match="dilation"):
        conv_transpose2d(x, w, None, ConvParams(out_channels=2, kernel_h=2,
                                                kernel_w=2, dilation=2))


def test_conv_transpose2d_matches_reference_on_randomized_instances():
    rng = np.random.default_rng(4321)
    count = 0
    worst = 0.0
    for i in range(150):
        k = int(rng.choice([2, 3, 4]))
        s = int(rng.choice([1, 2, 3]))
        pad = int(rng.integers(0, min(k, 2)))
        # the first 100 cases pad both axes alike, the rest independently
        pad_w = pad if i < 100 else int(rng.integers(0, min(k, 2)))
        op = int(rng.integers(0, s))
        ic = int(rng.integers(1, 6))
        oc = int(rng.integers(1, 6))
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        x = rand_input(rng, ic, h, w)
        wt = rand_tconv_weight(rng, ic, oc, k, k)
        bias = rand_bias(rng, oc) if rng.integers(0, 2) else None
        got = conv_transpose2d(x, wt, bias, _tparams(wt, bias, s, pad, op, pad_w))
        want = ref_conv_transpose2d(x, wt, bias, stride=s, pad=pad, out_pad=op,
                                    pad_w=pad_w)
        assert got.shape == want.shape
        worst = max(worst, float(np.max(np.abs(got.astype(np.float64) - want))))
        count += 1
    assert count == 150
    assert worst <= 1e-6, f"worst conv_transpose2d deviation {worst}"


def test_conv_transpose2d_stride_beyond_kernel_leaves_bias_in_gaps():
    # stride 3 with a 1x1 kernel: only phase (0, 0) has a tap, every other
    # output position is the bias alone
    x = np.ones((1, 2, 2), dtype=F32)
    w = np.full((1, 1, 1, 1), 2.0, dtype=F32)
    b = np.array([0.5], dtype=F32)
    out = conv_transpose2d(x, w, b, _tparams(w, b, stride=3, pad=0))
    want = np.full((1, 4, 4), 0.5, dtype=F32)
    want[0, ::3, ::3] = 2.5
    np.testing.assert_array_equal(out, want)


def test_conv_transpose2d_bitwise_equals_zero_stuffed_contraction():
    rng = np.random.default_rng(2606)
    covered = set()
    count = 0
    while count < 300:
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        op = int(rng.integers(0, s))
        ic = int(rng.integers(1, 6))
        oc = int(rng.integers(1, 6))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        if (min(h, w) - 1) * s - 2 * pad + k + op < 1:
            continue  # empty output
        x = rand_input(rng, ic, h, w)
        wt = rand_tconv_weight(rng, ic, oc, k, k)
        bias = rand_bias(rng, oc) if rng.integers(0, 2) else None
        got = conv_transpose2d(x, wt, bias, _tparams(wt, bias, s, pad, op))
        want = stuffed_conv_transpose2d(x, wt, bias, stride=s, pad=pad, out_pad=op)
        assert _bitwise_equal(got, want), (k, s, pad, op, ic, oc, h, w)
        covered |= {("stride", s), ("kernel", k)}
        covered |= {flag for flag, on in (("pad", pad > 0), ("out_pad", op > 0),
                                          ("stride>kernel", s > k)) if on}
        count += 1
    assert covered >= {("stride", s) for s in (1, 2, 3)} | {
        ("kernel", k) for k in range(1, 6)} | {"pad", "out_pad", "stride>kernel"}


@pytest.mark.parametrize("ic,oc,h,w,k,s,pad,op", [
    (16, 16, 9, 16, 3, 2, 1, 1),    # the decoder's upsampling deconvs
    (4, 4, 18, 32, 3, 2, 1, 1),
    (16, 19, 36, 64, 2, 2, 0, 0),   # the fullconv classifier
    (128, 17, 7, 9, 3, 2, 1, 1),    # long reductions
    (256, 17, 7, 9, 4, 2, 1, 0),
])
def test_conv_transpose2d_bitwise_on_network_shapes(ic, oc, h, w, k, s, pad, op):
    rng = np.random.default_rng(ic * 100 + k)
    x = rand_input(rng, ic, h, w)
    wt = rand_tconv_weight(rng, ic, oc, k, k)
    bias = rand_bias(rng, oc)
    assert _bitwise_equal(conv_transpose2d(x, wt, bias, _tparams(wt, bias, s, pad, op)),
                          stuffed_conv_transpose2d(x, wt, bias, s, pad, op))


# ---------------------------------------------------------------------------
# convolution bands: the im2col GEMM over bands of output rows

BAND_CASES = [  # (transposed, kh, kw, stride, pad_h, pad_w, dilation, out_pad, ic, oc, h, w)
    (False, 3, 3, 2, 1, 1, 1, 0, 5, 6, 17, 23),   # stride 2, odd output 9x12
    (False, 3, 3, 1, 2, 2, 2, 0, 4, 5, 15, 19),   # dilation 2
    (False, 3, 3, 1, 1, 0, 1, 0, 3, 4, 11, 13),   # pad_h != pad_w
    (False, 5, 1, 1, 2, 0, 1, 0, 6, 3, 13, 7),    # the asymmetric 5x1 pass
    (False, 2, 2, 2, 0, 0, 1, 0, 7, 9, 14, 10),   # 2x2/2 projection
    (True, 3, 3, 2, 1, 1, 1, 1, 5, 4, 9, 11),     # out_pad 1
    (True, 3, 3, 2, 1, 0, 1, 1, 3, 5, 7, 6),      # pad_h != pad_w
    (True, 3, 3, 2, 1, 1, 1, 0, 4, 3, 8, 5),      # odd output 15x9
    (True, 2, 2, 2, 0, 0, 1, 0, 6, 7, 9, 13),     # fullconv-like
]


@pytest.mark.parametrize("budget", [1, 700], ids=["one_row", "few_rows"])
@pytest.mark.parametrize("case", BAND_CASES, ids=[str(i) for i in range(len(BAND_CASES))])
def test_conv_bands_give_the_bits_of_one_band(case, budget):
    # a budget of 1 element gives one output row per band; with no budget,
    # every case runs as one band
    tr, kh, kw, s, ph, pw, d, op, ic, oc, h, w = case
    rng = np.random.default_rng(sum(case[1:]))
    x = rand_input(rng, ic, h, w)
    bias = rand_bias(rng, oc)
    p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw, stride=s, pad_h=ph,
                   pad_w=pw, dilation=d, out_pad=op, has_bias=True)
    if tr:
        conv, wt = conv_transpose2d, rand_tconv_weight(rng, ic, oc, kh, kw)
    else:
        conv, wt = conv2d, rand_conv_weight(rng, oc, ic, kh, kw)
    assert _bitwise_equal(conv(x, wt, bias, p, band=budget),
                          conv(x, wt, bias, p))


SCRATCH_BAND = 1 << 18  # float64 elements of one band (2 MiB)

# (transposed, ic, oc, kh, kw, stride, pad, dilation, bias, h, w): a 3x3
# 16->16 conv at 90x160 and the 2x2/2 16->19 fullconv at 180x320, the two
# largest scratch users of the 360x640 network, and two padded convs whose
# padding is written into the band: the initial 3x3/2 conv at 360x640 and a
# dilation-16 3x3 conv at 45x80
SCRATCH_CASES = {
    "conv2d": (False, 16, 16, 3, 3, 1, 1, 1, False, 90, 160),
    "conv_transpose2d": (True, 16, 19, 2, 2, 2, 0, 1, True, 180, 320),
    "initial": (False, 3, 13, 3, 3, 2, 1, 1, True, 360, 640),
    "dilated16": (False, 32, 32, 3, 3, 1, 16, 16, False, 45, 80),
}


@pytest.mark.parametrize("case", SCRATCH_CASES.values(), ids=SCRATCH_CASES.keys())
def test_conv_scratch_stays_within_the_band_budget(case):
    # each writing into a given out: one band of im2col and accumulator,
    # and no padded copy of the input beside it
    tr, ic, oc, kh, kw, s, pad, d, has_bias, h, w = case
    rng = np.random.default_rng(90)
    x = rand_input(rng, ic, h, w)
    bias = rand_bias(rng, oc) if has_bias else None
    p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw, stride=s,
                   pad_h=pad, pad_w=pad, dilation=d, has_bias=has_bias)
    if tr:
        conv, wt = conv_transpose2d, rand_tconv_weight(rng, ic, oc, kh, kw)
        out = np.empty((oc, *p.tconv_out_hw(h, w)), dtype=F32)
    else:
        conv, wt = conv2d, rand_conv_weight(rng, oc, ic, kh, kw)
        out = np.empty((oc, *p.conv_out_hw(h, w)), dtype=F32)
    tracemalloc.start()
    try:
        conv(x, wt, bias, p, out=out, band=SCRATCH_BAND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SCRATCH_BAND * 8 + 128 * 1024, peak / 1e6


def test_biased_conv_widens_its_weights_once():
    # a 512->512 3x3 conv at 8x8, whose 18.9 MB float64 weight matrix
    # outweighs its scratch: one widened matrix holds the bias column, so
    # the peak stays below two float64 copies of the weights
    rng = np.random.default_rng(91)
    x = rand_input(rng, 512, 8, 8)
    wt = rand_conv_weight(rng, 512, 512, 3, 3)
    bias = rand_bias(rng, 512)
    p = ConvParams(out_channels=512, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1,
                   has_bias=True)
    out = np.empty((512, 8, 8), dtype=F32)
    tracemalloc.start()
    try:
        conv2d(x, wt, bias, p, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * wt.size * 8, peak / 1e6


def test_conv_and_transpose_are_adjoint():
    # <conv(x; W), y> == <x, conv_T(y; W)> with W reinterpreted for each op
    rng = np.random.default_rng(31)
    for trial in range(30):
        k = int(rng.choice([2, 3]))
        s = int(rng.choice([1, 2]))
        pad_h, pad_w = (int(v) for v in rng.integers(0, k, size=2))
        ic = int(rng.integers(1, 5))
        oc = int(rng.integers(1, 5))
        h = int(rng.integers(k + 2, 12))
        # keep w + 2*pad_w = h + 2*pad_h (mod s): one out_pad serves both axes
        w = h + 2 * (pad_h - pad_w) + s * int(rng.integers(0, 3))
        x = rand_input(rng, ic, h, w)
        wt = rand_conv_weight(rng, oc, ic, k, k)
        p = ConvParams(out_channels=oc, kernel_h=k, kernel_w=k, stride=s,
                       pad_h=pad_h, pad_w=pad_w)
        cx = conv2d(x, wt, None, p)
        y = rand_input(rng, *cx.shape)
        # the same weight array reads as (in=oc, out=ic, kh, kw) for the
        # transposed op; that reinterpretation is exactly the adjoint map
        cty = conv_transpose2d(y, wt, None, _tparams(
            wt, None, s, pad_h, out_pad=(h + 2 * pad_h - k) % s, pad_w=pad_w))
        assert cty.shape == x.shape
        lhs = float(np.vdot(cx.astype(np.float64), y.astype(np.float64)))
        rhs = float(np.vdot(x.astype(np.float64), cty.astype(np.float64)))
        denom = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / denom <= 1e-5, f"trial {trial}: {lhs} vs {rhs}"


# ---------------------------------------------------------------------------
# conv_asymmetric5

def test_conv_asymmetric5_impulse_is_identity():
    x = np.zeros((1, 9, 9), dtype=F32)
    x[0, 4, 4] = 1.0
    w5x1 = np.zeros((1, 1, 5, 1), dtype=F32)
    w5x1[0, 0, 2, 0] = 1.0
    w1x5 = np.zeros((1, 1, 1, 5), dtype=F32)
    w1x5[0, 0, 0, 2] = 1.0
    out = conv_asymmetric5(x, w5x1, w1x5, None)
    np.testing.assert_array_equal(out, x)


def test_conv_asymmetric5_equals_two_pass_composition():
    rng = np.random.default_rng(44)
    for _ in range(20):
        c = int(rng.integers(1, 6))
        h = int(rng.integers(6, 12))
        w = int(rng.integers(6, 12))
        x = rand_input(rng, c, h, w)
        w5x1 = rand_conv_weight(rng, c, c, 5, 1)
        w1x5 = rand_conv_weight(rng, c, c, 1, 5)
        bias = rand_bias(rng, c)
        fused = conv_asymmetric5(x, w5x1, w1x5, bias)
        p1 = ConvParams(out_channels=c, kernel_h=5, kernel_w=1, pad_h=2, pad_w=0)
        p2 = ConvParams(out_channels=c, kernel_h=1, kernel_w=5, pad_h=0, pad_w=2,
                        has_bias=True)
        two_pass = conv2d(conv2d(x, w5x1, None, p1), w1x5, bias, p2)
        assert fused.shape == x.shape
        assert np.max(np.abs(fused - two_pass)) <= 1e-5


def test_conv_asymmetric5_rank1_matches_direct_5x5():
    # per-channel separable kernel u v^T == direct 5x5 convolution
    rng = np.random.default_rng(45)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        u = (rng.standard_normal(5) / np.sqrt(5)).astype(F32)
        v = (rng.standard_normal(5) / np.sqrt(5)).astype(F32)
        w5x1 = np.zeros((c, c, 5, 1), dtype=F32)
        w1x5 = np.zeros((c, c, 1, 5), dtype=F32)
        w5x5 = np.zeros((c, c, 5, 5), dtype=F32)
        for ch in range(c):
            w5x1[ch, ch, :, 0] = u
            w1x5[ch, ch, 0, :] = v
            w5x5[ch, ch] = np.outer(u, v)
        x = rand_input(rng, c, 10, 10)
        fused = conv_asymmetric5(x, w5x1, w1x5, None)
        p = ConvParams(out_channels=c, kernel_h=5, kernel_w=5, pad_h=2, pad_w=2)
        direct = conv2d(x, w5x5, None, p)
        diff = np.max(np.abs(fused - direct))
        scale = max(float(np.max(np.abs(direct))), 1e-12)
        assert diff / scale <= 1e-5


def test_conv_asymmetric5_rejects_wrong_kernel_shapes():
    x = np.ones((2, 8, 8), dtype=F32)
    good5x1 = np.ones((2, 2, 5, 1), dtype=F32)
    good1x5 = np.ones((2, 2, 1, 5), dtype=F32)
    with pytest.raises(ShapeError):
        conv_asymmetric5(x, np.ones((2, 2, 3, 1), dtype=F32), good1x5, None)
    with pytest.raises(ShapeError):
        conv_asymmetric5(x, good5x1, np.ones((2, 2, 5, 1), dtype=F32), None)
    with pytest.raises(ShapeError):  # chain: 2 channels out, 3 expected in
        conv_asymmetric5(x, good5x1, np.ones((2, 3, 1, 5), dtype=F32), None)
    with pytest.raises(ShapeError):
        conv_asymmetric5(x, np.float32(1.0), good1x5, None)


# ---------------------------------------------------------------------------
# maxpool2x2 / max_unpool2x2

def test_maxpool_basic_value_and_flat_index():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=F32)
    res = maxpool2x2(x)
    np.testing.assert_array_equal(res.values, [[[4.0]]])
    np.testing.assert_array_equal(codes_to_flat(res.codes, 2), [[[3]]])


def test_maxpool_tie_breaks_to_smallest_flat_index():
    x = np.full((1, 2, 2), 7.0, dtype=F32)
    res = maxpool2x2(x)
    np.testing.assert_array_equal(res.values, [[[7.0]]])
    np.testing.assert_array_equal(codes_to_flat(res.codes, 2), [[[0]]])


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        maxpool2x2(np.ones((1, 3, 4), dtype=F32))
    with pytest.raises(ShapeError):
        maxpool2x2(np.ones((1, 4, 5), dtype=F32))


def test_maxpool_matches_reference_on_randomized_instances():
    rng = np.random.default_rng(55)
    for _ in range(100):
        c = int(rng.integers(1, 8))
        h = 2 * int(rng.integers(1, 9))
        w = 2 * int(rng.integers(1, 9))
        x = rand_input(rng, c, h, w)
        got = maxpool2x2(x)
        want_v, want_i = ref_maxpool2x2(x)
        np.testing.assert_array_equal(got.values, want_v)
        np.testing.assert_array_equal(codes_to_flat(got.codes, w), want_i)


def test_maxpool_indices_point_inside_their_window():
    rng = np.random.default_rng(56)
    x = rand_input(rng, 3, 12, 16)
    res = maxpool2x2(x)
    h, w = 12, 16
    flats = codes_to_flat(res.codes, w)
    for c in range(3):
        for y in range(6):
            for xx in range(8):
                flat = int(flats[c, y, xx])
                iy, ix = flat // w, flat % w
                assert iy in (2 * y, 2 * y + 1) and ix in (2 * xx, 2 * xx + 1)
                assert x[c, iy, ix] == res.values[c, y, xx]


def test_maxpool_bitwise_equals_argmax_kernel():
    # ties between +0 and -0 (and between equal values) must pick the cell
    # the argmax kernel picked, so values are compared as bits; NaN windows
    # must pick the first NaN
    rng = np.random.default_rng(57)
    tie_values = np.array([0.0, -0.0, 1.0, -1.0, 2.0], dtype=F32)
    cases = [rand_input(rng, 16, 90, 160),
             rng.choice(tie_values, size=(8, 64, 64)).astype(F32),
             rng.choice(tie_values[:2], size=(4, 32, 48)).astype(F32)]
    with_nan = rng.choice(tie_values, size=(4, 32, 32)).astype(F32)
    with_nan[rng.random(with_nan.shape) < 0.3] = np.nan
    cases.append(with_nan)
    for x in cases:
        got = maxpool2x2(x)
        want_v, want_i = argmax_maxpool2x2(x)
        np.testing.assert_array_equal(got.values.view(np.int32),
                                      want_v.view(np.int32))
        np.testing.assert_array_equal(codes_to_flat(got.codes, x.shape[2]), want_i)
        assert got.codes.dtype == np.uint8


@pytest.mark.parametrize("shape", [(64, 90, 160), (64, 180, 320)])
def test_maxpool_scratch_stays_near_the_input_size(shape):
    # tracemalloc peak of pooling into a given out: the uint8 codes, and one
    # channel strip's row winners and masks at a time
    x = np.random.default_rng(59).random(shape, dtype=F32)
    out = np.empty((shape[0], shape[1] // 2, shape[2] // 2), dtype=F32)
    tracemalloc.start()
    try:
        maxpool2x2(x, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.size + 32 * kernels._STRIP, peak / x.nbytes


@pytest.mark.parametrize("shape", [(64, 90, 160), (16, 180, 320)])
def test_unpool_scratch_stays_within_a_strip(shape):
    # tracemalloc peak of unpooling into a given out: one channel strip's
    # masks and selected bits at a time
    x = np.random.default_rng(60).random(shape, dtype=F32)
    pooled = maxpool2x2(x)
    out = np.empty(shape, dtype=F32)
    tracemalloc.start()
    try:
        max_unpool2x2(pooled.values, pooled.codes, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * kernels._STRIP, peak


def test_unpool_scatters_single_value():
    vals = np.array([[[4.0]]], dtype=F32)
    codes = np.array([[[3]]], dtype=np.uint8)  # bottom-right cell
    out = max_unpool2x2(vals, codes)
    np.testing.assert_array_equal(out, [[[0.0, 0.0], [0.0, 4.0]]])


def test_unpool_of_pool_restores_maxima_positions_exactly():
    rng = np.random.default_rng(57)
    for _ in range(20):
        c = int(rng.integers(1, 6))
        h = 2 * int(rng.integers(2, 8))
        w = 2 * int(rng.integers(2, 8))
        x = rand_input(rng, c, h, w)
        res = maxpool2x2(x)
        up = max_unpool2x2(res.values, res.codes)
        want = ref_max_unpool2x2(res.values, codes_to_flat(res.codes, w), h, w)
        np.testing.assert_array_equal(up, want)
        # each window's max sits at its original spot, zeros elsewhere
        nz = np.count_nonzero(up, axis=(1, 2))
        assert np.all(nz <= (h * w) // 4)
        mask = up != 0
        np.testing.assert_array_equal(up[mask], x[mask])


def test_unpool_matches_reference_on_randomized_instances():
    # compared as bits: signed zeros and NaN must land unchanged, and every
    # cell no code names must be +0.0
    rng = np.random.default_rng(58)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf], dtype=F32)
    for trial in range(100):
        c = int(rng.integers(1, 6))
        oh = 2 * int(rng.integers(1, 8))
        ow = 2 * int(rng.integers(1, 8))
        vals = rand_input(rng, c, oh // 2, ow // 2)
        if trial % 2:
            hit = rng.random(vals.shape) < 0.3
            vals[hit] = rng.choice(special, size=int(hit.sum()))
        codes = rng.integers(0, 4, size=vals.shape, dtype=np.uint8)
        got = max_unpool2x2(vals, codes)
        want = ref_max_unpool2x2(vals, codes_to_flat(codes, ow), oh, ow)
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


def test_unpool_rejects_out_of_range_indices():
    vals = np.ones((1, 1, 1), dtype=F32)
    for code in (4, 255):  # a window has 4 cells: codes 0..3
        with pytest.raises(CorruptIndicesError):
            max_unpool2x2(vals, np.array([[[code]]], dtype=np.uint8))
    with pytest.raises(ShapeError):  # flat int64 indices are not codes
        max_unpool2x2(vals, np.array([[[3]]], dtype=np.int64))


def test_unpool_rejects_mismatched_geometry():
    vals = np.ones((1, 2, 2), dtype=F32)
    with pytest.raises(ShapeError):
        max_unpool2x2(vals, np.zeros((1, 2, 3), dtype=np.uint8))


# ---------------------------------------------------------------------------
# batchnorm_infer / prelu

def _bn_pair(gamma, beta, mean, var):
    """A batch norm's float64 scale and shift, as graph.bn_affine gives them."""
    scale = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + BN_EPS)
    return scale, beta.astype(np.float64) - mean.astype(np.float64) * scale


def _rand_bn_pair(rng, c):
    return _bn_pair((rng.random(c, dtype=F32) + 0.5).astype(F32),
                    rand_bias(rng, c), rand_bias(rng, c),
                    (rng.random(c, dtype=F32) + 0.1).astype(F32))


def test_batchnorm_scalar_example():
    # gamma=2, beta=0.5, mean=1, var=1 with eps folded in: scale 2, shift -1.5
    x = np.full((1, 1, 1), 3.0, dtype=F32)
    out = batchnorm_infer(x, np.array([2.0]), np.array([-1.5]))
    np.testing.assert_array_equal(out, [[[4.5]]])


def test_batchnorm_rejects_a_scale_or_shift_of_the_wrong_length():
    x = np.ones((3, 2, 2), dtype=F32)
    for scale, shift in ((np.ones(2), np.zeros(3)), (np.ones(3), np.zeros(2)),
                         (np.ones(2), np.zeros(2))):
        with pytest.raises(ShapeError, match="batchnorm"):
            batchnorm_infer(x, scale, shift)


def test_batchnorm_matches_reference_on_randomized_instances():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 10))
        h = int(rng.integers(1, 10))
        w = int(rng.integers(1, 10))
        x = rand_input(rng, c, h, w)
        gamma = (rng.random(c, dtype=F32) + 0.5).astype(F32)
        beta, mean = rand_bias(rng, c), rand_bias(rng, c)
        var = (rng.random(c, dtype=F32) + 0.1).astype(F32)
        got = batchnorm_infer(x, *_bn_pair(gamma, beta, mean, var))
        want = ref_batchnorm(x, gamma, beta, mean, var, BN_EPS)
        worst = max(worst, float(np.max(np.abs(got.astype(np.float64) - want))))
    assert worst <= 1e-6, f"worst batchnorm deviation {worst}"


@pytest.mark.parametrize("shape", [(40, 45, 80), (3, 260, 260), (128, 16, 32), (7, 1, 3)])
def test_batchnorm_bitwise_equals_whole_tensor_formula_across_strips(shape):
    # shapes that batchnorm_infer splits into several channel strips, with
    # one and with many channels per strip
    rng = np.random.default_rng(69)
    x = rand_input(rng, *shape)
    scale, shift = _rand_bn_pair(rng, shape[0])
    want = (x.astype(np.float64) * scale[:, None, None]
            + shift[:, None, None]).astype(F32)
    assert _bitwise_equal(batchnorm_infer(x, scale, shift), want)


def test_prelu_negative_scaling():
    x = np.array([[[-2.0, 2.0]]], dtype=F32)
    out = prelu(x, np.array([0.25], dtype=F32))
    np.testing.assert_array_equal(out, [[[-0.5, 2.0]]])


def test_prelu_zero_is_fixed_point():
    x = np.zeros((2, 3, 3), dtype=F32)
    out = prelu(x, np.array([0.25, -3.0], dtype=F32))
    np.testing.assert_array_equal(out, x)


def test_prelu_matches_reference_on_randomized_instances():
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 10))
        x = rand_input(rng, c, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        slopes = (rng.random(c, dtype=F32) * 2 - 1).astype(F32)
        got = prelu(x, slopes)
        want = ref_prelu(x, slopes)
        worst = max(worst, float(np.max(np.abs(got.astype(np.float64) - want))))
    assert worst <= 1e-6


def test_prelu_bitwise_equals_where_for_every_slope_sign():
    # the branch-free select must equal np.where(x >= 0, x, x * s) bit for
    # bit, including signed zeros, denormals and infinities
    slopes = np.array([-1.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.5], dtype=F32)
    inputs = np.array([0.0, -0.0, 1e-45, -1e-45, np.inf, -np.inf,
                       3.5, -3.5, 1e-3, -7e20], dtype=F32)
    x = np.broadcast_to(inputs, (len(slopes), 2, len(inputs))).copy()
    s = slopes[:, None, None]
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, not selected
        want = np.where(x >= 0, x, x * s)
        got = prelu(x, slopes)
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


@pytest.mark.parametrize("shape", [(40, 45, 80), (3, 260, 260), (7, 1, 3)])
def test_prelu_bitwise_equals_where_across_channel_strips(shape):
    # shapes that prelu splits into several channel strips, with one and
    # with many channels per strip
    rng = np.random.default_rng(68)
    x = rand_input(rng, *shape)
    slopes = (rng.random(shape[0], dtype=F32) * 3 - 1.5).astype(F32)
    want = np.where(x >= 0, x, x * slopes[:, None, None])
    np.testing.assert_array_equal(prelu(x, slopes).view(np.int32),
                                  want.view(np.int32))


def _prelu_probe(rng):
    """2^15 float32 values: random bit patterns (NaNs made quiet, as
    arithmetic makes them) followed by signed zeros, infinities, a NaN, the
    smallest denormals and values near the float32 limit."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45,
                         3e38, -3e38], dtype=F32)
    bits = rng.integers(0, 2**32, 2**15 - len(specials), dtype=np.uint32)
    nan = (bits & 0x7F800000 == 0x7F800000) & (bits & 0x007FFFFF != 0)
    bits[nan] |= 0x00400000
    return np.concatenate([bits.view(F32), specials])


@pytest.mark.parametrize("slopes", [
    [1.0, 1e-45, 0.25, 0.999],  # all in (0, 1]: np.maximum on every strip
    [0.0, -0.0],  # inf * 0 is NaN, so no maximum
    [-0.5, -1.0, -1e-45, -3.0],
    [1.0000001, 2.0, 1e38],
    [0.5, 0.0, 0.25, -1.0, 1.5, 1.0],  # both forms inside one strip
], ids=["unit", "zero", "negative", "above-1", "mixed"])
def test_prelu_is_exact_on_every_bit_pattern_in_and_out_of_place(slopes):
    # 2^15 elements a channel make strips of two channels, so the mixed set
    # puts slopes of both forms in each strip; the result must be np.where's
    # bits, with a fresh out and with out = x
    assert kernels._STRIP // 2**15 == 2
    probe = _prelu_probe(np.random.default_rng(len(slopes)))
    s = np.array(slopes, dtype=F32)
    x = np.broadcast_to(probe.reshape(1, 128, 256), (len(s), 128, 256)).copy()
    # a product past the float32 range is inf on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.where(x >= 0, x, x * s[:, None, None]).view(np.int32)
    with np.errstate(over="ignore"):
        fresh = prelu(x, s)
        got = prelu(x, s, out=x)
    np.testing.assert_array_equal(fresh.view(np.int32), want)
    assert got is x
    np.testing.assert_array_equal(x.view(np.int32), want)


def test_prelu_at_slope_zero_on_infinities_does_not_warn():
    x = np.array([[[np.inf, -np.inf, -2.0, 0.0]]], dtype=F32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prelu(x, np.zeros(1, dtype=F32))
    with np.errstate(invalid="ignore"):
        want = np.where(x >= 0, x, x * F32(0))
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


def test_prelu_rejects_slope_length_mismatch():
    with pytest.raises(ShapeError):
        prelu(np.ones((3, 2, 2), dtype=F32), np.ones(2, dtype=F32))


# ---------------------------------------------------------------------------
# add / concat_channels / pad_channels / spatial_dropout_infer

def test_add_elementwise_and_shape_check():
    a = np.ones((2, 3, 3), dtype=F32)
    b = np.full((2, 3, 3), 2.0, dtype=F32)
    np.testing.assert_array_equal(add(a, b), np.full((2, 3, 3), 3.0, dtype=F32))
    with pytest.raises(ShapeError):
        add(a, np.ones((2, 3, 4), dtype=F32))


def test_concat_channels_order_and_values():
    a = np.full((13, 4, 4), 1.0, dtype=F32)
    b = np.full((3, 4, 4), 2.0, dtype=F32)
    out = concat_channels(a, b)
    assert out.shape == (16, 4, 4)
    assert np.all(out[:13] == 1.0) and np.all(out[13:] == 2.0)
    with pytest.raises(ShapeError):
        concat_channels(a, np.ones((3, 4, 5), dtype=F32))


def test_pad_channels_appends_zero_planes():
    rng = np.random.default_rng(70)
    x = rand_input(rng, 16, 5, 5)
    out = pad_channels(x, 64)
    assert out.shape == (64, 5, 5)
    np.testing.assert_array_equal(out[:16], x)
    assert np.all(out[16:] == 0.0)
    np.testing.assert_array_equal(pad_channels(x, 16), x)  # no-op allowed
    with pytest.raises(ShapeError):
        pad_channels(x, 8)


def test_spatial_dropout_infer_is_identity_and_idempotent():
    rng = np.random.default_rng(71)
    x = rand_input(rng, 4, 6, 6)
    once = spatial_dropout_infer(x)
    np.testing.assert_array_equal(once, x)
    np.testing.assert_array_equal(spatial_dropout_infer(once), x)


def _in_place_cases():
    """(name, call(x, out=None)) for every kernel whose out may be its
    input, and pad_channels' identity case, on operands that span several
    channel strips."""
    rng = np.random.default_rng(81)
    other = rand_input(rng, 40, 45, 80)
    bn = _rand_bn_pair(rng, 40)
    slopes = (rng.random(40, dtype=F32) * 3 - 1.5).astype(F32)
    return [
        ("prelu", lambda x, out=None: prelu(x, slopes, out=out)),
        ("add-over-a", lambda x, out=None: add(x, other, out=out)),
        ("add-over-b", lambda x, out=None: add(other, x, out=out)),
        ("add-twice", lambda x, out=None: add(x, x, out=out)),
        ("batchnorm_infer", lambda x, out=None: batchnorm_infer(x, *bn, out=out)),
        ("spatial_dropout_infer",
         lambda x, out=None: spatial_dropout_infer(x, out=out)),
        ("pad_channels_identity", lambda x, out=None: pad_channels(x, 40, out=out)),
    ]


IN_PLACE_CASES = _in_place_cases()


@pytest.mark.parametrize("name, call", IN_PLACE_CASES,
                         ids=[n for n, _ in IN_PLACE_CASES])
def test_elementwise_kernel_over_its_input_gives_the_bits_of_a_fresh_out(name, call):
    x = rand_input(np.random.default_rng(82), 40, 45, 80)
    fresh = call(x, out=np.empty_like(x))
    got = call(x, out=x)
    assert got is x, name
    np.testing.assert_array_equal(x.view(np.int32), fresh.view(np.int32))


# ---------------------------------------------------------------------------
# out=: every kernel writes into a given array, bitwise as without one

def _out_cases():
    """(name, call taking out=) for every kernel, on small random operands."""
    rng = np.random.default_rng(80)
    x = rand_input(rng, 4, 6, 8)
    p3 = ConvParams(out_channels=5, kernel_h=3, kernel_w=3, pad_h=1, pad_w=1,
                    has_bias=True)
    w3, b5 = rand_conv_weight(rng, 5, 4, 3, 3), rand_bias(rng, 5)
    pt = ConvParams(out_channels=3, kernel_h=3, kernel_w=3, stride=2,
                    pad_h=1, pad_w=1, out_pad=1, has_bias=True)
    wt, b3 = rand_tconv_weight(rng, 4, 3, 3, 3), rand_bias(rng, 3)
    pool = maxpool2x2(x)
    bn = _rand_bn_pair(rng, 4)
    slopes = (rng.random(4, dtype=F32) * 2 - 1).astype(F32)
    w5x1, w1x5 = rand_conv_weight(rng, 3, 4, 5, 1), rand_conv_weight(rng, 2, 3, 1, 5)
    return [
        ("conv2d", lambda out=None: conv2d(x, w3, b5, p3, out=out)),
        ("conv_transpose2d",
         lambda out=None: conv_transpose2d(x, wt, b3, pt, out=out)),
        ("conv_asymmetric5",
         lambda out=None: conv_asymmetric5(x, w5x1, w1x5, b5[:2], out=out)),
        ("maxpool2x2", lambda out=None: maxpool2x2(x, out=out).values),
        ("max_unpool2x2", lambda out=None: max_unpool2x2(
            pool.values, pool.codes, out=out)),
        ("batchnorm_infer", lambda out=None: batchnorm_infer(x, *bn, out=out)),
        ("prelu", lambda out=None: prelu(x, slopes, out=out)),
        ("add", lambda out=None: add(x, x[::-1].copy(), out=out)),
        ("concat_channels",
         lambda out=None: concat_channels(x, x[:2].copy(), out=out)),
        ("pad_channels", lambda out=None: pad_channels(x, 7, out=out)),
        ("pad_channels_identity", lambda out=None: pad_channels(x, 4, out=out)),
        ("spatial_dropout_infer",
         lambda out=None: spatial_dropout_infer(x, out=out)),
    ]


OUT_CASES = _out_cases()


@pytest.mark.parametrize("name, call", OUT_CASES, ids=[n for n, _ in OUT_CASES])
def test_kernel_writes_into_out_bitwise_as_fresh(name, call):
    fresh = call()
    buf = np.full(fresh.size + 7, np.nan, dtype=F32)  # a slot larger than the value
    out = buf[: fresh.size].reshape(fresh.shape)
    got = call(out=out)
    assert got is out, name
    np.testing.assert_array_equal(out.view(np.int32), fresh.view(np.int32))
    assert np.all(np.isnan(buf[fresh.size:])), f"{name} wrote past its out"


def test_kernel_rejects_out_of_wrong_shape_dtype_or_layout():
    x = np.ones((2, 4, 4), dtype=F32)
    s = np.ones(2, dtype=F32)
    for bad in (np.empty((2, 4, 5), dtype=F32), np.empty((2, 4, 4)),
                np.empty((2, 4, 8), dtype=F32)[:, :, ::2]):
        with pytest.raises(ShapeError, match="out must be"):
            prelu(x, s, out=bad)
        with pytest.raises(ShapeError, match="out must be"):
            add(x, x, out=bad)
