"""Naive reference implementations the test-suite uses as oracles.

Everything here is plain nested loops over float64 scalars, deliberately
ignoring performance, so the vectorized engine kernels have an independent
implementation to agree with.  Keep these dumb: no shared code with the
engine, no clever indexing.  The exceptions are stuffed_conv_transpose2d,
argmax_maxpool2x2, sliding_conv_gemm and padded_conv2d /
padded_conv_transpose2d, the engine's earlier zero-stuffing, argmax, im2col
and padded-copy kernels, kept verbatim so the current ones can be checked
against them bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def ref_conv2d(x, w, bias=None, stride=1, pad_h=0, pad_w=0, dilation=1):
    """Direct convolution, zero padding, float64 accumulation."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    ic, h, wd = x.shape
    oc, ic2, kh, kw = w.shape
    assert ic == ic2, "channel mismatch in reference conv"
    eff_kh = dilation * (kh - 1) + 1
    eff_kw = dilation * (kw - 1) + 1
    oh = (h + 2 * pad_h - eff_kh) // stride + 1
    ow = (wd + 2 * pad_w - eff_kw) // stride + 1
    out = np.zeros((oc, oh, ow), dtype=np.float64)
    for o in range(oc):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for c in range(ic):
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * stride - pad_h + ky * dilation
                            ix = ox * stride - pad_w + kx * dilation
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += float(x[c, iy, ix]) * float(w[o, c, ky, kx])
                if bias is not None:
                    acc += float(bias[o])
                out[o, oy, ox] = acc
    return out


def ref_conv_transpose2d(x, w, bias=None, stride=1, pad=0, out_pad=0, pad_w=None):
    """Transposed convolution by explicit scatter-add, float64.  pad pads
    both axes unless pad_w gives the width's own."""
    pad_h = pad
    pad_w = pad if pad_w is None else pad_w
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    ic, h, wd = x.shape
    ic2, oc, kh, kw = w.shape
    assert ic == ic2, "channel mismatch in reference conv_transpose"
    oh = (h - 1) * stride - 2 * pad_h + kh + out_pad
    ow = (wd - 1) * stride - 2 * pad_w + kw + out_pad
    out = np.zeros((oc, oh, ow), dtype=np.float64)
    for c in range(ic):
        for iy in range(h):
            for ix in range(wd):
                v = float(x[c, iy, ix])
                for o in range(oc):
                    for ky in range(kh):
                        for kx in range(kw):
                            oy = iy * stride - pad_h + ky
                            ox = ix * stride - pad_w + kx
                            if 0 <= oy < oh and 0 <= ox < ow:
                                out[o, oy, ox] += v * float(w[c, o, ky, kx])
    if bias is not None:
        for o in range(oc):
            out[o] += float(bias[o])
    return out


def _stuffed_contract(xp, w, stride, dilation):
    """Windowed tensor contraction over an already-padded input, float64."""
    kh, kw = w.shape[2], w.shape[3]
    eff_kh = dilation * (kh - 1) + 1
    eff_kw = dilation * (kw - 1) + 1
    win = sliding_window_view(xp, (eff_kh, eff_kw), axis=(1, 2))
    win = win[:, ::stride, ::stride, ::dilation, ::dilation]
    return np.tensordot(w.astype(np.float64), win.astype(np.float64),
                        axes=([1, 2, 3], [0, 3, 4]))


def _pad_or_crop(a, top, bottom, left, right):
    """np.pad that also accepts negative amounts (crop)."""
    if top < 0:
        a, top = a[:, -top:, :], 0
    if bottom < 0:
        a, bottom = a[:, : a.shape[1] + bottom, :], 0
    if left < 0:
        a, left = a[:, :, -left:], 0
    if right < 0:
        a, right = a[:, :, : a.shape[2] + right], 0
    return np.pad(a, ((0, 0), (top, bottom), (left, right)))


def stuffed_conv_transpose2d(x, w, bias, stride, pad, out_pad=0):
    """The engine's former transposed convolution, kept as a bitwise oracle:
    a stride-1 convolution of the zero-stuffed input with the flipped kernel,
    contracted in float64 and rounded once to float32.  The phase-lowered
    kernel must reproduce its output bit for bit."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    ic, oc, kh, kw = w.shape
    _, h, wd = x.shape
    stuffed = np.zeros((ic, (h - 1) * stride + 1, (wd - 1) * stride + 1),
                       dtype=np.float32)
    stuffed[:, ::stride, ::stride] = x
    stuffed = _pad_or_crop(stuffed, kh - 1 - pad, kh - 1 - pad + out_pad,
                           kw - 1 - pad, kw - 1 - pad + out_pad)
    w_eq = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                                dtype=np.float32)
    out = _stuffed_contract(stuffed, w_eq, stride=1, dilation=1)
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return np.ascontiguousarray(out.astype(np.float32))


SLIDING_BAND = 1 << 19  # the former kernels._BAND


def sliding_im2col(xp: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
                   oh: int, ow: int) -> np.ndarray:
    """Window matrix of an already-padded input: one contiguous float64
    (C*kh*kw, oh*ow) buffer, rows in (channel, ky, kx) order."""
    eff_kh = dilation * (kh - 1) + 1
    eff_kw = dilation * (kw - 1) + 1
    win = sliding_window_view(xp, (eff_kh, eff_kw), axis=(1, 2))
    win = win[:, ::stride, ::stride, ::dilation, ::dilation]
    cols = np.empty((xp.shape[0], kh, kw, oh, ow), dtype=np.float64)
    cols[...] = win.transpose(0, 3, 4, 1, 2)
    return cols.reshape(-1, oh * ow)


def sliding_conv_gemm(xp: np.ndarray, wmat: np.ndarray, bias: Optional[np.ndarray],
                      kh: int, kw: int, stride: int, dilation: int,
                      dst: np.ndarray) -> None:
    """The engine's former kernels._conv_gemm, kept as a bitwise oracle: im2col
    as one 5-D transposed copy out of a sliding-window view, and the bias
    added to the float64 accumulator after the GEMM.  It reads an already
    padded input; padded_conv2d and padded_conv_transpose2d make that copy.

    dst = wmat @ im2col(xp) (+ bias), rounded into dst, a float32
    (oc, oh, ow) view, over bands of equal height of dst's rows, each band's
    im2col plus accumulator at most SLIDING_BAND float64 elements (or one
    row)."""
    oc, oh, ow = dst.shape
    eff_kh = dilation * (kh - 1) + 1
    rows = max(1, SLIDING_BAND // ((wmat.shape[1] + oc) * ow))
    height = -(-oh // -(-oh // rows))  # ceil(oh / number of bands)
    b64 = None if bias is None else bias.astype(np.float64)[:, None]
    for y0 in range(0, oh, height):
        y1 = min(y0 + height, oh)
        band = xp[:, y0 * stride: (y1 - 1) * stride + eff_kh]
        acc = wmat @ sliding_im2col(band, kh, kw, stride, dilation, y1 - y0, ow)
        if b64 is not None:
            acc += b64
        dst[:, y0:y1] = acc.reshape(oc, y1 - y0, ow)
        del acc  # free before the next band's im2col is built


def padded_conv2d(x, w, bias, params, out=None) -> np.ndarray:
    """The engine's former conv2d, kept as a bitwise oracle: an np.pad copy
    of the input, lowered by sliding_conv_gemm.  params is a ConvParams; the
    result goes into `out` when one is given."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    oc, _, kh, kw = w.shape
    _, h, wd = x.shape
    eff_kh = params.dilation * (kh - 1) + 1
    eff_kw = params.dilation * (kw - 1) + 1
    oh = (h + 2 * params.pad_h - eff_kh) // params.stride + 1
    ow = (wd + 2 * params.pad_w - eff_kw) // params.stride + 1
    xp = x if params.pad_h == params.pad_w == 0 else np.pad(
        x, ((0, 0), (params.pad_h, params.pad_h), (params.pad_w, params.pad_w)))
    wmat = np.asarray(w, dtype=np.float32).reshape(oc, -1).astype(np.float64)
    out = np.empty((oc, oh, ow), dtype=np.float32) if out is None else out
    sliding_conv_gemm(xp, wmat, bias, kh, kw, params.stride, params.dilation, out)
    return out


def _phases(n_out, k, stride, pad):
    """The former kernels._phases: (r, first, taps, base, count) per phase."""
    for r in range(min(stride, n_out)):
        first = (k - 1 - r - pad) % stride
        yield (r, first, len(range(first, k, stride)),
               (r + pad - k + 1 + first) // stride, len(range(r, n_out, stride)))


def _phase_padding(phases, n_in):
    """Zeros to put before and after the input so every phase's reads fit."""
    reads = [(base, base + count + taps - 1)  # [first, end) input index
             for _, _, taps, base, count in phases if taps]
    return (max([0] + [-first for first, _ in reads]),
            max([0] + [end - n_in for _, end in reads]))


def padded_conv_transpose2d(x, w, bias, params, out=None) -> np.ndarray:
    """The engine's former conv_transpose2d, kept as a bitwise oracle: an
    np.pad copy of the input that fits every sub-pixel phase's reads, and
    one sliding_conv_gemm per phase over its own window of that copy; the
    result goes into `out` when one is given."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    _, oc, kh, kw = w.shape
    _, h, wd = x.shape
    stride = params.stride
    oh = (h - 1) * stride - 2 * params.pad_h + kh + params.out_pad
    ow = (wd - 1) * stride - 2 * params.pad_w + kw + params.out_pad
    rows = list(_phases(oh, kh, stride, params.pad_h))
    cols = list(_phases(ow, kw, stride, params.pad_w))
    top, bottom = _phase_padding(rows, h)
    left, right = _phase_padding(cols, wd)
    xp = x if top == bottom == left == right == 0 else np.pad(
        x, ((0, 0), (top, bottom), (left, right)))
    w_flip = np.asarray(w, dtype=np.float32)[:, :, ::-1, ::-1]
    out = np.empty((oc, oh, ow), dtype=np.float32) if out is None else out
    for ry, fy, ty, by, ny in rows:
        for rx, fx, tx, bx, nx in cols:
            phase = out[:, ry::stride, rx::stride]
            if not ty or not tx:  # no tap reaches this phase
                phase[...] = 0.0 if bias is None else bias[:, None, None]
                continue
            sub = w_flip[:, :, fy::stride, fx::stride]
            wmat = sub.transpose(1, 0, 2, 3).reshape(oc, -1).astype(np.float64)
            window = xp[:, top + by: top + by + ny + ty - 1,
                        left + bx: left + bx + nx + tx - 1]
            sliding_conv_gemm(window, wmat, bias, ty, tx, 1, 1, phase)
    return out


def ref_maxpool2x2(x):
    """2x2 stride-2 max pooling; indices are flat positions in the source
    plane, ties broken toward the smallest flat index."""
    x = np.asarray(x)
    c, h, w = x.shape
    assert h % 2 == 0 and w % 2 == 0
    values = np.zeros((c, h // 2, w // 2), dtype=x.dtype)
    indices = np.zeros((c, h // 2, w // 2), dtype=np.int64)
    for ch in range(c):
        for oy in range(h // 2):
            for ox in range(w // 2):
                best = None
                best_flat = -1
                for wy in range(2):
                    for wx in range(2):
                        iy, ix = 2 * oy + wy, 2 * ox + wx
                        v = x[ch, iy, ix]
                        if best is None or v > best:
                            best = v
                            best_flat = iy * w + ix
                values[ch, oy, ox] = best
                indices[ch, oy, ox] = best_flat
    return values, indices


def argmax_maxpool2x2(x):
    """The engine's former max pooling, kept as a bitwise oracle: argmax over
    each window's four cells in flat-index order, then the value at that
    index.  The phase-view kernel must reproduce its values and indices bit
    for bit, signed zeros and NaN included."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    c, h, w = x.shape
    windows = (x.reshape(c, h // 2, 2, w // 2, 2)
                .transpose(0, 1, 3, 2, 4)
                .reshape(c, h // 2, w // 2, 4))
    # window cells in (wy, wx) order are strictly increasing in flat source
    # index, so argmax's first-occurrence rule is the tie-break we want
    k = windows.argmax(axis=3)
    values = np.take_along_axis(windows, k[..., None], axis=3)[..., 0]
    yy = np.arange(h // 2)[None, :, None]
    xx = np.arange(w // 2)[None, None, :]
    indices = ((2 * yy + (k >> 1)) * w + (2 * xx + (k & 1))).astype(np.int64)
    return np.ascontiguousarray(values), np.ascontiguousarray(indices)


def codes_to_flat(codes, w):
    """Flat positions, in a source plane of width w, of the cells that 2x2
    window codes 0..3 (2*row + col) name: the oracles' index format."""
    codes = np.asarray(codes, dtype=np.int64)
    yy = np.arange(codes.shape[1])[None, :, None]
    xx = np.arange(codes.shape[2])[None, None, :]
    return (2 * yy + (codes >> 1)) * w + 2 * xx + (codes & 1)


def ref_max_unpool2x2(values, indices, out_h, out_w):
    """Scatter pooled values back to their recorded flat positions."""
    values = np.asarray(values)
    c, h, w = values.shape
    out = np.zeros((c, out_h, out_w), dtype=values.dtype)
    for ch in range(c):
        for y in range(h):
            for x in range(w):
                flat = int(indices[ch, y, x])
                out[ch, flat // out_w, flat % out_w] = values[ch, y, x]
    return out


def ref_batchnorm(x, gamma, beta, mean, var, eps):
    """Per-channel affine normalization, scalar float64 math."""
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.zeros_like(x)
    for ch in range(c):
        s = float(gamma[ch]) / np.sqrt(float(var[ch]) + eps)
        for y in range(h):
            for xx in range(w):
                out[ch, y, xx] = (x[ch, y, xx] - float(mean[ch])) * s + float(beta[ch])
    return out


def ref_prelu(x, slopes):
    """Per-channel parametric ReLU in float64."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for ch in range(x.shape[0]):
        a = float(slopes[ch])
        plane = x[ch]
        out[ch] = np.where(plane >= 0, plane, a * plane)
    return out


# ---------------------------------------------------------------------------
# random-instance helpers shared by the kernel tests

def rand_input(rng, c, h, w):
    """float32 activations in [-1, 1)."""
    return (rng.random((c, h, w), dtype=np.float32) * 2.0 - 1.0).astype(np.float32)


def rand_conv_weight(rng, oc, ic, kh, kw):
    """float32 weights scaled by 1/sqrt(fan-in), like a trained layer."""
    fan_in = ic * kh * kw
    return (rng.standard_normal((oc, ic, kh, kw)) / np.sqrt(fan_in)).astype(np.float32)


def rand_tconv_weight(rng, ic, oc, kh, kw):
    fan_in = ic * kh * kw
    return (rng.standard_normal((ic, oc, kh, kw)) / np.sqrt(fan_in)).astype(np.float32)


def rand_bias(rng, n):
    return (rng.random(n, dtype=np.float32) - 0.5).astype(np.float32)
