"""CPU kernels for every operator the network graph can contain.

All kernels take and return float32 CHW arrays.  Convolutions contract in
float64 and round back to float32 once, so results are deterministic
run-to-run and land within one float32 rounding of an exact-accumulation
reference regardless of BLAS summation order.

Every kernel takes an optional `out`: a C-contiguous float32 array of the
result's shape.  For prelu, add, batchnorm_infer and spatial_dropout_infer,
`out` may cover exactly the first input's bytes (for add, either addend's),
so the result is written over it; otherwise it must not overlap any input.
Given one, the kernel writes its result there and returns it; without one it
returns a fresh array, or, in the identity cases of pad_channels and
spatial_dropout_infer, their input uncopied.  Float64 accumulators are
rounded in by assignment, which rounds exactly as astype(float32) does, so
both forms give the same bits.

maxpool2x2, max_unpool2x2 and prelu choose between float32 values with
_select, an integer select on their bits, b ^ ((a ^ b) & -mask), instead of
np.where, whose data-dependent branch made it 3-4x slower.  It picks the
chosen operand's bits exactly, so signed zeros, denormals, infinities and NaN
come through as np.where would give them.  prelu multiplies each strip by its
slopes into a temporary t, then writes np.maximum(x, t) when every slope of
the strip is in (0, 1], and the select of x where x >= 0, else t, otherwise.

prelu, batchnorm_infer, maxpool2x2 and max_unpool2x2 run over strips of
whole channels, each about _STRIP elements of their input (of the pooled
plane for the two pooling kernels), so their temporaries stay in L2.
maxpool2x2 copies each window row's two cells out of their strided views
into one contiguous two-plane buffer before it compares them.

batchnorm_infer takes a batch norm as the per-channel float64 scale and
shift that graph.bn_affine derives from its statistics, the same pair the
fold writes into a convolution; no kernel checks weight values, which
passes.validate does once for both paths.

Convolutions are lowered to float64 GEMM (Chellapilla et al., 2006) and take
their geometry from ConvParams, as shape inference does.  conv2d fills a
contiguous (C*kh*kw, rows*ow) im2col matrix with one strided copy per kernel
tap, a (C, rows, ow) view of the unpadded input whose rows land contiguously,
and writes 0.0 over the rows and columns of the tap that fall in the padding,
so no padded copy of the input is made.  It multiplies the (oc, C*kh*kw)
weight matrix into that matrix over bands of output rows of equal height:
each band's im2col plus its accumulator holds at most `band` float64
elements, or one row when `band` is smaller, and is freed before the next
band is built.  band_row gives that row for a whole convolution node.
execute passes each convolution the budget its plan gives it, the headroom
under the frame's peak but never less than one row (see runtime), so every
band fits its budget there; a call without one runs as one band.  Each
GEMM widens its float32 weights once, into one float64 matrix.  A bias is
the GEMM's last K term, that matrix's last column times a last im2col row
of 1.0, so no separate pass adds it to the accumulator.  Where BLAS sums
each output's K terms in order, each sum ends with s + bias*1.0 rounded once,
the bits a separate float64 add gives, and each output element is one dot
product over the same K terms in the same order whatever the band, so its
bits do not depend on the band height.  BLAS does not promise that order.
This OpenBLAS (0.3.31, run-time core SkylakeX) keeps it only up to K = 384,
and only in whole blocks of 8 output columns: from K = 385 it sums K in
blocks, and in a band whose width N is not a multiple of 8 the last N mod 8
columns can be summed in another order.  Every ENet convolution at 3x360x640
meets both: its deepest K is 289 and every band width is a multiple of 8.
tests/test_gemm_order.py checks the order for each of those GEMM shapes at
1, 2 and 3 BLAS threads, tests/test_conv_lowering.py the bias bits on every
network convolution, and the band tests and golden hashes the band
invariance.  At an input size with band widths that are not multiples of 8,
band height can change the last bits of a float64 sum, and so, in the rare
case that the rounding to float32 does not hide them, an output's bits.
conv_transpose2d is lowered by sub-pixel phase (Dumoulin & Visin, arXiv
1603.07285, section 4): the outputs with (Y mod stride, X mod stride) =
(ry, rx) are reached only by the kernel taps with ky = Y + pad_h and
kx = X + pad_w (mod stride), so each phase is one stride-1 im2col GEMM of the
un-stuffed input with that sub-kernel, banded as conv2d's and rounded into
the phase's strided view of the output.  Phases that read the same input
window share its im2col: each band of it is built once and serves their GEMMs
in turn, one accumulator at a time (fullconv's 2x2 stride-2 kernel has four
phases over one window).  No product with an inserted zero is formed.  The
taps keep the order in which the zero-stuffed formulation summed them (input
channel, then ky and kx descending) and only its exact-zero terms are
dropped, so its float32 output is reproduced bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CorruptIndicesError, ShapeError

F32 = np.float32
_STRIP = 1 << 16  # elements per strip of the strip-wise kernels: temporaries fit in L2


@dataclass(frozen=True)
class ConvParams:
    """Static geometry of a convolution node.

    Kernel dims live here (not just in the weight array) so shape inference
    and cost analysis work without weights.  dilation > 1 is only supported
    at stride 1, which is the only combination the architecture uses.
    """

    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    pad_h: int = 0
    pad_w: int = 0
    dilation: int = 1
    has_bias: bool = False
    out_pad: int = 0  # transposed convolutions only

    def __post_init__(self):
        if self.out_channels < 1:
            raise ShapeError(f"out_channels must be >= 1, got {self.out_channels}")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ShapeError(f"kernel dims must be >= 1, got {self.kernel_h}x{self.kernel_w}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ShapeError(f"padding must be >= 0, got ({self.pad_h}, {self.pad_w})")
        if self.dilation < 1:
            raise ShapeError(f"dilation must be >= 1, got {self.dilation}")
        if self.dilation > 1 and self.stride != 1:
            raise ShapeError("dilation > 1 requires stride 1")
        if not 0 <= self.out_pad < self.stride:
            raise ShapeError(f"out_pad must be in [0, stride), got {self.out_pad}")

    def conv_out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output dims of a forward convolution over an h x w input."""
        eff_kh = self.dilation * (self.kernel_h - 1) + 1
        eff_kw = self.dilation * (self.kernel_w - 1) + 1
        oh = (h + 2 * self.pad_h - eff_kh) // self.stride + 1
        ow = (w + 2 * self.pad_w - eff_kw) // self.stride + 1
        if h + 2 * self.pad_h < eff_kh or w + 2 * self.pad_w < eff_kw:
            raise ShapeError(
                f"kernel {eff_kh}x{eff_kw} does not fit {h}x{w} input with "
                f"padding ({self.pad_h}, {self.pad_w})"
            )
        return oh, ow

    def tconv_out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output dims of a transposed convolution over an h x w input."""
        if self.dilation != 1:
            raise ShapeError("transposed convolution does not support dilation")
        oh = (h - 1) * self.stride - 2 * self.pad_h + self.kernel_h + self.out_pad
        ow = (w - 1) * self.stride - 2 * self.pad_w + self.kernel_w + self.out_pad
        if oh < 1 or ow < 1:
            raise ShapeError(f"transposed conv output would be {oh}x{ow}")
        return oh, ow


class PoolResult(NamedTuple):
    """Pooled activations plus, for each, the uint8 window code 0..3
    (2*row + col) of the cell its maximum came from."""

    values: np.ndarray
    codes: np.ndarray


def _chw(x: np.ndarray, what: str = "input") -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"{what} must be CHW, got ndim={x.ndim}")
    return np.ascontiguousarray(x, dtype=F32)


def _out(out: Optional[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """`out` checked against the result shape, or a fresh float32 array."""
    if out is None:
        return np.empty(shape, dtype=F32)
    if out.shape != tuple(shape) or out.dtype != F32 or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous float32 array of shape "
                         f"{tuple(shape)}, got {out.dtype} {out.shape}")
    return out


def _into(out: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
    """The float32 array x copied into `out`, or x itself without one."""
    if out is None:
        return x
    _out(out, x.shape)[...] = x
    return out


def _select(take: np.ndarray, a: np.ndarray, b: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """out = a where take else b, bit for bit, with no data-dependent branch.
    a, b and out are float32 (any strides; b may broadcast), take is bool;
    out may be a or b."""
    bits = np.bitwise_xor(a.view(np.int32), b.view(np.int32))
    bits &= -take.view(np.int8)
    np.bitwise_xor(bits, b.view(np.int32), out=out.view(np.int32))
    return out


def _strips(c: int, h: int, w: int) -> list[slice]:
    """Slices of whole channels of a (c, h, w) array, each holding about
    _STRIP elements (at least one channel)."""
    step = max(1, _STRIP // max(1, h * w))
    return [slice(i, i + step) for i in range(0, c, step)]


def _span(start: int, n: int, stride: int, size: int) -> tuple[int, int]:
    """The outputs j in [lo, hi) of 0..n-1 whose input index start + j*stride
    lies in 0..size-1 (lo == hi when none does)."""
    lo = min(n, max(0, -(start // stride)))  # ceil(-start / stride)
    return lo, max(lo, min(n, (size - 1 - start) // stride + 1))


def _im2col(x: np.ndarray, top: int, left: int, kh: int, kw: int,
            stride: int, dilation: int, y0: int, oh: int, ow: int,
            ones: bool) -> np.ndarray:
    """Window matrix of output rows y0 .. y0+oh-1 of a convolution whose tap
    (ky, kx) reads the unpadded input x at (y*stride + ky*dilation - top,
    x*stride + kx*dilation - left), zero outside it: one contiguous float64
    (C*kh*kw, oh*ow) buffer, rows in (channel, ky, kx) order.  Each tap
    copies the in-range part of a strided (C, oh, ow) view of x and writes
    0.0 over the rows and columns that fall outside; with `ones`, one more
    row of 1.0 multiplies the bias column of the weight matrix."""
    c, h, w = x.shape
    k = c * kh * kw
    cols = np.empty((k + 1 if ones else k, oh * ow), dtype=np.float64)
    taps = cols[:k].reshape(c, kh, kw, oh, ow)
    for ky in range(kh):
        sy = y0 * stride + ky * dilation - top
        j0, j1 = _span(sy, oh, stride, h)
        for kx in range(kw):
            sx = kx * dilation - left
            i0, i1 = _span(sx, ow, stride, w)
            tap = taps[:, ky, kx]
            if j0:
                tap[:, :j0] = 0.0
            if j1 < oh:
                tap[:, j1:] = 0.0
            if i0:
                tap[:, j0:j1, :i0] = 0.0
            if i1 < ow:
                tap[:, j0:j1, i1:] = 0.0
            if j0 < j1 and i0 < i1:
                tap[:, j0:j1, i0:i1] = x[
                    :, sy + j0 * stride: sy + (j1 - 1) * stride + 1: stride,
                    sx + i0 * stride: sx + (i1 - 1) * stride + 1: stride]
    if ones:
        cols[-1] = 1.0
    return cols


def _conv_operands(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray],
                   params: ConvParams, transposed: bool) -> np.ndarray:
    """Check a convolution's operands against its params and return x as a
    float32 CHW array.  Weights are (out, in, kh, kw), or (in, out, kh, kw)
    when transposed."""
    x = _chw(x)
    if w.ndim != 4:
        raise ShapeError(f"conv weight must be 4D, got ndim={w.ndim}")
    ic, oc = (w.shape[0], w.shape[1]) if transposed else (w.shape[1], w.shape[0])
    if (oc, *w.shape[2:]) != (params.out_channels, params.kernel_h, params.kernel_w):
        raise ShapeError(
            f"weight shape {w.shape} disagrees with params "
            f"({params.out_channels},{params.kernel_h},{params.kernel_w})"
        )
    if x.shape[0] != ic:
        raise ShapeError(f"input has {x.shape[0]} channels, weight expects {ic}")
    if params.has_bias != (bias is not None):
        raise ShapeError("bias presence does not match params.has_bias")
    if bias is not None and bias.shape != (oc,):
        raise ShapeError(f"bias must be ({oc},), got {bias.shape}")
    return x


def _gemm_row(k: int, oc: int, ow: int) -> int:
    """Float64 elements one output row of a _conv_gemm band holds: its k
    im2col rows (a bias's ones row included) and one oc-row accumulator,
    each ow wide."""
    return (k + oc) * ow


def band_row(c: int, h: int, w: int, params: ConvParams, *,
             transposed: bool = False, asymmetric: bool = False) -> int:
    """Float64 elements one output row of a band holds in the convolution
    of a (c, h, w) input that `params` describe: conv2d's GEMM, the widest
    window group of conv_transpose2d, or the larger of conv_asymmetric5's
    two passes.  A budget of at least this many elements bounds every band
    the convolution builds."""
    if asymmetric:
        p1, p2 = _asymmetric_passes(params.out_channels, params.out_channels,
                                    params.has_bias)
        return max(band_row(c, h, w, p1), band_row(p1.out_channels, h, w, p2))
    bias, oc = int(params.has_bias), params.out_channels
    if transposed:
        oh, ow = params.tconv_out_hw(h, w)
        ys = [ty for _, _, ty, _, _ in _phases(oh, params.kernel_h, params.stride,
                                               params.pad_h) if ty]
        xs = [(tx, nx) for _, _, tx, _, nx in _phases(ow, params.kernel_w,
                                                      params.stride, params.pad_w) if tx]
        return max((_gemm_row(c * ty * tx + bias, oc, nx) for ty in ys for tx, nx in xs),
                   default=0)
    _, ow = params.conv_out_hw(h, w)
    return _gemm_row(c * params.kernel_h * params.kernel_w + bias, oc, ow)


def _conv_gemm(x: np.ndarray, top: int, left: int, kh: int, kw: int,
               stride: int, dilation: int, gemms: list, bias: Optional[np.ndarray],
               band: Optional[int] = None) -> None:
    """For each (wmat, dst) of `gemms`: dst = wmat @ im2col(x) (+ bias),
    wmat a float32 (oc, K) matrix, rounded into dst, a float32 (oc, oh, ow)
    view, every dst of one shape.  Each wmat is widened here, once, into one
    float64 matrix.  It runs over bands of equal height of the dsts' rows:
    each band's im2col (see _im2col for top and left) is built once and
    serves every GEMM in turn, and it (its ones row included) plus one
    accumulator holds at most `band` float64 elements, or one row (see
    _gemm_row) when `band` is smaller; with None, all rows are one band.

    A bias is the GEMM's last K term: the last column of each widened matrix
    and a row of 1.0 in im2col, so each sum ends with + bias*1.0, rounded
    once."""
    oc, oh, ow = gemms[0][1].shape
    k = gemms[0][0].shape[1]
    wide = []
    for wmat, dst in gemms:
        w64 = np.empty((oc, k if bias is None else k + 1), dtype=np.float64)
        w64[:, :k] = wmat
        if bias is not None:
            w64[:, k] = bias
        wide.append((w64, dst))
    gemms = wide
    rows = oh if band is None else max(1, band // _gemm_row(gemms[0][0].shape[1], oc, ow))
    height = -(-oh // -(-oh // rows))  # ceil(oh / number of bands)
    for y0 in range(0, oh, height):
        y1 = min(y0 + height, oh)
        cols = _im2col(x, top, left, kh, kw, stride, dilation, y0, y1 - y0, ow,
                       bias is not None)
        for wmat, dst in gemms:
            acc = wmat @ cols
            dst[:, y0:y1] = acc.reshape(oc, y1 - y0, ow)
            del acc  # free before the next GEMM's accumulator exists
        del cols  # free before the next band's im2col is built


def conv2d(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray],
           params: ConvParams,
           out: Optional[np.ndarray] = None, *,
           band: Optional[int] = None) -> np.ndarray:
    """2D convolution with zero padding, optional dilation and bias; `band`
    is the float64 scratch budget of each band (see _conv_gemm)."""
    x = _conv_operands(x, w, bias, params, transposed=False)
    oc, _, kh, kw = w.shape
    oh, ow = params.conv_out_hw(x.shape[1], x.shape[2])  # raises if kernel does not fit
    wmat = np.asarray(w, dtype=F32).reshape(oc, -1)
    out = _out(out, (oc, oh, ow))
    _conv_gemm(x, params.pad_h, params.pad_w, kh, kw, params.stride,
               params.dilation, [(wmat, out)], bias, band)
    return out


def _phases(n_out: int, k: int, stride: int, pad: int):
    """Sub-pixel phases of a transposed convolution along one axis.

    Phase r holds the outputs r, r + stride, ...  Yields (r, first, taps,
    base, count): the flipped-kernel taps first, first + stride, ... are the
    `taps` that reach phase r, and output j of the phase reads input
    base + j + t through tap t.
    """
    for r in range(min(stride, n_out)):
        first = (k - 1 - r - pad) % stride
        yield (r, first, len(range(first, k, stride)),
               (r + pad - k + 1 + first) // stride, len(range(r, n_out, stride)))


def conv_transpose2d(x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray],
                     params: ConvParams,
                     out: Optional[np.ndarray] = None, *,
                     band: Optional[int] = None) -> np.ndarray:
    """Transposed convolution (the adjoint of conv2d with the same weights).

    Weight layout is (in_channels, out_channels, kh, kw).  Geometry comes
    from params: per-axis padding, and out_pad, which grows the bottom/right
    edge by up to stride-1 rows/cols so even output sizes are reachable at
    stride 2 with odd kernels.  `band` is as conv2d's.
    """
    x = _conv_operands(x, w, bias, params, transposed=True)
    _, oc, kh, kw = w.shape
    _, h, wd = x.shape
    stride = params.stride
    oh, ow = params.tconv_out_hw(h, wd)
    rows = list(_phases(oh, kh, stride, params.pad_h))
    cols = list(_phases(ow, kw, stride, params.pad_w))
    # taps in ascending flipped order are the zero-stuffed contraction's
    # (channel, ky, kx) order with ky and kx descending, so each float64 sum
    # adds the same nonzero terms in the same order
    w_flip = np.asarray(w, dtype=F32)[:, :, ::-1, ::-1]
    out = _out(out, (oc, oh, ow))
    windows: dict[tuple, list] = {}  # phases by the input window they read
    for ry, fy, ty, by, ny in rows:
        for rx, fx, tx, bx, nx in cols:
            phase = out[:, ry::stride, rx::stride]
            if not ty or not tx:  # no tap reaches this phase
                phase[...] = 0.0 if bias is None else bias[:, None, None]
                continue
            sub = w_flip[:, :, fy::stride, fx::stride]
            wmat = sub.transpose(1, 0, 2, 3).reshape(oc, -1)
            windows.setdefault((by, ty, ny, bx, tx, nx), []).append((wmat, phase))
    for (by, ty, _, bx, tx, _), gemms in windows.items():
        _conv_gemm(x, -by, -bx, ty, tx, 1, 1, gemms, bias, band)
    return out


def _asymmetric_passes(mid: int, oc: int, has_bias: bool
                       ) -> tuple[ConvParams, ConvParams]:
    """The params of conv_asymmetric5's 5x1 pass to `mid` channels and its
    1x5 pass to `oc`, which takes the bias."""
    return (ConvParams(out_channels=mid, kernel_h=5, kernel_w=1, pad_h=2, pad_w=0),
            ConvParams(out_channels=oc, kernel_h=1, kernel_w=5, pad_h=0, pad_w=2,
                       has_bias=has_bias))


def conv_asymmetric5(x: np.ndarray, w5x1: np.ndarray, w1x5: np.ndarray,
                     bias: Optional[np.ndarray],
                     out: Optional[np.ndarray] = None, *,
                     band: Optional[int] = None) -> np.ndarray:
    """Separable 5x5 convolution: a 5x1 pass then a 1x5 pass, one bias.

    Padding is fixed at (2,0) and (0,2) so spatial dims are preserved; the
    optional bias lands after the second pass.  Both passes band their
    scratch to `band`, as conv2d does.
    """
    # the params are read off the kernels, whose every other dimension
    # conv2d checks on each pass
    if w5x1.ndim != 4 or w1x5.ndim != 4:
        raise ShapeError(f"kernels must be 4D, got ndim={w5x1.ndim} and {w1x5.ndim}")
    p1, p2 = _asymmetric_passes(w5x1.shape[0], w1x5.shape[0], bias is not None)
    return conv2d(conv2d(x, w5x1, None, p1, band=band), w1x5, bias, p2, out,
                  band=band)


def _earlier_max(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pick between two cells of each window, `a` the one earlier in the
    source plane: a where a >= b or a is NaN, else b.  This is argmax's
    first-occurrence rule (NaN counts as the maximum).  Returns the mask of
    where a was taken and the picked values, which are exactly the chosen
    cell's bits, whatever the sign of a zero."""
    take = a >= b
    take |= a != a
    return take, _select(take, a, b, _out(out, a.shape))


def maxpool2x2(x: np.ndarray, out: Optional[np.ndarray] = None) -> PoolResult:
    """2x2 stride-2 max pooling; records each max's window code 0..3
    (2*row + col), ties broken toward the smallest code.

    Compares first within each window row, then between the rows' winners.
    Both top-row codes are smaller than both bottom-row codes, so this order
    keeps the smallest-code tie-break exact.  Each row's two cells are first
    copied out of their strided phase views into one contiguous buffer, so
    the comparisons run over contiguous operands."""
    x = _chw(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even dims, got {h}x{w}")
    values = _out(out, (c, h // 2, w // 2))
    codes = np.empty(values.shape, dtype=np.uint8)
    strips = _strips(*values.shape)
    cells = np.empty((2, *(values[strips[0]] if strips else values).shape), dtype=F32)
    for s in strips:
        xs, cs = x[s], codes[s]
        left_cell, right_cell = cells[:, :len(cs)]
        left_cell[...], right_cell[...] = xs[:, 0::2, 0::2], xs[:, 0::2, 1::2]
        top_left, top = _earlier_max(left_cell, right_cell)
        left_cell[...], right_cell[...] = xs[:, 1::2, 0::2], xs[:, 1::2, 1::2]
        bottom_left, bottom = _earlier_max(left_cell, right_cell)
        upper, _ = _earlier_max(top, bottom, values[s])
        left = bottom_left ^ ((bottom_left ^ top_left) & upper)
        np.multiply((~upper).view(np.uint8), np.uint8(2), out=cs)
        cs += (~left).view(np.uint8)
    return PoolResult(values, codes)


def max_unpool2x2(values: np.ndarray, codes: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Put each pooled value back at the cell of its 2x2 window that its
    window code 0..3 (2*row + col) names; every other cell is +0.0.  The
    output is (c, 2h, 2w) for (c, h, w) values."""
    values = _chw(values, "unpool values")
    if codes.dtype != np.uint8 or codes.shape != values.shape:
        raise ShapeError(f"window codes must be uint8 of shape {values.shape}, "
                         f"got {codes.dtype} {codes.shape}")
    c, h, w = values.shape
    if codes.size and codes.max() > 3:
        raise CorruptIndicesError(f"window code {codes.max()} is not in 0..3")
    out = _out(out, (c, 2 * h, 2 * w))
    zero = np.zeros((), dtype=F32)
    for s in _strips(*values.shape):
        vs, cs, os_ = values[s], codes[s], out[s]
        for k in range(4):  # each cell view is written once
            _select(cs == k, vs, zero, os_[:, k >> 1::2, k & 1::2])
    return out


def batchnorm_infer(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Frozen-statistics batch normalization as its per-channel float64
    affine map (graph.bn_affine gives the pair): x*scale[c] + shift[c],
    rounded to float32 once."""
    x = _chw(x)
    if len(scale) != x.shape[0] or len(shift) != x.shape[0]:
        raise ShapeError(f"batchnorm has {len(scale)} scales and {len(shift)} "
                         f"shifts, input {x.shape[0]} channels")
    scale, shift = scale[:, None, None], shift[:, None, None]
    out = _out(out, x.shape)
    strips = _strips(*x.shape)
    acc = np.empty(x[strips[0]].shape if strips else x.shape, dtype=np.float64)
    for s in strips:
        xs = x[s]
        a = acc[:len(xs)]
        a[...] = xs
        a *= scale[s]
        a += shift[s]
        out[s] = a
    return out


def prelu(x: np.ndarray, slopes: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel parametric ReLU: x if x >= 0 else slope[c] * x.

    For a slope s in (0, 1], x >= 0 gives x*s <= x and x < 0 gives
    x*s >= x, so the result is max(x, x*s).  Which operand np.maximum
    returns on a tie does not matter, because a tie carries equal bits:
    s > 0 keeps x's sign, so x*s == x only for x = +-0 with x's own sign, or
    for an equal nonzero value (s = 1, or a product that rounds back to x).
    A NaN x gives a NaN product with its payload, so either operand gives
    np.where's bits for every float32 but a signalling NaN; arithmetic never
    makes one, and execute refuses NaN inputs and weights.  Other slopes take
    the select: at s = 0 an infinite x makes x*s NaN, which the select drops
    but the maximum would keep."""
    x = _chw(x)
    if slopes.ndim != 1 or slopes.shape[0] != x.shape[0]:
        raise ShapeError(
            f"prelu needs one slope per channel ({x.shape[0]}), got {slopes.shape}"
        )
    s = np.ascontiguousarray(slopes, dtype=F32)
    unit = (s > 0) & (s <= 1)
    s = s[:, None, None]
    out = _out(out, x.shape)
    strips = _strips(*x.shape)
    tmp = np.empty(x[strips[0]].shape if strips else x.shape, dtype=F32)
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN; the select drops it
        for c in strips:
            xs = x[c]
            t = tmp[:len(xs)]
            np.multiply(xs, s[c], out=t)  # not into out, which may be x
            if unit[c].all():
                np.maximum(xs, t, out=out[c])
            else:
                _select(xs >= 0, xs, t, out[c])
    return out


def add(a: np.ndarray, b: np.ndarray,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise residual merge."""
    a, b = _chw(a), _chw(b, "second addend")
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return np.add(a, b, out=_out(out, a.shape))


def concat_channels(a: np.ndarray, b: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stack b's channels after a's; spatial dims must agree."""
    a, b = _chw(a), _chw(b, "second input")
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"concat spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate(
        [a, b], axis=0, out=_out(out, (a.shape[0] + b.shape[0], *a.shape[1:])))


def pad_channels(x: np.ndarray, target_channels: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Append zero-filled channel planes up to target_channels."""
    x = _chw(x)
    c = x.shape[0]
    if target_channels < c:
        raise ShapeError(f"cannot pad {c} channels down to {target_channels}")
    if target_channels == c:
        return _into(out, x)
    out = _out(out, (target_channels, x.shape[1], x.shape[2]))
    out[:c] = x
    out[c:] = 0.0
    return out


def spatial_dropout_infer(x: np.ndarray,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inference-mode spatial dropout.  Inverted dropout rescales at train
    time, so at inference this is the identity; it exists as a kernel so an
    un-optimized graph still executes."""
    return _into(out, _chw(x))
