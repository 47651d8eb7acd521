"""The premise under the golden hashes: BLAS's dgemm adds each output's K
products in order, from the first to the last, as a sequential float64 loop
does.  Bitwise outputs, band-height invariance and determinism across BLAS
thread counts all rest on it (see the kernels docstring).

Every (M, K, N) GEMM that the convolutions of the fused and unfused 19-class
graphs run at 3x360x640, planned and unplanned (N is the width of one band,
whose budget the plan sets per node on both paths), is checked on operands
whose in-order sum is known exactly and which the other orders a BLAS might
use change at every output.  The K products of output (i, j) are, in order, +2^60, K-3
terms of 100, -2^60, and a_i*b_j with a_i and b_j in 1..7.  In order, each
100 is lost against 2^60 (the spacing of doubles there is 256), -2^60
cancels the sum to exactly 0, and a_i*b_j is the result.  Summed from
another start, in two runs or in reverse, some 100s add up before they meet
a 2^60 and survive, or a_i*b_j is rounded away beside one, so the output is
another number; test_the_operands_tell_other_orders_apart checks this
against reversal, every split into two runs, 2, 4 and 8 interleaved partial
sums, and pairwise summation.  Every operand is a float32 value, as the
engine's are, so each product is exact in float64 and an FMA changes
nothing.  The check runs in a fresh interpreter per BLAS thread count,
because OpenBLAS reads OPENBLAS_NUM_THREADS once at load time.

Run this file directly with a JSON list of [M, K, N] on stdin to print the
shapes whose product is not the in-order sum, as JSON.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enetcpu import kernels
from enetcpu.graph import build_enet, init_weights
from enetcpu.passes import optimize
from enetcpu.runtime import execute, plan_buffers

BIG = 2.0 ** 30  # a float32 value; BIG * BIG is the 2^60 of every output
UNIT = 10.0  # UNIT * UNIT = 100, under half the spacing of doubles at 2^60


def ordered_operands(m: int, k: int, n: int):
    """Float64 A (m, k) and B (k, n) holding float32 values, and the exact
    in-order sum of every output of A @ B."""
    a = np.arange(m) % 7 + 1.0
    b = np.arange(n) % 7 + 1.0
    left = np.full((m, k), UNIT)
    right = np.full((k, n), UNIT)
    left[:, 0], right[0] = BIG, BIG
    left[:, k - 2], right[k - 2] = BIG, -BIG
    left[:, k - 1], right[k - 1] = a, b
    return left, right, np.outer(a, b)


@functools.lru_cache(maxsize=None)
def network_gemm_shapes() -> tuple[tuple[int, int, int], ...]:
    """(M, K, N) of every GEMM the convolutions of the fused and unfused
    build_enet(19, 360, 640) run, recorded from the engine itself: M from
    the output channels of each _conv_gemm call, K (with any bias row) and
    N from each im2col band it builds.  Only the planned run is recorded:
    an unplanned one bands by the same plan budgets, so it runs the same
    GEMM shapes."""
    seen, rows = set(), []
    conv_gemm, im2col = kernels._conv_gemm, kernels._im2col

    def recording_conv_gemm(x, top, left, kh, kw, stride, dilation, gemms, bias,
                            band=None):
        rows.append(gemms[0][1].shape[0])
        try:
            return conv_gemm(x, top, left, kh, kw, stride, dilation, gemms, bias,
                             band)
        finally:
            rows.pop()

    def recording_im2col(*args):
        cols = im2col(*args)
        seen.add((rows[-1], *cols.shape))
        return cols

    g = build_enet(19, 360, 640)
    w = init_weights(g, seed=0)
    x = np.random.default_rng(0).random((3, 360, 640), dtype=np.float32)
    kernels._conv_gemm, kernels._im2col = recording_conv_gemm, recording_im2col
    try:
        for graph, weights in ((g, w), optimize(g, w)[:2]):
            execute(graph, weights, x, plan_buffers(graph))
    finally:
        kernels._conv_gemm, kernels._im2col = conv_gemm, im2col
    return tuple(sorted(seen))


def out_of_order(shapes) -> list[list[int]]:
    """The [M, K, N] among `shapes` whose A @ B is not the in-order sum."""
    bad = []
    for m, k, n in shapes:
        left, right, want = ordered_operands(m, k, n)
        if not np.array_equal(left @ right, want):
            bad.append([m, k, n])
    return bad


# ---------------------------------------------------------------------------
# the operands

def _in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... in float64, one rounding per addition."""
    acc = np.zeros(terms.shape[1:])
    for term in terms:
        acc += term
    return acc


def _pairwise(terms: np.ndarray) -> np.ndarray:
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def _other_orders(terms: np.ndarray) -> dict[str, np.ndarray]:
    """Sums of the same terms in orders a BLAS might use instead."""
    k = len(terms)
    sums = {"reversed": _in_order(terms[::-1]), "pairwise": _pairwise(terms)}
    for lanes in (2, 4, 8):
        if lanes < k:
            sums[f"{lanes} lanes"] = _in_order(
                np.stack([_in_order(terms[i::lanes]) for i in range(lanes)]))
    head = np.zeros_like(terms)  # head[t]: terms[:t] in order
    for t in range(1, k):
        head[t] = head[t - 1] + terms[t - 1]
    tail = np.zeros_like(terms)  # tail[t]: terms[t:] in order, from 0
    for t in range(k):
        tail[:t + 1] += terms[t]
    # a split before the last term is the in-order sum itself
    for t in range(1, k - 1):
        sums[f"split at {t}"] = head[t] + tail[t]
    return sums


def test_the_operands_tell_other_orders_apart():
    ks = sorted({k for _, k, _ in network_gemm_shapes()})
    for k in ks:
        left, right, want = ordered_operands(7, k, 7)
        terms = left.T[:, :, None] * right[:, None, :]  # (k, 7, 7) products
        assert np.array_equal(_in_order(terms), want), k
        for order, got in _other_orders(terms).items():
            assert (got != want).all(), f"K={k}: {order} matches the in-order sum"


def test_the_shapes_cover_the_deepest_contraction():
    # 3x3 over 32 channels in stages 2 and 3, plus the folded BN's bias row
    shapes = network_gemm_shapes()
    assert max(k for _, k, _ in shapes) == 3 * 3 * 32 + 1
    assert {k for _, k, _ in shapes} >= {288, 289}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_dgemm_sums_k_in_order_for_every_network_shape(threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    shapes = network_gemm_shapes()
    proc = subprocess.run([sys.executable, __file__], env=env,
                          input=json.dumps(shapes), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bad = json.loads(proc.stdout.splitlines()[-1])
    assert bad == [], (f"OPENBLAS_NUM_THREADS={threads}: dgemm did not sum K "
                       f"in order for (M, K, N) in {bad}")


if __name__ == "__main__":
    print(json.dumps(out_of_order(json.load(sys.stdin))))
