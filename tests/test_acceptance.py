"""Acceptance gate: one test per shipping criterion, each printing a single
pass/fail line and enforcing a wall-clock budget.

Run with `pytest -s tests/test_acceptance.py` to see the lines while passing;
on failure the line is shown in the captured output.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from enetcpu.analyzer import (
    FlopConvention,
    bound_class_weights,
    compute_class_weights,
    count_flops,
    count_params,
    model_size_fp16,
    ClassHistogram,
)
from enetcpu.cli import main as cli_main
from enetcpu.graph import build_enet, infer_shapes, init_weights
from enetcpu.kernels import ConvParams, conv2d, conv_transpose2d
from enetcpu.passes import optimize
from enetcpu.pnm import load_labelmap, save_ppm
from enetcpu.runtime import execute, plan_buffers
from enetcpu.tensor import Shape
from reference import (
    rand_bias,
    rand_conv_weight,
    rand_input,
    rand_tconv_weight,
    ref_conv2d,
    ref_conv_transpose2d,
)
from test_kernels import _conv_cases


@contextmanager
def _criterion(number, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= limit_s:
        print(f"[criterion {number}] {name}: FAIL "
              f"(took {elapsed:.2f}s, budget {limit_s:g}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_s:g}s budget: {elapsed:.2f}s")
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_topology_and_output_shapes():
    with _criterion(1, "layer topology and output shapes", limit_s=5.0):
        g = build_enet(19, 512, 512)
        shapes = infer_shapes(g)

        def out_of(name):
            return shapes[g.find(name).id]

        assert out_of("initial.prelu") == Shape(16, 256, 256)
        assert out_of("bottleneck1.0.prelu") == Shape(64, 128, 128)
        assert out_of("bottleneck2.0.prelu") == Shape(128, 64, 64)
        assert out_of("bottleneck3.8.prelu") == Shape(128, 64, 64)
        assert out_of("bottleneck4.0.prelu") == Shape(64, 128, 128)
        assert out_of("bottleneck5.1.prelu") == Shape(16, 256, 256)
        assert shapes[g.output_node.id] == Shape(19, 512, 512)
        # module census: initial + 27 bottlenecks + fullconv
        stages = {n.stage for n in g.nodes} - {"input", "output"}
        assert stages == {"initial", "bottleneck1", "bottleneck2",
                          "bottleneck3", "bottleneck4", "bottleneck5",
                          "fullconv"}
        blocks = {".".join(n.name.split(".")[:2]) for n in g.nodes
                  if n.name.startswith("bottleneck")}
        assert len(blocks) == 27
        # resolution generality at the native evaluation size
        g2 = build_enet(19, 360, 640)
        assert infer_shapes(g2)[g2.output_node.id] == Shape(19, 360, 640)


def test_criterion_2_parameter_and_size_budget():
    with _criterion(2, "parameter count and fp16 model size", limit_s=5.0):
        g = build_enet(19, 512, 512)
        params = count_params(g)
        assert params == 372_306
        assert abs(params / 1e6 - 0.37) < 0.005
        size = model_size_fp16(g)
        assert size.payload_bytes == 2 * params
        assert 0.6 <= size.payload_mb <= 0.85  # the 0.7 MB reference budget
        assert size.container_bytes > size.payload_bytes


def test_criterion_3_compute_budget():
    with _criterion(3, "multiply-add budget at 3x360x640", limit_s=5.0):
        g = build_enet(19, 360, 640)
        rep = count_flops(g, FlopConvention.FMA2)
        assert rep.total_macs == 1_795_852_800
        gflops = rep.total_flops / 1e9
        assert 0.8 * 3.83 <= gflops <= 1.2 * 3.83  # 3.83 GFLOPs reference +-20%
        assert rep.conv_macs() / rep.total_macs > 0.9


def test_criterion_4_kernel_oracle_parity():
    with _criterion(4, "convolution kernels match naive oracles", limit_s=60.0):
        cases = _conv_cases()
        assert len(cases) >= 100
        rng = np.random.default_rng(4242)
        worst = 0.0
        for kh, kw, s, ph, pw, d, ic, oc, h, w in cases:
            x = rand_input(rng, ic, h, w)
            wt = rand_conv_weight(rng, oc, ic, kh, kw)
            b = rand_bias(rng, oc)
            p = ConvParams(out_channels=oc, kernel_h=kh, kernel_w=kw,
                           stride=s, pad_h=ph, pad_w=pw, dilation=d,
                           has_bias=True)
            got = conv2d(x, wt, b, p)
            want = ref_conv2d(x, wt, bias=b, stride=s, pad_h=ph, pad_w=pw,
                              dilation=d)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-6, f"worst conv deviation {worst:.3e}"

        worst_t = 0.0
        count = 0
        for _ in range(100):
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            pad = int(rng.integers(0, k))
            op = int(rng.integers(0, s))
            ic = int(rng.integers(1, 6))
            oc = int(rng.integers(1, 6))
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            x = rand_input(rng, ic, h, w)
            wt = rand_tconv_weight(rng, ic, oc, k, k)
            if s * (h - 1) + k - 2 * pad + op < 1:
                continue
            got = conv_transpose2d(x, wt, None, ConvParams(
                out_channels=oc, kernel_h=k, kernel_w=k, stride=s, pad_h=pad,
                pad_w=pad, out_pad=op))
            want = ref_conv_transpose2d(x, wt, stride=s, pad=pad, out_pad=op)
            worst_t = max(worst_t, float(np.max(np.abs(got - want))))
            count += 1
        assert count >= 80
        assert worst_t <= 1e-6, f"worst deconv deviation {worst_t:.3e}"

        # adjointness: <conv(x), y> == <x, conv_transpose(y)> per 30 trials
        for _ in range(30):
            s = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            pad = int(rng.integers(0, k))
            ic, oc = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h = int(rng.integers(k + pad + 2, 12))
            w = h + s * int(rng.integers(0, 3))
            x = rand_input(rng, ic, h, w)
            wt = rand_conv_weight(rng, oc, ic, k, k)
            fwd = ConvParams(out_channels=oc, kernel_h=k, kernel_w=k,
                             stride=s, pad_h=pad, pad_w=pad)
            y = rand_input(rng, oc, *fwd.conv_out_hw(h, w))
            out_pad = (h + 2 * pad - k) % s
            lhs = float(np.vdot(conv2d(x, wt, None, fwd).astype(np.float64),
                                y.astype(np.float64)))
            back = conv_transpose2d(y, wt, None, ConvParams(
                out_channels=ic, kernel_h=k, kernel_w=k, stride=s, pad_h=pad,
                pad_w=pad, out_pad=out_pad))
            rhs = float(np.vdot(x.astype(np.float64), back.astype(np.float64)))
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs), abs(rhs))


def test_criterion_5_fusion_soundness():
    with _criterion(5, "fused graph reproduces unfused outputs", limit_s=120.0):
        g = build_enet(6, 64, 64)
        store = init_weights(g, seed=11)
        # perturb the normalization statistics so folding is not a no-op
        rng = np.random.default_rng(12)
        for name in list(store):
            if name.endswith(".mean"):
                store[name] = rng.uniform(-0.4, 0.4, store[name].shape).astype(
                    np.float32)
            elif name.endswith(".var"):
                store[name] = rng.uniform(0.6, 1.6, store[name].shape).astype(
                    np.float32)
            elif name.endswith(".gamma"):
                store[name] = rng.uniform(0.7, 1.3, store[name].shape).astype(
                    np.float32)
            elif name.endswith(".beta"):
                store[name] = rng.uniform(-0.3, 0.3, store[name].shape).astype(
                    np.float32)
        x = rand_input(rng, 3, 64, 64)
        base = execute(g, store, x)
        g2, store2, report = optimize(g, store)
        fused = execute(g2, store2, x)
        assert len(g2.nodes) < len(g.nodes)
        assert len(report.removed) == len(g.nodes) - len(g2.nodes)
        assert not any(n.name.endswith(".ext.dropout") for n in g2.nodes)
        np.testing.assert_allclose(fused, base, rtol=1e-4, atol=1e-4,
                                   equal_nan=False)


def test_criterion_6_determinism_and_planned_execution():
    with _criterion(6, "deterministic, memory-planned execution", limit_s=120.0):
        g = build_enet(5, 128, 128)
        store = init_weights(g, seed=3)
        rng = np.random.default_rng(4)
        x = rand_input(rng, 3, 128, 128)
        plan = plan_buffers(g)
        a = execute(g, store, x)
        b = execute(g, store, x)
        c = execute(g, store, x, plan)
        d = execute(g, store, x, plan, poison=True)
        assert a.dtype == np.float32
        for other in (b, c, d):
            assert np.array_equal(a.view(np.uint32), other.view(np.uint32))
        assert plan.peak_bytes < plan.no_reuse_bytes / 4
        assert len(plan.retained) == 2  # pooling indices for the decoder


def test_criterion_7_class_weighting():
    with _criterion(7, "bounded inverse-log class weights", limit_s=5.0):
        lo, hi = bound_class_weights(1.02)
        assert abs(lo - 1.42227) < 1e-4   # 1 / ln(2.02)
        assert abs(hi - 50.49832) < 1e-4  # 1 / ln(1.02)
        probs = np.float64([0.5, 0.3, 0.15, 0.04, 0.009, 0.001])
        counts = (probs * 1_000_000).astype(np.int64)
        hist = ClassHistogram(labels=tuple(f"c{i}" for i in range(6)),
                              counts=counts)
        w = compute_class_weights(hist)
        assert np.all(np.diff(w) > 0)  # rarer class, larger weight
        assert np.all((w >= lo - 1e-9) & (w <= hi + 1e-9))


def test_criterion_8_cli_pipeline(tmp_path, capsys):
    with _criterion(8, "command-line build/infer/bench pipeline", limit_s=60.0):
        model = tmp_path / "m.enwt"
        image = tmp_path / "in.ppm"
        labels = tmp_path / "out.pgm"
        rng = np.random.default_rng(8)
        save_ppm(rng.random((3, 64, 64), dtype=np.float32), image)

        assert cli_main(["build", "--classes", "4", "--out", str(model)]) == 0
        assert cli_main(["infer", "--model", str(model), "--image", str(image),
                         "--out", str(labels)]) == 0
        lab = load_labelmap(labels)
        assert lab.shape == (64, 64) and lab.max() < 4
        assert cli_main(["bench", "--model", str(model), "--height", "64",
                         "--width", "64", "--warmup", "0", "--iters", "1"]) == 0

        bad = tmp_path / "bad.enwt"
        bad.write_bytes(b"NOPE")
        assert cli_main(["infer", "--model", str(bad), "--image", str(image),
                         "--out", str(labels)]) == 2
        odd = tmp_path / "odd.ppm"
        save_ppm(np.zeros((3, 36, 36), np.float32), odd)
        assert cli_main(["infer", "--model", str(model), "--image", str(odd),
                         "--out", str(labels)]) == 2
        with pytest.raises(SystemExit) as exc:
            cli_main(["build", "--classes", "1", "--out", str(model)])
        assert exc.value.code == 1
        capsys.readouterr()  # drop the CLI chatter from the criterion line
