"""End-to-end command-line tests: the build/analyze/infer/bench pipeline,
frozen report numbers, and the 0/1/2 exit-code contract."""

import re
import subprocess
import sys
import warnings

import numpy as np

from enetcpu import cli, runtime
from enetcpu.cli import main
from enetcpu.enwt import load_weights, save_weights
from enetcpu.pnm import load_labelmap, load_ppm, save_ppm


def run(capsys, *args):
    try:
        code = main([str(a) for a in args])
    except SystemExit as e:  # argparse usage failures
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_image(path, h=64, w=64, seed=0):
    rng = np.random.default_rng(seed)
    save_ppm(rng.random((3, h, w), dtype=np.float32), path)


def test_full_pipeline(tmp_path, capsys):
    model = tmp_path / "m.enwt"
    image = tmp_path / "in.ppm"
    labels = tmp_path / "out.pgm"
    _write_image(image)

    code, out, err = run(capsys, "build", "--classes", 5, "--out", model)
    assert code == 0 and err == ""
    assert "371,396 parameters" in out
    assert model.stat().st_size > 1_000_000

    code, out, err = run(capsys, "infer", "--model", model, "--image", image,
                         "--out", labels)
    assert code == 0 and err == ""
    assert "205 nodes after fusion (was 315)" in out
    lab = load_labelmap(labels)
    assert lab.shape == (64, 64)
    assert lab.min() >= 0 and lab.max() < 5

    code, out, err = run(capsys, "bench", "--model", model,
                         "--height", 64, "--width", 64,
                         "--warmup", 0, "--iters", 1)
    assert code == 0
    assert "iters 1" in out and "fps" in out
    assert "median" in out and "min" in out
    assert "arena" in out and "live-set bound" in out


def test_analyze_report_numbers(capsys):
    code, out, err = run(capsys, "analyze", "--classes", 19,
                         "--height", 360, "--width", 640, "--per-stage")
    assert code == 0 and err == ""
    assert "parameters : 372,306" in out
    assert "MACs       : 1,795,852,800" in out
    assert "3.59 GFLOPs (fma2)" in out
    assert "0.74 MB payload" in out
    for stage in ("initial", "bottleneck1", "bottleneck2", "bottleneck3",
                  "bottleneck4", "bottleneck5", "fullconv"):
        assert stage in out


def test_analyze_mac_convention_halves_flops(capsys):
    _, out_fma, _ = run(capsys, "analyze", "--classes", 19,
                        "--height", 360, "--width", 640)
    _, out_mac, _ = run(capsys, "analyze", "--classes", 19,
                        "--height", 360, "--width", 640,
                        "--convention", "mac")
    assert "3.59 GFLOPs (fma2)" in out_fma
    assert "1.80 GFLOPs (mac)" in out_mac


def test_fp16_build_is_smaller(tmp_path, capsys):
    big = tmp_path / "f32.enwt"
    small = tmp_path / "f16.enwt"
    assert run(capsys, "build", "--classes", 5, "--out", big)[0] == 0
    assert run(capsys, "build", "--classes", 5, "--out", small, "--fp16")[0] == 0
    assert small.stat().st_size < 0.6 * big.stat().st_size


def test_infer_colormap(tmp_path, capsys):
    model, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    labels, color = tmp_path / "l.pgm", tmp_path / "c.ppm"
    palette = tmp_path / "p.txt"
    _write_image(image)
    palette.write_text("".join(f"{i} {i * 40} {i * 30} {i * 20}\n"
                               for i in range(5)))
    run(capsys, "build", "--classes", 5, "--out", model)
    code, out, _ = run(capsys, "infer", "--model", model, "--image", image,
                       "--out", labels, "--colormap", color,
                       "--palette", palette)
    assert code == 0
    assert f"wrote colormap to {color}" in out
    img = load_ppm(color)
    assert img.shape == (3, 64, 64)
    lab = load_labelmap(labels)
    # every colormap pixel is exactly the palette entry of its label
    assert np.array_equal((img[0] * 255).astype(np.int64), lab * 40)


def test_no_fuse_matches_fused_labels(tmp_path, capsys):
    model, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    fused, plain = tmp_path / "fused.pgm", tmp_path / "plain.pgm"
    _write_image(image, seed=3)
    run(capsys, "build", "--classes", 7, "--out", model, "--seed", 2)
    assert run(capsys, "infer", "--model", model, "--image", image,
               "--out", fused)[0] == 0
    code, out, _ = run(capsys, "infer", "--model", model, "--image", image,
                       "--out", plain, "--no-fuse")
    assert code == 0 and "fusion disabled" in out
    a, b = load_labelmap(fused), load_labelmap(plain)
    agreement = np.mean(a == b)
    assert agreement >= 0.999


def test_class_weights_bounds(tmp_path, capsys):
    hist = tmp_path / "h.txt"
    hist.write_text("everything 999999999\nalmost_nothing 1\n")
    code, out, err = run(capsys, "class-weights", "--histogram", hist)
    assert code == 0 and err == ""
    lines = dict(line.split() for line in out.strip().splitlines())
    # p -> 1 gives 1/ln(2.02); p -> 0 approaches 1/ln(1.02)
    assert lines["everything"] == "1.4223"
    assert abs(float(lines["almost_nothing"]) - 50.4983) < 1e-2


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(capsys, "build", "--classes", 1, "--out", "x")[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "build")[0] == 1  # missing required arguments
    assert run(capsys, "class-weights", "--histogram", "h", "--c", "1.0")[0] == 1
    assert run(capsys, "bench", "--model", "m", "--height", 0, "--width", 8)[0] == 1
    assert run(capsys, "bench", "--model", "m", "--height", 8, "--width", 8,
               "--iters", 0)[0] == 1
    code, _, err = run(capsys, "infer", "--model", "m", "--image", "i",
                       "--out", "o", "--colormap", "c.ppm")
    assert code == 1 and "--palette" in err


def test_bench_negative_warmup_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bench", "--model", "m", "--height", 8,
                         "--width", 8, "--warmup", -1)
    assert code == 1 and out == ""
    assert "--warmup" in err and "non-negative" in err and "Traceback" not in err


def test_bench_times_the_fused_graph_unless_no_fuse(tmp_path, capsys, monkeypatch):
    timed = []

    def recording_execute(g, *args, real=cli.execute):
        timed.append(len(g.nodes))
        return real(g, *args)

    monkeypatch.setattr(cli, "execute", recording_execute)
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    bench = ("bench", "--model", model, "--height", 32, "--width", 32,
             "--warmup", 0, "--iters", 1)
    code, out, err = run(capsys, *bench)
    assert code == 0 and err == ""
    assert "graph: 205 nodes after fusion (was 315)" in out
    code, out, err = run(capsys, *bench, "--no-fuse")
    assert code == 0 and err == ""
    assert "graph: 315 nodes (fusion disabled)" in out
    assert timed == [205, 315]


def test_bench_plans_the_graph_once(tmp_path, capsys, monkeypatch):
    # the arena figures come from the plan the timed passes ran on
    planned = []
    for module in (runtime, cli):
        def counting(g, real=module.plan_buffers):
            planned.append(len(g.nodes))
            return real(g)
        monkeypatch.setattr(module, "plan_buffers", counting)
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    code, out, err = run(capsys, "bench", "--model", model, "--height", 32,
                         "--width", 32, "--warmup", 0, "--iters", 1)
    assert code == 0 and err == ""
    # the plan the one timed pass ran on; it is the plan stored with the
    # graph, which execute reads without calling plan_buffers again
    assert planned == [205]
    assert re.search(r"^arena \d+\.\d\d MB  live-set bound \d+\.\d\d MB$",
                     out, re.M), out


def test_bench_prints_the_plan_frame_peak(tmp_path, capsys, monkeypatch):
    plans = []

    def recording_plan_buffers(g, real=cli.plan_buffers):
        plans.append(real(g))
        return plans[-1]

    monkeypatch.setattr(cli, "plan_buffers", recording_plan_buffers)
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    code, out, err = run(capsys, "bench", "--model", model, "--height", 32,
                         "--width", 32, "--warmup", 0, "--iters", 1)
    assert code == 0 and err == ""
    line = re.search(r"^frame peak (\d+\.\d\d) MB \(values, window codes and "
                     r"convolution bands\)$", out, re.M)
    assert line, out
    assert line.group(1) == f"{plans[0].frame_peak_bytes / 1e6:.2f}"


def test_bench_times_the_checked_call_on_the_printed_plan(tmp_path, capsys,
                                                         monkeypatch):
    # every warmup and timed pass validates, as inference does, and runs on
    # the one plan the arena figures come from
    validated, plans, run_on = [], [], []
    monkeypatch.setattr(runtime, "validate", lambda *args, real=runtime.validate:
                        validated.append(1) or real(*args))

    def recording_plan_buffers(g, real=cli.plan_buffers):
        plans.append(real(g))
        return plans[-1]

    def recording_execute(g, store, x, plan, real=cli.execute):
        run_on.append(plan)
        return real(g, store, x, plan)

    monkeypatch.setattr(cli, "plan_buffers", recording_plan_buffers)
    monkeypatch.setattr(cli, "execute", recording_execute)
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    code, out, err = run(capsys, "bench", "--model", model, "--height", 32,
                         "--width", 32, "--warmup", 1, "--iters", 3)
    assert code == 0 and err == ""
    assert "benchmark 3x32x32, warmup 1, iters 3" in out
    assert len(validated) == 4 and len(plans) == 1
    assert len(run_on) == 4 and all(p is plans[0] for p in run_on)
    assert (f"arena {plans[0].peak_bytes / 1e6:.2f} MB  "
            f"live-set bound {plans[0].live_bytes / 1e6:.2f} MB") in out


def test_bench_reports_median_min_and_fps(tmp_path, capsys):
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    code, out, err = run(capsys, "bench", "--model", model, "--height", 32,
                         "--width", 32, "--warmup", 0, "--iters", 4)
    assert code == 0 and err == ""
    line = re.search(r"^median (\d+\.\d\d) ms  min (\d+\.\d\d) ms  "
                     r"(\d+\.\d) fps$", out, re.M)
    assert line, out
    median, low, fps = map(float, line.groups())
    assert 0.0 < low <= median
    # fps is 1000/median before either is rounded for printing
    slack = 1000.0 / median**2 * 0.005 * 1.01 + 0.05
    assert abs(fps - 1000.0 / median) <= slack
    assert "mean" not in out and "std" not in out


def test_bench_prints_the_environment_it_ran_in(tmp_path, capsys, monkeypatch):
    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    code, out, err = run(capsys, "bench", "--model", model, "--height", 32,
                         "--width", 32, "--warmup", 0, "--iters", 1)
    assert code == 0 and err == ""
    line = re.search(r"^numpy (\S+)  blas (\S+) (\S+)  OPENBLAS_NUM_THREADS "
                     r"(\S+)  nproc (\d+)$", out, re.M)
    assert line, out
    numpy_version, blas_name, blas_version, threads, nproc = line.groups()
    assert numpy_version == np.__version__ and threads == "3"
    assert blas_name and blas_version and int(nproc) >= 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    out = run(capsys, "bench", "--model", model, "--height", 32, "--width", 32,
              "--warmup", 0, "--iters", 1)[1]
    assert "  OPENBLAS_NUM_THREADS default  " in out


def test_data_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.enwt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    image = tmp_path / "in.ppm"
    _write_image(image)
    code, _, err = run(capsys, "infer", "--model", bad, "--image", image,
                       "--out", tmp_path / "o.pgm")
    assert code == 2
    assert "bad magic" in err and "offset 0" in err

    model = tmp_path / "m.enwt"
    run(capsys, "build", "--classes", 5, "--out", model)
    odd = tmp_path / "odd.ppm"
    _write_image(odd, h=60, w=50)
    code, _, err = run(capsys, "infer", "--model", model, "--image", odd,
                       "--out", tmp_path / "o.pgm")
    assert code == 2 and "divisible by 8" in err

    code, _, err = run(capsys, "class-weights",
                       "--histogram", tmp_path / "missing.txt")
    assert code == 2 and "cannot read" in err

    # a byte that is not UTF-8 is a data error naming the file, not a crash
    hist, palette = tmp_path / "hist.txt", tmp_path / "p.txt"
    hist.write_bytes(b"sky 10\n\xff 3\n")
    code, _, err = run(capsys, "class-weights", "--histogram", hist)
    assert code == 2 and str(hist) in err and "Traceback" not in err
    palette.write_bytes(b"0 1 2 3\n\xff\n")
    small = tmp_path / "small.ppm"
    _write_image(small, h=32, w=32)
    code, _, err = run(capsys, "infer", "--model", model, "--image", small,
                       "--out", tmp_path / "l.pgm", "--colormap",
                       tmp_path / "c.ppm", "--palette", palette)
    assert code == 2 and str(palette) in err and "Traceback" not in err


def test_non_finite_bn_weight_exits_2_fused_and_unfused(tmp_path, capsys):
    # a BN statistic, a conv weight and a PReLU slope: each NaN must stop
    # inference on both paths instead of reaching the label map
    good, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    _write_image(image)
    run(capsys, "build", "--classes", 5, "--out", good)
    for key in ("bottleneck1.1.ext.conv_bn.gamma", "fullconv.weight",
                "bottleneck1.1.ext.conv_prelu.slopes"):
        store = load_weights(good)
        store[key].flat[3] = np.nan
        model = tmp_path / f"{key}.enwt"
        save_weights(store, model)
        for flags in ([], ["--no-fuse"]):
            labels = tmp_path / f"{key}-out{len(flags)}.pgm"
            code, _, err = run(capsys, "infer", "--model", model, "--image", image,
                               "--out", labels, *flags)
            layer, role = key.rsplit(".", 1)
            assert code == 2 and layer in err and role in err, (key, flags, err)
            assert not labels.exists()


def test_missing_bn_weight_exits_2_fused_and_unfused(tmp_path, capsys):
    good, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    _write_image(image, h=32, w=32)
    run(capsys, "build", "--classes", 5, "--out", good)
    store = load_weights(good)
    del store["bottleneck1.0.ext.proj_bn.var"]
    model = tmp_path / "missing.enwt"
    save_weights(store, model)
    for flags in ([], ["--no-fuse"]):
        labels = tmp_path / f"out{len(flags)}.pgm"
        code, _, err = run(capsys, "infer", "--model", model, "--image", image,
                           "--out", labels, *flags)
        assert code == 2, (flags, err)
        assert "missing weight 'bottleneck1.0.ext.proj_bn.var'" in err
        assert "Traceback" not in err and not labels.exists()


def test_fold_overflow_exits_2_without_a_numpy_warning(tmp_path, capsys):
    # a huge gamma folds into a kernel float32 cannot hold: the fused path
    # refuses it with one error line, and numpy's overflow warning, which a
    # separate process would print to stderr, is not shown above it
    good, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    _write_image(image, h=32, w=32)
    run(capsys, "build", "--classes", 5, "--out", good)
    store = load_weights(good)
    store["bottleneck5.1.ext.expand_bn.gamma"][:] = 3e38
    model = tmp_path / "huge.enwt"
    save_weights(store, model)
    labels = tmp_path / "out.pgm"
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "enetcpu.cli", "infer",
         "--model", str(model), "--image", str(image), "--out", str(labels)],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "cannot fold bottleneck5.1.ext.expand_bn" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and not labels.exists()


def test_a_non_finite_output_exits_2_fused_and_unfused(tmp_path, capsys):
    # a finite weight too large for float32 arithmetic overflows the
    # logits: both paths refuse them with one error line naming the output's
    # producer, no numpy warning and no label map
    good, image = tmp_path / "m.enwt", tmp_path / "in.ppm"
    _write_image(image, h=32, w=32)
    run(capsys, "build", "--classes", 5, "--out", good)
    store = load_weights(good)
    store["initial.conv.weight"].flat[0] = 3e38
    model = tmp_path / "huge.enwt"
    save_weights(store, model)
    for flags in ([], ["--no-fuse"]):
        labels = tmp_path / f"out{len(flags)}.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "infer", "--model", model, "--image",
                               image, "--out", labels, *flags)
        assert code == 2, (flags, err)
        assert err.startswith("error: node fullconv: output holds a non-finite")
        assert err.count("\n") == 1 and not labels.exists()


def test_model_without_classifier_bias_exits_2(tmp_path, capsys):
    model = tmp_path / "notenet.enwt"
    save_weights({"x": np.float32([1.0, 2.0])}, model)
    code, _, err = run(capsys, "bench", "--model", model,
                       "--height", 8, "--width", 8)
    assert code == 2 and "fullconv.bias" in err


def test_scalar_classifier_bias_exits_2_in_infer_and_bench(tmp_path, capsys):
    model, image = tmp_path / "scalar.enwt", tmp_path / "in.ppm"
    save_weights({"fullconv.bias": np.array(3.0, dtype=np.float32)}, model)
    _write_image(image, h=8, w=8)
    for cmd in (("infer", "--image", image, "--out", tmp_path / "o.pgm"),
                ("bench", "--height", 8, "--width", 8)):
        code, _, err = run(capsys, cmd[0], "--model", model, *cmd[1:])
        assert code == 2, (cmd[0], err)
        assert "'fullconv.bias'" in err and "()" in err
        assert "Traceback" not in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "enetcpu.cli", "analyze", "--classes", "19",
         "--height", "360", "--width", "640"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "372,306" in proc.stdout
