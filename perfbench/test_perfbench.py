"""Self-tests of the benchmark on a tiny-resolution workload.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"tiny-fused": run.Workload("tiny-fused", 19, 16, 32, fused=True),
        "tiny-unfused": run.Workload("tiny-unfused", 19, 16, 32, fused=False)}


def bench(capsys, workload, trace, golden=None):
    run.main(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
              "--seconds", "0.3", "--trace", str(trace)],
             workloads=TINY, golden=golden or {})
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, trace, kind):
    lines, result = bench(capsys, "tiny-fused", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_golden_hash_counts_as_failed(capsys):
    lines, good = bench(capsys, "tiny-fused", 0)
    digest = next(line.split()[-1] for line in lines if "sha256" in line)
    _, ok = bench(capsys, "tiny-fused", 0, golden={"tiny-fused": digest})
    assert ok["correct"] and ok["failed"] == 0
    _, bad = bench(capsys, "tiny-fused", 0, golden={"tiny-fused": "0" * 64})
    assert not bad["correct"]
    # every frame of input 0 fails: the set-ups' first frames at least
    assert bad["failed"] >= run.SETUPS


@pytest.mark.parametrize("workload,compute_nodes", [("tiny-fused", 203),
                                                    ("tiny-unfused", 313)])
def test_kernel_spans_match_compute_nodes(capsys, workload, compute_nodes):
    _, result = bench(capsys, workload, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["stage.attributed"] == 1
    assert sum(v for k, v in m.items() if k.endswith(".calls")) == compute_nodes
    stages = sum(v for k, v in m.items() if k.startswith("stage.") and k.endswith(".ms"))
    assert stages > 0


def test_fails_without_engine_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "unfused-128x256", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
