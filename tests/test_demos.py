"""The README's demo scripts run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["cost_report.py"], ["memory_planning.py"],
                                  ["segment_image.py", "--out-dir", "."]],
                         ids=["cost_report", "memory_planning", "segment_image"])
def test_demo_exits_0(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0])] + argv[1:],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
