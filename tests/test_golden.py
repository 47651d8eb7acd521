"""Golden-hash gate: the SHA-256 of the full network's logits is pinned.

Any refactor of the kernels, passes or runtime must leave these bytes
unchanged, planned and unplanned.  The weights are init_weights with
batch-norm statistics, biases and PReLU slopes drawn away from their identity
values, so folding and every bias path do real work.  Each hash is checked in a fresh interpreter per BLAS
thread count, because OpenBLAS reads OPENBLAS_NUM_THREADS once at load time.

Run this file directly to print the current hashes as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enetcpu.graph import build_enet, init_weights
from enetcpu.passes import optimize
from enetcpu.runtime import execute, plan_buffers

GOLDEN = {
    "fused": "eab83158c4cb22fa5e7120af6c20f0765f80a2b00b93b02f8276dbaa122ec9a1",
    "unfused": "39f2a6f7609ef41543ad28e55855332aa9fb59cba34555841c9621b4d13d37cb",
}


def _perturbed_weights(g, seed):
    store = init_weights(g, seed)
    rng = np.random.default_rng(seed + 1)
    for key in sorted(store):
        arr = store[key]
        role = key.rsplit(".", 1)[1]
        if role in ("gamma", "var"):
            store[key] = rng.uniform(0.5, 1.5, arr.shape).astype(np.float32)
        elif role in ("beta", "mean", "bias"):
            store[key] = rng.uniform(-0.2, 0.2, arr.shape).astype(np.float32)
        elif role == "slopes":
            store[key] = rng.uniform(0.0, 0.5, arr.shape).astype(np.float32)
    return store


def golden_hashes():
    """SHA-256 of the fused and unfused logits at 19x3x128x256, planned and
    (under "<name> unplanned") with plan=None."""
    g = build_enet(num_classes=19, input_h=128, input_w=256)
    weights = _perturbed_weights(g, seed=0)
    x = np.random.default_rng(2).random((3, 128, 256), dtype=np.float32)
    fg, fw, _ = optimize(g, weights)
    out = {}
    for name, graph, store in (("fused", fg, fw), ("unfused", g, weights)):
        for key, plan in ((name, plan_buffers(graph)),
                          (f"{name} unplanned", None)):
            logits = execute(graph, store, x, plan)
            assert np.all(np.isfinite(logits))
            out[key] = hashlib.sha256(logits.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_logits_match_golden_hashes(threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    want = {**GOLDEN, **{f"{name} unplanned": h for name, h in GOLDEN.items()}}
    assert json.loads(proc.stdout.splitlines()[-1]) == want


if __name__ == "__main__":
    print(json.dumps(golden_hashes()))
