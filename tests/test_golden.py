"""Golden fingerprints: the sha256 of every artifact that a fixed set of
commands writes, so a change that promises identical outputs is checked
against the bytes.

The commands run in one subprocess whose environment pins what decides the
bytes besides the code: one OpenBLAS thread, OpenBLAS's Haswell kernels, and
numpy's SIMD dispatch without AVX-512. `golden.json` also records numpy's and
the BLAS's versions; where either differs here, the test skips. The test never
writes the file. A change that alters the bytes on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which fingerprints moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}
VARIANTS = ("gcn", "gat", "gin", "sage")


def _commands():
    """(run name, argv) of each command, in the order they run."""
    yield "gen0", ["generate", "--subjects", "12", "--seed", "0"]
    yield "gen1", ["generate", "--subjects", "12", "--seed", "1", "--preset", "low-noise"]
    yield "build", ["build", *(f"{{out}}/gen0/subjects/synthetic-{i:04d}.json" for i in range(12))]
    for variant in VARIANTS:
        for classes in ("11", "13"):
            yield f"train-{variant}-{classes}", [
                "train", "--corpus", "{out}/gen0", "--model", variant, "--classes", classes,
                "--epochs", "2"]
    yield "cv", ["cv", "--corpus", "{out}/gen1", "--model", "all", "--classes", "both",
                 "--epochs", "1", "--folds", "3"]
    yield "eval", ["eval", "--checkpoint", "{out}/train-gat-13/gat_13.checkpoint.json",
                   "--corpus", "{out}/gen1"]


def _fingerprints(out: Path) -> dict:
    """Run every command in this process under out, and return the versions
    that decide the bytes with the sha256 of each artifact but manifest.json."""
    import numpy as np

    from coroseg.cli import main

    for name, argv in _commands():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(out=out) for a in argv] + ["--out", str(out), "--run-name", name])
        assert code == 0, name
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "sha256": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"},
    }


def _pinned_fingerprints() -> dict:
    """`_fingerprints` in a fresh subprocess under the PINNED environment."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, __file__, out], env=env, capture_output=True,
                              text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_artifacts_match_their_golden_fingerprints():
    golden = json.loads(GOLDEN.read_text())
    got = _pinned_fingerprints()
    for key in ("numpy", "blas"):
        if got[key] != golden[key]:
            pytest.skip(f"golden fingerprints were made with {key} {golden[key]}, this is {got[key]}")
    changed = sorted(k for k in golden["sha256"].keys() | got["sha256"].keys()
                     if golden["sha256"].get(k) != got["sha256"].get(k))
    assert not changed, f"{len(changed)} artifacts differ from tests/golden.json: {changed}"


if __name__ == "__main__":
    if len(sys.argv) == 2:  # the pinned subprocess
        print(json.dumps(_fingerprints(Path(sys.argv[1]))))
    else:
        GOLDEN.write_text(json.dumps(_pinned_fingerprints(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
