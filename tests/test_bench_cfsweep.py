"""The benchmark's continued-fraction sweep, as its untraced runs time it.

``bench/cfsweep.py`` runs as a fresh process in the benchmark, so the suite
runs it that way too, and pins the digest of the full p, q <= 300 sweep.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sixradii

_CFSWEEP = Path(__file__).resolve().parent.parent / "bench" / "cfsweep.py"


def _load_cfsweep():
    spec = importlib.util.spec_from_file_location("bench_cfsweep", _CFSWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_sweep_digest_is_pinned():
    cfsweep = _load_cfsweep()
    assert cfsweep.sweep(cfsweep.reduced_pairs(300, 1)) == {
        "pairs": 54795,
        "failed": 0,
        "sha256": "b4bce6631d758eefac12216d2c7255d637712eb5dcb0533ff9692d9f96ed5edb",
    }


def test_fresh_process_prints_the_in_process_result():
    cfsweep = _load_cfsweep()
    env = {**os.environ, "PYTHONPATH": str(Path(sixradii.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, str(_CFSWEEP), "--n", "40", "--seed", "3"],
        capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == cfsweep.sweep(cfsweep.reduced_pairs(40, 3))
