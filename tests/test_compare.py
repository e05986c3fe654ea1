"""The A/B runner's mechanism verdict, and the mechanism script end to end."""

import os
import subprocess
import sys
from pathlib import Path

from lenreg.compare import mechanism_verdict

INTERVALS = [(3, 13), (13, 50), (50, 128)]


def _row(mode, seed, short_entropy, short_ece, long_entropy):
    return {"mode": mode, "seed": seed, "final_loss": 1.0,
            "ece [3,13)": short_ece, "ece [13,50)": None, "ece [50,128]": 0.5,
            "entropy [3,13)": short_entropy, "entropy [13,50)": None,
            "entropy [50,128]": long_entropy}


def test_mechanism_verdict_boundaries():
    rows = [
        _row("mlm", 1, 2.0, 0.10, 1.0), _row("mlm", 2, 2.0, 0.10, 0.0),
        _row("mlm", 3, 2.0, 0.10, 1.0), _row("mlm", 4, 2.0, 0.10, 1.0),
        # seed 1: entropy equal (no win), ECE equal (win), |dH| = 0.25 (not close)
        _row("cp-l", 1, 2.0, 0.10, 1.25),
        # seed 2: entropy up, ECE higher, |dH| = 0.2 exactly in floats (close)
        _row("cp-l", 2, 2.5, 0.11, 0.2),
        # seed 3: entropy down, ECE lower, long entropy equal
        _row("cp-l", 3, 1.5, 0.05, 1.0),
        # seed 4: the treatment failed, so the seed is not paired
        None,
        # seed 5: no baseline row
        _row("cp-l", 5, 9.0, 0.0, 1.0),
    ]
    # (paired seeds, short entropy up, short ECE at or below, long entropy close)
    assert mechanism_verdict(rows, INTERVALS) == (3, 1, 2, 2)


def test_run_mechanism_script_smoke(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "tmp"
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_mechanism.py"),
                           "--seeds", "1", "--steps", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "compare.csv").exists() and (out / "compare.json").exists()
    assert "over 1 paired seeds: higher short entropy" in proc.stdout
