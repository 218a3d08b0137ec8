"""Smoke runs of the experiment scripts at tiny sizes.

The scripts import the package's public names, so a renamed or removed
export breaks them; each run is a fresh interpreter that must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_alpha_experiment_runs(tmp_path):
    proc = _run("alpha_experiment.py", "--grid", "1000", "10000", "--count", "2000",
                "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "margins.csv").is_file()
    assert "fitted alpha" in proc.stdout


def test_run_cwm_suite_runs():
    proc = _run("run_cwm_suite.py", "--betas", "0.5", "--sizes", "8", "--conc-grid", "20", "40")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "representation equivalence" in proc.stdout
