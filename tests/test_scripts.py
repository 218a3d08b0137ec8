"""Smoke runs of the experiment scripts.

The scripts import the package's public names, so a renamed or removed
export breaks them; each run is a fresh interpreter that must exit 0.
The regime suite runs the shipped configs at full size and pins the bytes
of their artifacts; the other scripts run at tiny sizes.  A bad argument
ends a script the way it ends the command line: one stderr line and exit
code 2 or 3, never a traceback.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "args",
    [
        ["--count", "1", "--grid", "1000", "2000"],
        ["--grid", "1000", "--count", "100"],
        ["--exponent", "0"],
    ],
    ids=["count-1", "one-point-grid", "exponent-0"],
)
def test_alpha_experiment_rejects_bad_arguments_with_one_line(tmp_path, args):
    proc = _run("alpha_experiment.py", *args, "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "script, args, code, prefix, message",
    [
        ("run_cwm_suite.py", ["--betas", "0.5", "--sizes", "17"], 3,
         "resource guard: ", "n=17 > 16"),
        ("run_regime_suite.py", ["--workers", "0"], 2,
         "error: ", "workers must be at least 1"),
    ],
    ids=["cwm-suite-guard", "regime-suite-workers-0"],
)
def test_suites_end_an_error_with_one_line(script, args, code, prefix, message):
    proc = _run(script, *args)
    assert proc.returncode == code, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(prefix) and message in line


def test_regime_suite_ends_an_error_inside_a_run_with_one_line(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = _run("run_regime_suite.py", "--out", str(blocker))
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot create the output directory") and "Not a directory" in line


def test_run_cwm_suite_runs():
    proc = _run("run_cwm_suite.py", "--betas", "0.5", "--sizes", "8", "--conc-grid", "20", "40")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "representation equivalence" in proc.stdout
    # the defaults: beta 0.25 to 0.9, sizes 8 to 16, four concentration sizes
    proc = _run("run_cwm_suite.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "beta=0.9" in proc.stdout


#: sha256 of each pinned artifact of the regime suite's configs: margins.npy
#: and reports.jsonl of each verify-clt config, reports.jsonl of the others; a
#: speedup that changes these bytes changes what the run reports
REGIME_ARTIFACTS = {
    "fast_clt": {
        "margins.npy": "d772ea29fd0210914158ca1b0958ead34e597e486041234468a91d8383938806",
        "reports.jsonl": "9d90add89c1147934fae05c115b9b412348e88b0b488bdc3af6827669c5eddc8",
    },
    "critical_clt": {
        "margins.npy": "a5fc3d553697f46fb1a2c01823d1c3c6d284b1045d374729be3965c3461afd6c",
        "reports.jsonl": "11a267988fa2954153219d35407759612ea9b2b5883a64dfc1427c5854375a7e",
    },
    "subcritical_base": {
        "margins.npy": "66d1a38c3ac325cf3504ad2fa863a05540d9f1d654cbc891acd4251dec020aa6",
        "reports.jsonl": "3b150409585fc7782c88382897ab9d13308712fdbee2d2b1bdc4e1cbf2642f94",
    },
    "subcritical_decay": {
        "reports.jsonl": "98cc09b2f4c78eb6c0214144eb819cf1d877c2b44188c27637a430b7ef20c941",
    },
    "decay_negative_control": {
        "reports.jsonl": "0fd6e60630058d8ef5c74fa6d44d8cc89d2bffecfa912345a6b1d88368cc7493",
    },
    "llt_baseline": {
        "reports.jsonl": "2197e0d29519879693e9663426a409657b759067f8c45bcc50cc0c1fb3d72f7c",
    },
    "cwm_equivalence": {
        "reports.jsonl": "ff49fa7a3852347392e761bbb43757e9131c59565036c6af89404049d966832d",
    },
}


def test_run_regime_suite_keeps_its_artifacts(tmp_path):
    proc = _run("run_regime_suite.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name, digests in REGIME_ARTIFACTS.items():
        got = {
            artifact: hashlib.sha256((tmp_path / name / artifact).read_bytes()).hexdigest()
            for artifact in digests
        }
        assert got == digests, name
