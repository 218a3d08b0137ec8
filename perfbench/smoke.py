#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, every metric named.

Run from the root of a checkout (takes a minute or two):

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size tiny`` untraced and traced and
checks that the result line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, that every check passed, and
that the metrics are exactly the ``end_to_end`` (untraced) or
``per_layer`` (traced) metrics of BENCHMARK.json, with their units.  It
also checks that the benchmark refuses to run, without a result line, in
a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(root, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
            where = f"{workload} trace {trace}"
            result = _last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed\n{proc.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"ok {where}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")

    bare = root / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok bare directory refused: exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
