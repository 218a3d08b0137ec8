#!/usr/bin/env python3
"""votelim benchmark: one workload, repeated in fresh interpreters.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clt_cli --seed 42 --seconds 30 --trace 0

``--workload all`` runs ``clt_cli``, ``exact_oracle`` and ``sampling`` in
turn, each printing its own metrics and result line.

Each worker is a new ``perfbench/worker.py`` process that imports and
loads configs and models once, as a command-line user does on every
invocation, then forks one child per pass; a pass runs every operation
once from that cold state.  Workers and passes run one after another: a
closed loop with one client.  An untraced run has three workers that
each run passes for a third of ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` as the median
over the workers, ``peak_rss_mb`` as the median over the passes,
``wall_s`` and ``cpu_s`` as the median over the passes of a pass's total,
and ``success_rate``, the share of operations whose checks passed.
Times are scaled to a reference host speed by a calibration kernel run
between the operations (see ``REF_NOMINAL_S``): each pass's by its own
kernels (wall time by their wall time, CPU time by their CPU time),
set-up times by all of the run's; the unscaled times are printed beside
them and kept in the record.  A worker that only sets up
runs after each pass worker but the last, so ``setup_s`` is a median over
five set-ups.

``--trace 1`` runs an untraced worker for a third of the time, then a
traced one with at least two passes.  It reports the per-layer
metrics (medians over the traced passes), the tracing overhead, and how
many counts failed to repeat exactly.  For ``sampling`` it adds one pass
with the sampler thread pool at one worker and reports the parallel
speedup per sampler.

Every operation's check counts toward ``attempted`` and ``failed``, and a
pass whose result digest for an operation differs from the first pass's
counts as a failure of that operation.  The last stdout line
is the JSON result; the full record, with provenance, goes to
``.perfbench_work/``.  Exit code: 0 when every check passed, 1 when one
failed, 2 when the checkout has no votelim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("clt_cli", "exact_oracle", "sampling")
#: fresh workers in an untraced run that run passes, each setting up once
#: and running passes for its share of ``--seconds``
PASS_WORKERS = 3
#: workers that only set up and exit after each pass worker but the last:
#: set-up time is the median over all of an untraced run's workers
SETUP_ONLY = 1
#: a worker starts only if it should end, at 1.5 times the longest one so
#: far, within this many seconds of the run's start
RUN_LIMIT_S = 150.0
#: a worker still running this many seconds into the run is stopped
KILL_AFTER_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
#: Per workload, the calibration kernel's parts (``worker.CalibrationKernel``)
#: that are like its code, and each part's typical median wall and CPU time
#: (all threads), on the host
#: the bounds were set on: 2 vCPUs of a shared Intel Xeon, Python 3.11,
#: numpy 2.4, scipy 1.17.  A pass's slowdown is the mean over these parts
#: of each part's median time in the pass over its time here, and its times
#: are divided by that.  Other tenants of a shared host slow it by up to 2x for
#: minutes at a time, which moves whole runs; the kernel, run between the
#: operations, slows with them.  ``clt_cli`` is interpreted per-point CDF
#: calls and CSV formatting, ``exact_oracle`` mostly numpy enumeration and
#: quadrature, ``sampling`` numpy draws driven block by block from Python.
REF_NOMINAL_S = {
    "clt_cli": {"interp": (0.028, 0.028)},
    "exact_oracle": {"numeric": (0.019, 0.019)},
    "sampling": {"interp": (0.028, 0.028), "numeric": (0.020, 0.036)},
}
#: the kernel's parts, in the order it reports them
REF_PARTS = ("interp", "numeric")
#: end-to-end times of a pass, scaled to the reference speed by its own kernels
SCALED = ("wall_s", "cpu_s")
SAMPLER_KINDS = ("contracted_m2", "cluster_m3", "cwm_m1", "cwm_m2")
RUN_LAYER_METRICS = {
    "trace.overhead_s": "s",
    "trace.unstable_counts": "count",
    **{f"models.parallel_speedup.{kind}": "ratio" for kind in SAMPLER_KINDS},
}
#: The only parallelism measured is the program's own (the sampler's block
#: thread pool).  BLAS thread pools stay at one thread: on a shared 2-CPU
#: machine their spinning threads more than doubled exact_oracle's wall time
#: whenever the other CPU was busy.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: layer metrics that count work; each must repeat exactly between traced runs
COUNT_UNITS = ("count", "bytes")


def _spawn(args, mode: str, work: Path, until: float, min_passes: int,
           deadline: float, raw_digests: bool = False) -> dict:
    """Run one worker; returns its result, or a record of the crash."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--work", str(work), "--until", repr(until), "--min-passes", str(min_passes),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if raw_digests:
        cmd.append("--raw-digests")
    # its own process group, so a timeout also stops the pass it has forked
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=WORKER_ENV, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        return {"mode": mode, "crash": "timed out"}
    tail = " | ".join(stderr.strip().splitlines()[-5:])
    result = work / "result.json"
    if proc.returncode != 0 or not result.exists():
        return {"mode": mode, "crash": f"exit {proc.returncode}: {tail}"}
    doc = json.loads(result.read_text())
    for p in doc["passes"]:
        if "crash" in p:
            p["crash"] += ": " + tail
    return doc


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a worker and the pass it forked, and wait until both are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_workers(args, run_dir: Path) -> list[dict]:
    """The run's workers, one after another; each runs passes until its slice ends.

    Untraced: ``PASS_WORKERS`` plain workers, the k-th running passes until
    k/PASS_WORKERS of ``--seconds`` have passed, with ``SETUP_ONLY``
    workers that only set up after each but the last.  Traced: a plain
    worker for a third of the time, for ``sampling`` a single-worker pass,
    then a traced worker with at least two passes for the rest.
    """
    started = time.monotonic()
    stop = started + min(args.seconds, RUN_LIMIT_S)
    if args.trace:
        plan = [("plain", started + args.seconds / 3, 1)]
        if args.workload == "sampling":
            plan.append(("single", started, 1))
        plan.append(("traced", stop, 2))
    else:
        plan = []
        for k in range(PASS_WORKERS):
            plan.append(("plain", started + args.seconds * (k + 1) / PASS_WORKERS, 1))
            if k + 1 < PASS_WORKERS:
                plan += [("plain", started, 0)] * SETUP_ONLY
    workers: list[dict] = []
    longest = 0.0
    for k, (mode, until, min_passes) in enumerate(plan):
        begun = time.monotonic()
        if workers and begun - started + 1.5 * longest > RUN_LIMIT_S:
            break
        workers.append(_spawn(args, mode, run_dir / f"worker{k}", min(until, stop), min_passes,
                              started + KILL_AFTER_S, raw_digests=not workers))
        longest = max(longest, time.monotonic() - begun)
        if "crash" in workers[-1]:
            break
    return workers


def _passes(workers: list[dict]) -> list[dict]:
    """Every pass of every worker, tagged with its mode; a crashed worker is one
    crashed pass."""
    out = []
    for w in workers:
        if "crash" in w:
            out.append(w)
        else:
            out += [{**p, "mode": w["mode"]} for p in w["passes"]]
    return out


def _slowdown(ref_s: list[list[list[float]]], workload: str, clock: int) -> float:
    """How much slower than the reference host these kernel times say the
    host ran: the mean over the workload's kernel parts of each part's
    median over its typical time, by wall clock (0) or CPU time (1)."""
    return statistics.fmean(
        statistics.median(t[REF_PARTS.index(part)][clock] for t in ref_s) / typical[clock]
        for part, typical in REF_NOMINAL_S[workload].items())


def _scaled(passes: list[dict], key: str, workload: str) -> list[float]:
    """Each pass's total ``key`` time divided by its own kernels' slowdown,
    CPU time by the kernels' CPU time, wall time by their wall time."""
    clock = 1 if key == "cpu_s" else 0
    return [p[key] / _slowdown(p["ref_s"], workload, clock) for p in passes]


def _per_op(passes: list[dict], key: str) -> dict[str, float]:
    """Each operation's median time over the passes."""
    times: dict[str, list[float]] = {}
    for rep in passes:
        for op in rep["ops"]:
            times.setdefault(op["op"], []).append(op[key])
    return {op: statistics.median(values) for op, values in times.items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _provenance(root: Path, args, first: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src" / "votelim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": first.get("sizes"),
        "sampler_workers": first.get("workers"),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **first.get("versions", {}),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source.hexdigest(),
    }


def _check(passes: list[dict]):
    """Counts attempted and failed operations, digests included."""
    attempted = failed = 0
    failures = []
    reference = next(({r["op"]: r["digest"] for r in rep["ops"]}
                      for rep in passes if "crash" not in rep), {})
    for k, rep in enumerate(passes):
        if "crash" in rep:
            attempted += 1
            failed += 1
            failures.append(f"pass {k} ({rep['mode']}): {rep['crash']}")
            continue
        for op in rep["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                failures.append(f"pass {k} {op['op']}: {op['detail']}")
            elif op["digest"] != reference.get(op["op"]):
                failed += 1
                failures.append(f"pass {k} ({rep['mode']}) {op['op']}: "
                                "result digest differs from the first pass")
    return attempted, failed, failures, reference


def _time_split(workload: str, traced: dict, untraced: dict) -> dict:
    """Where the time goes, per operation, in one traced pass.

    ``untraced`` gives each operation's median untraced time, unscaled.  Stage times
    are inclusive; the KS stage of ``clt_cli`` is its self time plus the
    time inside its CDF calls, leaving out the per-call cost of tracing.
    """
    split = {}
    for op in traced["ops"]:
        t = traced["per_op"].get(op["op"], {})
        row = {"traced_s": op["s"], "untraced_s": untraced.get(op["op"])}
        if workload == "clt_cli":
            row.update(csv_s=t.get("models.csv:s", 0.0),
                       ks_s=t.get("verify.ks:self_s", 0.0) + t.get("limits.cdf1:s", 0.0),
                       sampling_s=t.get("models.sample_margins:s", 0.0))
        else:
            row.update({k[:-2] + "_s": v for k, v in sorted(t.items())
                        if k.endswith(":s") and v >= 0.005})
        split[op["op"]] = row
    wall = sum(op["s"] for op in traced["ops"])
    stages = ("models.sample_margins", "models.csv", "verify.ks", "models.brute_force",
              "models.exact_pmf", "quadrature.refine", "cwm.sample")
    split["share_of_traced_wall"] = {
        stage: sum(t.get(stage + ":s", 0.0) for t in traced["per_op"].values()) / wall
        for stage in stages
    }
    return split


def _layer_metrics(args, passes):
    import layertrace

    units = {**layertrace.LAYER_METRICS, **RUN_LAYER_METRICS}
    traced = [r for r in passes if r["mode"] == "traced"]
    plain = [r for r in passes if r["mode"] == "plain"]
    layers = {key: statistics.median(r["layers"][key] for r in traced)
              for key in layertrace.LAYER_METRICS}
    unstable = sorted(key for key, unit in layertrace.LAYER_METRICS.items()
                      if unit in COUNT_UNITS and len({r["layers"][key] for r in traced}) > 1)
    layers["trace.overhead_s"] = (statistics.median(_scaled(traced, "wall_s", args.workload))
                                  - statistics.median(_scaled(plain, "wall_s", args.workload)))
    layers["trace.unstable_counts"] = float(len(unstable))
    single = next((r for r in passes if r["mode"] == "single"), None)
    for kind in SAMPLER_KINDS:
        op = f"sample:{kind}"
        w1 = [o["s"] for o in (single or {}).get("ops", []) if o["op"] == op]
        w2 = [o["s"] for r in plain for o in r["ops"] if o["op"] == op]
        layers[f"models.parallel_speedup.{kind}"] = (
            w1[0] / statistics.median(w2) if w1 and w2 else 0.0)
    extra = {
        "unstable_counts": {k: [r["layers"][k] for r in traced] for k in unstable},
        "time_split": _time_split(args.workload, traced[-1], _per_op(plain, "s")),
        "span_tree": traced[-1]["span_tree"],
        "unwrapped": traced[-1]["unwrapped"],
    }
    return {k: (layers[k], units[k]) for k in units}, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="all: each workload in turn, one result line each")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    args = parser.parse_args()
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--size", args.size]).returncode
                 for name in WORKLOADS]
        return max(codes)

    root = Path.cwd()
    if not (root / "src" / "votelim" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a votelim checkout "
              "(src/votelim and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    work_root = root / ".perfbench_work"
    run_dir = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        workers = _run_workers(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = _passes(workers)
    attempted, failed, failures, digests = _check(passes)
    ok_workers = [w for w in workers if "crash" not in w]
    ok_passes = [p for p in passes if "crash" not in p]
    plain = [p for p in ok_passes if p["mode"] == "plain"]
    traced = [p for p in ok_passes if p["mode"] == "traced"]
    complete = bool(plain) and (len(traced) >= 2 or not args.trace)
    correct = failed == 0 and complete

    digest_text = "\n".join(f"{op}:{d}" for op, d in sorted(digests.items()))
    record = {
        "provenance": _provenance(root, args, ok_workers[0] if ok_workers else {}),
        "workers": [(w["mode"], len(w.get("passes", []))) for w in workers],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "result_digest": hashlib.sha256(digest_text.encode()).hexdigest(),
        "op_digests": digests,
        "raw_digests": next((w["raw_digests"] for w in ok_workers if w["raw_digests"]), {}),
        "op_checks": {o["op"]: o["detail"] for o in (plain[0]["ops"] if plain else [])},
        "ref_s": [p["ref_s"] for p in plain],
        "op_times": {o["op"]: [op["s"] for r in plain for op in r["ops"] if op["op"] == o["op"]]
                     for o in (plain[0]["ops"] if plain else [])},
    }

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"workers (mode, passes): {record['workers']}")
    e2e = {}
    if plain:
        refs = [t for p in plain for t in p["ref_s"]]
        run_slowdown = _slowdown(refs, args.workload, 0)
        medians = ", ".join(f"{part} {statistics.median(t[k][0] for t in refs):.4f} s"
                            for k, part in enumerate(REF_PARTS))
        print(f"  calibration kernel, {len(refs)} kernel runs: median {medians}; typical "
              f"{REF_NOMINAL_S[args.workload]}: host {run_slowdown:.3f}x slower over the run")
        raw = {
            "setup_s": [w["setup_s"] for w in ok_workers if w["mode"] == "plain"],
            **{key: [p[key] for p in plain] for key in SCALED},
        }
        samples = {
            "setup_s": [v / run_slowdown for v in raw["setup_s"]],
            **{key: _scaled(plain, key, args.workload) for key in SCALED},
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        record["end_to_end_samples"] = samples
        record["end_to_end_unscaled"] = raw
        for key, values in samples.items():
            q1, q3 = _quartiles(values)
            value = statistics.median(values)
            e2e[key] = (value, END_TO_END[key])
            per = "untraced workers" if key == "setup_s" else "untraced passes"
            print(f"  {key:<12} {value:11.4f} {END_TO_END[key]:<5} median over {len(values)} "
                  f"{per} (q1 {q1:.4f}, q3 {q3:.4f}, max {max(values):.4f})")
            if key in raw:
                print(f"  {'':<12} {statistics.median(raw[key]):11.4f} {END_TO_END[key]:<5} "
                      "unscaled")
        e2e["success_rate"] = (1.0 - failed / attempted, "ratio")
    print(f"  {'error_rate':<12} {failed / max(attempted, 1):11.4f} ratio "
          f"({failed} of {attempted} operations failed)")
    for line in failures[:20]:
        print(f"  FAIL {line}")

    metrics = {}
    if args.trace and complete:
        metrics, extra = _layer_metrics(args, ok_passes)
        record.update(extra)
        record["spans_file"] = f"spans-{args.workload}-seed{args.seed}.json"
        work_root.mkdir(exist_ok=True)
        (work_root / record["spans_file"]).write_text(json.dumps(traced[-1]["spans"]))
        for key, (value, unit) in metrics.items():
            print(f"  {key:<40} {value:14.6g} {unit}")
        for key, values in record["unstable_counts"].items():
            print(f"  UNSTABLE count {key}: {values}")
    elif complete:
        metrics = e2e
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    work_root.mkdir(exist_ok=True)
    path = work_root / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  record {path.relative_to(root)}  result digest {record['result_digest'][:16]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
