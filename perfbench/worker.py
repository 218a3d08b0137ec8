"""One worker of a workload run: set up once, then run passes in forked children.

Started by ``run.py`` from the checkout root.  Set-up (imports, configs,
models) happens once, in a fresh interpreter, as for a command-line user.
Each pass is a forked child that runs every operation once from that cold
state (an empty surface cache, no sampler threads) and exits, so passes do
not warm each other up and do not pay set-up again.  Passes run until
``--until`` (a CLOCK_MONOTONIC time), at least ``--min-passes`` of them;
with ``--min-passes 0`` the worker only sets up.

Writes one JSON result file:

* ``setup_s``: from process spawn (the parent's CLOCK_MONOTONIC stamp)
  until the workload's inputs are ready: imports, configs, models;
* per pass: ``wall_s`` / ``cpu_s`` summed over the operations, each timed
  from its call to its checked result (digests are taken outside the timed
  spans); ``peak_rss_mb`` of the pass's process; per operation pass/fail,
  a note, time and result digest; ``ref_s``, the times of the calibration
  kernel run between operations; in ``traced`` mode the layer metrics,
  per-operation totals, span tree and spans.

Modes: ``plain`` (untraced), ``traced`` (layer trace installed) and
``single`` (untraced, sampler thread pool at one worker).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: a calibration kernel runs before a pass's first operation and after any
#: operation that ends at least this long after the previous kernel
REF_EVERY_S = 1.0


class CalibrationKernel:
    """Two fixed pieces of work in the program's mix, timed between operations.

    * ``interp``: scalar ``scipy.stats`` CDF calls, CSV rows formatted
      through ``csv``, string sorting and a dict build: interpreted code
      with a large footprint, like the per-point CDF calls and the CSV
      writer of the program;
    * ``numeric``: binomial and normal draws, sums and a sort in numpy, two
      blocks per thread on ``threads`` threads: the samplers' pool width
      for ``sampling``, whose samplers run blocks on that pool, and the
      calling thread alone for the single-threaded workloads (a kernel on
      other threads there slowed 1.6x whenever the other CPU was busy,
      while the operations did not).

    It calls nothing in ``votelim``, so no change to the program moves it:
    it measures how fast the shared host runs the program's kinds of code
    at the moment, next to the operations it runs between.
    """

    PARTS = ("interp", "numeric")

    def __init__(self, threads: int):
        import numpy as np
        import scipy.stats

        rng = np.random.default_rng(20240501)
        self.np = np
        self.threads = threads
        self.cdf = scipy.stats.norm.cdf
        self.points = [float(x) for x in rng.normal(size=150)]
        self.rows = [tuple(int(v) for v in row)
                     for row in rng.integers(-1000, 1000, size=(4000, 4))]

    def _interp(self) -> dict:
        for x in self.points:
            self.cdf(x)
        buf = io.StringIO()
        out = csv.writer(buf)
        for i, (a, b, c, d) in enumerate(self.rows):
            out.writerow((i, a, b, f"{c / 31.0:.10g}", f"{d / 7.0:.10g}"))
        lines = sorted(buf.getvalue().splitlines())
        return {line: len(line) for line in lines}

    def _block(self, block: int) -> float:
        np = self.np
        rng = np.random.default_rng([20240501, block])
        p = rng.random(30_000)
        margins = 2 * rng.binomial(64, p) - 64
        z = rng.standard_normal(30_000)
        return float(np.sort(margins + z).sum())

    def _numeric(self) -> float:
        if self.threads == 1:
            # in the calling thread, on the CPU the operations run on: a new
            # thread may be placed on the other CPU, and time that one
            return self._block(0) + self._block(1)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return sum(pool.map(self._block, range(2 * self.threads)))

    def __call__(self) -> list[list[float]]:
        """Wall and CPU seconds taken by each part, in ``PARTS`` order."""
        times = []
        for part in (self._interp, self._numeric):
            w0, c0 = time.perf_counter(), time.process_time()
            part()
            times.append([time.perf_counter() - w0, time.process_time() - c0])
        return times


def _run_pass(ops, tracer, import_s: float, kernel: CalibrationKernel) -> dict:
    """Every operation once, with calibration kernels between them."""
    import workloads

    results, ref_s = [], [kernel()]
    last_ref = time.perf_counter()
    wall = cpu = 0.0
    for name, op in ops:
        if tracer is not None:
            tracer.op = name
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = op()
        except Exception as exc:  # an operation failure is counted, not fatal
            outcome = workloads.Outcome(False, f"{type(exc).__name__}: {exc}", lambda: "")
        op_s = time.perf_counter() - w0
        op_cpu = time.process_time() - c0
        wall += op_s
        cpu += op_cpu
        try:
            digest = outcome.digest()
        except Exception as exc:
            outcome.ok, digest = False, f"digest failed: {type(exc).__name__}: {exc}"
        results.append({"op": name, "ok": bool(outcome.ok), "detail": outcome.detail,
                        "s": op_s, "cpu_s": op_cpu, "digest": digest})
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            ref_s.append(kernel())
            last_ref = time.perf_counter()
    doc = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": ref_s,
        "ops": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(import_s)
        doc["per_op"] = tracer.per_op()
        doc["span_tree"] = tracer.span_tree()
        doc["unwrapped"] = tracer.unwrapped
        doc["spans"] = tracer.spans
    return doc


def _forked_pass(ops, tracer, import_s: float, kernel: CalibrationKernel, path: Path) -> dict:
    """One pass in a forked child, which writes its result to ``path``."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            path.write_text(json.dumps(_run_pass(ops, tracer, import_s, kernel)))
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not path.exists():
        return {"crash": f"pass exit {code}"}
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "single"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--raw-digests", action="store_true",
                        help="read the raw margins of the first pass's CLI runs back")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import votelim  # noqa: F401
    import votelim.cli  # noqa: F401

    import_s = time.perf_counter() - _STARTED

    import layertrace
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = layertrace.Tracer()
        tracer.install()
    work = Path(args.work)
    ctx = workloads.Context(
        root=root,
        work=work,
        seed=args.seed,
        workers=1 if args.mode == "single" else workloads.sampler_workers(),
        tracer=tracer,
    )
    ops = workloads.build(args.workload, args.size, ctx)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    kernel = CalibrationKernel(ctx.workers if args.workload == "sampling" else 1)
    passes, durations = [], []
    while (len(passes) < args.min_passes
           or passes and time.monotonic() + max(durations) / 2 < args.until):
        begun = time.monotonic()
        passes.append(_forked_pass(ops, tracer, import_s, kernel,
                                   work / f"pass{len(passes)}.json"))
        durations.append(time.monotonic() - begun)
        if "crash" in passes[-1]:
            break
        if len(passes) == 1 and args.raw_digests:
            raw = workloads.raw_digests(work)

    import numpy
    import scipy

    doc = {
        "mode": args.mode,
        "sizes": workloads.SIZES[args.size][args.workload],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "workers": ctx.workers,
        "import_s": import_s,
        "setup_s": setup_s,
        "raw_digests": raw if args.raw_digests and passes and "crash" not in passes[0] else {},
        "passes": passes,
    }
    (work / "result.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
