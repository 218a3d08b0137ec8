"""Batch front-end: seeded experiment runs with artifacts persisted to disk.

Subcommands mirror the experiment kinds.  Every run writes a manifest
carrying the hash of the effective config (after flag overrides, without
``out`` and ``workers``, which change no result), the seed, and the
versions of the tool, Python, numpy and scipy; raw margin samples go to
``margins.npy``, verification results to JSON lines plus a CSV summary
table.  Exit codes: 0 all verifications passed, 1 some verification
failed, 2 any other package error, 3 a resource guard tripped or an
artifact could not be written (``report_error``).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import KINDS, ExperimentConfig, load_config
from .cwm import concentration_profile, representation_equivalence_check
from .errors import ConfigError, DataError, ResourceError, VotelimError
from .limits import LimitLaw, limit_for
from .models import sample_margins
from .verify import (
    correlation_decay_report,
    estimate_alpha,
    ks_statistic,
    ks_threshold,
    llt_sup_error,
    make_report,
    write_reports_csv,
    write_reports_jsonl,
)


def ingest_margins(path) -> list[tuple]:
    """Read (population, per-capita margin) points from a CSV file.

    Accepts headers ``population,abs_margin`` (raw counts, normalized on
    ingest) or ``population,margin_per_capita``.  Rows with nonpositive
    populations, non-finite values or fields that do not parse are
    rejected with their line numbers; exact duplicate points are dropped
    with a warning.
    """
    import csv as _csv

    path = Path(path)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        # rows are read by the stripped names, so "population, abs_margin" works
        fields = reader.fieldnames = [f.strip() for f in reader.fieldnames]
        if "population" not in fields:
            raise DataError(f"{path}: missing 'population' column")
        if "abs_margin" in fields:
            margin_col, raw_counts = "abs_margin", True
        elif "margin_per_capita" in fields:
            margin_col, raw_counts = "margin_per_capita", False
        else:
            raise DataError(f"{path}: need an 'abs_margin' or 'margin_per_capita' column")
        points: list[tuple] = []
        seen = set()
        bad_lines = []
        for row in reader:
            line = reader.line_num
            try:
                population = float(row["population"])
                margin = float(row[margin_col])
            except (TypeError, ValueError):
                bad_lines.append(line)
                continue
            if not (0 < population < math.inf and math.isfinite(margin)):
                bad_lines.append(line)
                continue
            per_capita = margin / population if raw_counts else margin
            n = int(population) if population.is_integer() else population
            point = (n, per_capita)
            if point in seen:
                warnings.warn(f"{path}:{line}: dropping exact duplicate point {point}")
                continue
            seen.add(point)
            points.append(point)
    if bad_lines:
        raise DataError(
            f"{path}: rejected malformed rows or rows with nonpositive population "
            f"on lines {bad_lines}"
        )
    if not points:
        raise DataError(f"{path}: no usable data rows")
    return points


# -- experiment runners -------------------------------------------------------------

def _write(path: Path, write) -> None:
    """Write one artifact as ``write(path)``.

    An OSError on the way (a full disk, a file system gone read-only) is a
    ResourceError naming the file, and leaves no ``manifest.json``, so the
    directory does not claim a complete run.
    """
    try:
        write(path)
    except OSError as exc:
        (path.parent / "manifest.json").unlink(missing_ok=True)
        raise ResourceError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, outputs, extra=None) -> None:
    import scipy  # for its version only; imported here, so `import votelim.cli` does not load it

    doc = {
        "config_hash": cfg.hash(),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "tool_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "outputs": sorted(outputs),
    }
    if extra:
        doc.update(extra)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(out_dir / "manifest.json", lambda path: path.write_text(text))


def _finish(out_dir: Path, cfg: ExperimentConfig, reports, outputs, extra=None) -> int:
    if reports:
        _write(out_dir / "reports.jsonl", lambda path: write_reports_jsonl(reports, path))
        _write(out_dir / "summary.csv", lambda path: write_reports_csv(reports, path))
        outputs = list(outputs) + ["reports.jsonl", "summary.csv"]
    _write_manifest(out_dir, cfg, outputs, extra)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.statistic}: observed={report.observed:.6g} "
              f"threshold={report.threshold:.6g}")
    return 0 if all(r.passed for r in reports) else 1


def _run_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    sample = sample_margins(cfg.model, cfg.n, cfg.count, cfg.seed, workers=cfg.workers)
    _write(out_dir / "margins.npy", sample.to_npy)
    return _finish(out_dir, cfg, [], ["margins.npy"], {"margins": sample.manifest()})


def _run_verify_clt(cfg: ExperimentConfig, out_dir: Path) -> int:
    gaussian = cfg.threshold("target_law") == "gaussian"
    law = LimitLaw.standard_gaussian(cfg.model.groups.m) if gaussian else limit_for(cfg.model)
    threshold = cfg.threshold("ks") or ks_threshold(cfg.count)
    sample = sample_margins(cfg.model, cfg.n, cfg.count, cfg.seed, workers=cfg.workers)
    _write(out_dir / "margins.npy", sample.to_npy)
    normalized = sample.normalized
    reports = []
    for g in range(cfg.model.groups.m):
        marginal = law.marginal(g)
        ks = ks_statistic(normalized[:, g], marginal.cdf)
        reports.append(
            make_report(cfg.experiment, f"ks-group-{g}", ks, threshold, seed=cfg.seed,
                        details={"n": cfg.n, "count": cfg.count, "law": marginal.kind})
        )
    if cfg.model.groups.m >= 2:
        rho_threshold = float(cfg.threshold("cross_correlation"))
        for g in range(cfg.model.groups.m):
            if np.all(sample.raw[:, g] == sample.raw[0, g]):
                raise DataError(
                    f"group {g}'s margin is {sample.raw[0, g]} in every sample, "
                    "so its cross-correlation is undefined"
                )
        # a sample-major copy: on the group-major array np.corrcoef takes
        # another BLAS path and moves the last bits of the pinned reports
        corr = np.corrcoef(np.ascontiguousarray(normalized), rowvar=False)
        for a in range(cfg.model.groups.m):
            for b in range(a + 1, cfg.model.groups.m):
                reports.append(
                    make_report(cfg.experiment, f"cross-correlation-{a}-{b}",
                                abs(float(corr[a, b])), rho_threshold, seed=cfg.seed)
                )
    return _finish(out_dir, cfg, reports, ["margins.npy"], {"margins": sample.manifest()})


def _run_verify_llt(cfg: ExperimentConfig, out_dir: Path) -> int:
    errors = [llt_sup_error(cfg.model, n) for n in cfg.n_grid]
    increase = float(np.max(np.diff(errors)))  # the config gives at least two sizes
    reports = [
        make_report(cfg.experiment, "llt-error-increase", increase, 0.0,
                    n_grid=cfg.n_grid, details={"errors": errors}),
        make_report(cfg.experiment, "llt-terminal-error", errors[-1],
                    float(cfg.threshold("llt")), n_grid=cfg.n_grid,
                    details={"errors": errors}),
    ]
    return _finish(out_dir, cfg, reports, [])


def _run_verify_cwm(cfg: ExperimentConfig, out_dir: Path) -> int:
    spec = cfg.model.sequence.coupling
    groups = cfg.model.groups
    reports = []
    eq_threshold = float(cfg.threshold("equivalence"))
    for n in cfg.n_grid:
        disc = representation_equivalence_check(spec, groups, int(n))
        reports.append(
            make_report(cfg.experiment, f"representation-equivalence-n{n}", disc, eq_threshold)
        )
    if cfg.delta is not None:
        ns = cfg.concentration_grid
        tails = concentration_profile(spec, groups, ns, cfg.delta)
        if any(t <= 0 for t in tails):
            r2 = 0.0
        else:
            r2 = _linear_fit_r2(np.asarray(ns, float), np.log(tails))
        reports.append(
            make_report(cfg.experiment, "concentration-log-linearity", 1.0 - r2,
                        1.0 - float(cfg.threshold("r2")),
                        n_grid=ns, details={"tail_masses": tails, "r_squared": r2})
        )
    return _finish(out_dir, cfg, reports, [])


def _linear_fit_r2(x: np.ndarray, y: np.ndarray) -> float:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _run_estimate_alpha(cfg: ExperimentConfig, out_dir: Path) -> int:
    # inline points were checked at load: [population, margin] pairs, population > 0
    estimate = estimate_alpha(ingest_margins(cfg.input_path) if cfg.input_path else cfg.raw["points"])
    print(f"alpha = {estimate.alpha:.4f}")
    text = json.dumps(asdict(estimate), sort_keys=True, indent=2) + "\n"
    _write(out_dir / "alpha.json", lambda path: path.write_text(text))
    reports = []
    alpha_range = cfg.threshold("alpha_range")
    if alpha_range:
        lo, hi = float(alpha_range[0]), float(alpha_range[1])
        outside = max(lo - estimate.alpha, estimate.alpha - hi, 0.0)
        reports.append(
            make_report(cfg.experiment, "alpha-outside-range", outside, 0.0,
                        details={"alpha": estimate.alpha, "range": [lo, hi]})
        )
    return _finish(out_dir, cfg, reports, ["alpha.json"])


def _run_correlation_decay(cfg: ExperimentConfig, out_dir: Path) -> int:
    threshold = float(cfg.threshold("correlation"))
    report = correlation_decay_report(cfg.model, cfg.n_grid, threshold)
    return _finish(out_dir, cfg, [report], [])


_RUNNERS = {
    "simulate": _run_simulate,
    "verify-clt": _run_verify_clt,
    "verify-llt": _run_verify_llt,
    "verify-cwm": _run_verify_cwm,
    "estimate-alpha": _run_estimate_alpha,
    "correlation-decay": _run_correlation_decay,
}


def run(cfg: ExperimentConfig, out_dir=None) -> int:
    """Execute one experiment; writes artifacts and returns the exit code.

    A manifest is written last and marks a complete run, so a previous
    run's artifacts are removed before any is written: a run that fails
    leaves no manifest and nothing of an earlier run.  The file a config
    reads (``input:``) is never removed, even under an artifact's name.
    An output directory that cannot be made (a file has its name, or lies
    on its path), or an artifact in it that cannot be removed, is a
    ConfigError before any work; it names ``--out`` or the config's
    ``out:`` line when the path did.
    """
    out_path = Path(out_dir or cfg.out or ".")
    keep = Path(cfg.input_path).resolve() if cfg.input_path else None
    name = None
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        # every name a runner writes: its own files plus _finish's three
        for name in ("manifest.json", "margins.npy", "reports.jsonl", "summary.csv", "alpha.json"):
            if (out_path / name).resolve() != keep:
                (out_path / name).unlink(missing_ok=True)
    except OSError as exc:
        action = "create" if name is None else f"remove {name} from"
        message = f"cannot {action} the output directory {str(out_path)!r}: {exc.strerror}"
        if out_dir is None:
            cfg.error(message, "out")
        raise ConfigError(message) from None
    return _RUNNERS[cfg.experiment](cfg, out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="votelim",
        description="seeded voting-model experiments: simulation and limit-law verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--workers", type=int, default=None, help="worker count override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.config,
            {"seed": args.seed, "workers": args.workers, "out": args.out},
        )
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        return run(cfg)
    except (VotelimError, MemoryError) as exc:
        return report_error(exc)


def report_error(exc: VotelimError | MemoryError) -> int:
    """Print one stderr line for an error that ends a run; return its exit code.

    3 for a tripped resource guard (a quadrature out of nodes or an
    artifact that could not be written among them) or exhausted memory,
    2 for any other package error; exit 1 is left to
    failed verifications.  The command line and the scripts end runs here.
    """
    if isinstance(exc, MemoryError):
        exc = ResourceError("the run ran out of memory")
    if isinstance(exc, ResourceError):
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
