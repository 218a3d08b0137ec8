"""The benchmark's three workloads: inputs, operations and their checks.

Each workload is a set-up step (configs loaded through the public config
loader, models built) and a list of operations.  An operation is one
config run, one (model, n) oracle pair or one sampler call; it returns
whether its correctness check passed and a digest of its result, so a
pass can be compared with the others of the same run.

* ``clt_cli``: the shipped verify-clt configs through ``cli.run``.  Loads
  the per-point CDF calls of the KS statistic and the CSV writer.
* ``exact_oracle``: exact margin laws against their independent oracles
  (2^n enumeration, Gibbs enumeration) and the small shipped configs.
  Loads brute force, tensor quadrature and the mean-field density.
* ``sampling``: the samplers alone, with the block thread pool at two
  workers.  Loads mixing-measure, binomial and mean-field sampling.

Programs are called through module attributes at call time (``vl.x``), so
the layer trace sees the calls when it is installed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import votelim as vl
import votelim.cli as vl_cli
import votelim.config as vl_config

ORACLE_TOL = 1e-10
EQUIVALENCE_TOL = 1e-8
ALPHA_RANGE = (0.13, 0.17)
#: sampled group means must lie within this many standard errors of 0
MEAN_SE_BOUND = 8.0


def sampler_workers() -> int:
    """Two block workers, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


SIZES = {
    "full": {
        "clt_cli": {"configs": {"fast_clt": 0, "critical_clt": 0, "subcritical_base": 0},
                    "overrides": {}},
        "exact_oracle": {
            "oracle_n": [2, 13],
            "equivalence_m1": {"betas": [0.25, 0.5, 0.9], "n": [8, 12, 16]},
            "equivalence_m2": {"j": [[0.5, 0.2], [0.2, 0.5]], "n": [8, 10, 12, 14, 16]},
            "cluster_m3_n": 6,
            "configs": {"cwm_equivalence": 0, "llt_baseline": 0,
                        "subcritical_decay": 0, "decay_negative_control": 1},
        },
        "sampling": {
            "alpha_grid": [10**3, 10**4, 10**5, 10**6],
            "alpha_count": 10**6,
            "samplers": {"contracted_m2": [10**4, 3 * 10**6],
                         "cluster_m3": [30000, 15 * 10**5],
                         "cwm_m1": [10**4, 5 * 10**5],
                         "cwm_m2": [10**4, 800]},
        },
    },
    # a few seconds per workload; every operation kind still runs, except the
    # M=3 exact law, whose smallest case takes seconds on its own.  The small
    # samples use the default KS threshold for their size.
    "tiny": {
        "clt_cli": {"configs": {"fast_clt": 0, "critical_clt": 0, "subcritical_base": 0},
                    "overrides": {"count": 4000,
                                  "thresholds": {"cross_correlation": 0.1}}},
        "exact_oracle": {
            "oracle_n": [2, 6],
            "equivalence_m1": {"betas": [0.5], "n": [8]},
            "equivalence_m2": {"j": [[0.5, 0.2], [0.2, 0.5]], "n": [8]},
            "cluster_m3_n": None,
            "configs": {"cwm_equivalence": 0, "llt_baseline": 0,
                        "subcritical_decay": 0, "decay_negative_control": 1},
        },
        "sampling": {
            "alpha_grid": [10**3, 10**4, 10**5, 10**6],
            "alpha_count": 10**5,
            "samplers": {"contracted_m2": [10**4, 20000],
                         "cluster_m3": [30000, 20000],
                         "cwm_m1": [10**4, 20000],
                         "cwm_m2": [10**4, 200]},
        },
    },
}


@dataclass
class Outcome:
    """What an operation reports: its check, a note, and its result digest."""

    ok: bool
    detail: str
    digest: Callable[[], str]


@dataclass
class Context:
    """Where a pass runs: checkout root, scratch directory, tracer."""

    root: Path
    work: Path
    seed: int
    workers: int
    tracer: object | None = None


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _sha_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_config(ctx: Context, name: str, overrides: dict):
    """A shipped config with overrides, through the public loader.

    The config keeps its own seed: its statistical thresholds are
    calibrated for it.  At other seeds ``fast_clt``'s KS threshold of 0.01
    sits inside the statistic's spread (3 of seeds 0..39 exceed it), so
    the sampled configs are run as shipped and the workload seed drives
    the ``sampling`` workload.
    """
    doc = yaml.safe_load((ctx.root / "configs" / f"{name}.yaml").read_text())
    doc.update(overrides)
    path = ctx.work / "configs" / f"{name}.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return vl_config.load_config(path)


def _raw_from_csv(path: Path) -> np.ndarray:
    """The integer margins of a margins.csv, as a (count, M) array."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        i, g, r = (header.index(c) for c in ("sample_index", "group", "raw_margin"))
        triples = np.array([(int(x[i]), int(x[g]), int(x[r])) for x in rows], dtype=np.int64)
    raw = np.zeros((triples[:, 0].max() + 1, triples[:, 1].max() + 1), dtype=np.int64)
    raw[triples[:, 0], triples[:, 1]] = triples[:, 2]
    return raw


def _cli_digest(ctx: Context, out: Path) -> str:
    """sha256 of reports.jsonl and of margins.csv, if any.

    Equal CSV bytes mean equal raw margins; ``raw_digests`` reads the raw
    arrays back once per run, for the record.
    """
    if ctx.tracer is not None:
        ctx.tracer.add("cli.artifact_bytes", sum(p.stat().st_size for p in out.iterdir()))
    parts = []
    reports = out / "reports.jsonl"
    if reports.exists():
        parts.append("reports.jsonl=" + _sha_bytes(reports.read_bytes()))
    margins = out / "margins.csv"
    if margins.exists():
        parts.append("margins.csv=" + _sha_bytes(margins.read_bytes()))
    return ";".join(parts)


def raw_digests(work: Path) -> dict[str, str]:
    """sha256 of the raw margins of every CLI run under a pass directory."""
    return {path.parent.name: _sha(_raw_from_csv(path))
            for path in sorted((work / "out").glob("*/margins.csv"))}


def _cli_op(ctx: Context, name: str, cfg, expected: int):
    def op() -> Outcome:
        out = ctx.work / "out" / name
        code = vl_cli.run(cfg, out)
        return Outcome(code == expected, f"exit {code}, expected {expected}",
                       lambda: _cli_digest(ctx, out))

    return op


# -- clt_cli ----------------------------------------------------------------------

def clt_cli(ctx: Context, size: dict):
    configs = [(name, load_config(ctx, name, {"workers": 1, **size["overrides"]}), code)
               for name, code in size["configs"].items()]
    return [(f"cli:{name}", _cli_op(ctx, name, cfg, code)) for name, cfg, code in configs]


# -- exact_oracle -------------------------------------------------------------------

GROUPS_1 = vl.GroupStructure(1, [1.0])
GROUPS_2 = vl.GroupStructure(2, [0.5, 0.5])


def _contracted(base, exponent, groups, bias):
    schedule = vl.PowerLawSchedule(1.0, exponent, m=groups.m)
    return vl.DeFinettiModel(groups, vl.ContractedSequence(base, schedule), bias)


def oracle_matrix():
    """The 15 models of the oracle-equivalence acceptance criterion."""
    static = vl.StaticSequence
    atoms = vl.PointMassMixture
    models = [
        ("static-delta0-m1", vl.DeFinettiModel(GROUPS_1, static(atoms([(0.0, 1.0)])), vl.CLAMP)),
        ("static-two-atom-m1", vl.DeFinettiModel(
            GROUPS_1, static(atoms([([-0.5], 0.5), ([0.5], 0.5)])), vl.CLAMP)),
    ]
    bases_1 = [("uniform", vl.UniformBox([-1.0], [1.0]), vl.CLAMP),
               ("gaussian", vl.Gaussian([0.0], [[1.0]]), vl.TANH),
               ("two-atom", atoms([([-2.0], 0.5), ([2.0], 0.5)]), vl.CLAMP)]
    for tag, base, bias in bases_1:
        for a in (0.75, 0.5, 0.15):
            models.append((f"{tag}-a{a}-m1", _contracted(base, a, GROUPS_1, bias)))
    models += [
        ("static-delta0-m2", vl.DeFinettiModel(
            GROUPS_2, static(atoms([([0.0, 0.0], 1.0)])), vl.CLAMP)),
        ("uniform-a0.75-m2", _contracted(
            vl.UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75, GROUPS_2, vl.CLAMP)),
        ("gaussian-a0.5-m2", _contracted(
            vl.Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), 0.5, GROUPS_2, vl.TANH)),
        ("two-atom-a0.15-m2", _contracted(
            atoms([([-2.0, -2.0], 0.5), ([2.0, 2.0], 0.5)]), 0.15, GROUPS_2, vl.CLAMP)),
    ]
    return models


def cluster_m3_model():
    """Three groups in the fast, critical and subcritical regimes."""
    groups = vl.GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = vl.Product([vl.UniformBox([-1.0], [1.0]) for _ in range(3)])
    schedule = vl.PowerLawSchedule([1.0, 1.0, 1.0], [0.75, 0.5, 0.15])
    return vl.DeFinettiModel(groups, vl.ContractedSequence(base, schedule), vl.CLAMP)


def _oracle_op(model, n):
    def op() -> Outcome:
        exact = vl.exact_margin_pmf(model, n)
        brute = vl.brute_force_pmf(model, n)
        diff = exact.max_abs_diff(brute)
        return Outcome(diff < ORACLE_TOL, f"max|exact-brute|={diff:.3g}",
                       lambda: _sha(exact.probs, brute.probs))

    return op


def _equivalence_op(spec, groups, n):
    def op() -> Outcome:
        disc = vl.representation_equivalence_check(spec, groups, n)
        return Outcome(disc < EQUIVALENCE_TOL, f"max|gibbs-density|={disc:.3g}",
                       lambda: _sha_bytes(repr(disc).encode()))

    return op


def _symmetric_law_op(model, n):
    def op() -> Outcome:
        pmf = vl.exact_margin_pmf(model, n)
        mass = abs(pmf.total() - 1.0)
        asym = pmf.max_abs_diff(pmf.reflected())
        return Outcome(mass < ORACLE_TOL and asym < ORACLE_TOL,
                       f"|total-1|={mass:.3g} max|p(k)-p(-k)|={asym:.3g}",
                       lambda: _sha(pmf.probs))

    return op


def exact_oracle(ctx: Context, size: dict):
    configs = [(name, load_config(ctx, name, {}), code)
               for name, code in size["configs"].items()]
    lo, hi = size["oracle_n"]
    ops = []
    for name, model in oracle_matrix():
        for n in range(max(lo, 2 * model.groups.m), hi + 1):
            ops.append((f"oracle:{name}:n{n}", _oracle_op(model, n)))
    eq1 = size["equivalence_m1"]
    for beta in eq1["betas"]:
        spec = vl.CouplingSpec.single_group(beta)
        for n in eq1["n"]:
            ops.append((f"equivalence:m1-beta{beta}:n{n}", _equivalence_op(spec, GROUPS_1, n)))
    eq2 = size["equivalence_m2"]
    spec2 = vl.CouplingSpec(eq2["j"])
    for n in eq2["n"]:
        ops.append((f"equivalence:m2:n{n}", _equivalence_op(spec2, GROUPS_2, n)))
    if size["cluster_m3_n"]:
        n = size["cluster_m3_n"]
        ops.append((f"exact:cluster-m3:n{n}", _symmetric_law_op(cluster_m3_model(), n)))
    ops += [(f"cli:{name}", _cli_op(ctx, name, cfg, code)) for name, cfg, code in configs]
    return ops


# -- sampling -----------------------------------------------------------------------

def _check_sample(sample, count: int) -> tuple[bool, str]:
    """Lattice, bounds and a symmetric-mean check on a margin sample."""
    raw = sample.raw
    sizes = np.asarray(sample.group_sizes)
    if raw.shape != (count, sizes.size):
        return False, f"shape {raw.shape}, expected {(count, sizes.size)}"
    if np.any(np.abs(raw) > sizes) or np.any((raw + sizes) % 2):
        return False, "margins off the parity lattice"
    z = sample.normalized
    worst = float(np.max(np.abs(z.mean(axis=0)) / (z.std(axis=0, ddof=1) / math.sqrt(count))))
    return worst <= MEAN_SE_BOUND, f"max |mean|/se={worst:.2f}"


def _sampler_op(ctx: Context, model, n, count):
    def op() -> Outcome:
        sample = vl.sample_margins(model, n, count, ctx.seed, workers=ctx.workers)
        ok, detail = _check_sample(sample, count)
        return Outcome(ok, detail, lambda: _sha(sample.raw))

    return op


def sampling(ctx: Context, size: dict):
    fast = load_config(ctx, "fast_clt", {}).model
    subcritical = _contracted(vl.UniformBox([-1.0], [1.0]), 0.15, GROUPS_1, vl.CLAMP)
    models = {
        "contracted_m2": fast,
        "cluster_m3": cluster_m3_model(),
        "cwm_m1": vl.DeFinettiModel(
            GROUPS_1, vl.CurieWeissSequence(vl.CouplingSpec.single_group(0.5)), vl.TANH),
        "cwm_m2": vl.DeFinettiModel(
            GROUPS_2, vl.CurieWeissSequence(vl.CouplingSpec([[0.5, 0.2], [0.2, 0.5]])), vl.TANH),
    }
    points: list[tuple] = []

    def alpha_point(n):
        def op() -> Outcome:
            est = vl.expected_abs_margin(subcritical, n, mode="monte-carlo",
                                         count=size["alpha_count"], seed=ctx.seed)
            value = est.per_capita[0]
            points.append((n, value))
            return Outcome(math.isfinite(value) and value > 0, f"E|S|/n={value:.6g}",
                           lambda: _sha_bytes(repr((est.per_capita, est.standard_error)).encode()))

        return op

    def alpha_fit() -> Outcome:
        # the estimate-alpha ingest path of scripts/alpha_experiment.py
        path = ctx.work / "alpha" / "margins.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["population", "margin_per_capita"])
            writer.writerows([n, repr(v)] for n, v in points)
        fit = vl.estimate_alpha(vl_cli.ingest_margins(path))
        lo, hi = ALPHA_RANGE
        return Outcome(lo <= fit.alpha <= hi, f"alpha={fit.alpha:.4f}",
                       lambda: _sha_bytes(repr(fit.alpha).encode()))

    ops = [(f"alpha:n{n}", alpha_point(n)) for n in size["alpha_grid"]]
    ops.append(("alpha:fit", alpha_fit))
    for kind, (n, count) in size["samplers"].items():
        ops.append((f"sample:{kind}", _sampler_op(ctx, models[kind], n, count)))
    return ops


BUILDERS = {"clt_cli": clt_cli, "exact_oracle": exact_oracle, "sampling": sampling}


def build(name: str, size_name: str, ctx: Context):
    """Set-up: load configs and build models; returns the operation list."""
    return BUILDERS[name](ctx, SIZES[size_name][name])
