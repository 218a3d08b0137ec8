"""Distribution-distance machinery turning limit theorems into pass/fail checks.

Kolmogorov-Smirnov statistics against exact limit CDFs, empirical
characteristic-function distances on fixed grids, the lattice sup error
of the local limit theorem, power-law scaling-exponent regression, and
pair-correlation decay reports.  Thresholds are engineering calibrations
(the theorems state weak convergence without rates); the helper
``ks_threshold`` derives defaults from the asymptotic Kolmogorov quantile.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogi

from .errors import DataError
from .limits import LimitLaw
from .models import DeFinettiModel, exact_margin_pmf, pair_correlation


@dataclass(frozen=True)
class VerificationReport:
    """One verified statistic; passes exactly when observed <= threshold."""

    experiment: str
    statistic: str
    observed: float
    threshold: float
    passed: bool
    seed: int | None = None
    n_grid: tuple[int, ...] | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "statistic": self.statistic,
            "observed": self.observed,
            "threshold": self.threshold,
            "passed": self.passed,
            "seed": self.seed,
            "n_grid": list(self.n_grid) if self.n_grid is not None else None,
            "details": _jsonable(self.details),
        }
        return json.dumps(doc, sort_keys=True)


def make_report(experiment, statistic, observed, threshold, seed=None, n_grid=None, details=None):
    """Build a report; the pass flag is derived, never set independently."""
    observed = float(observed)
    threshold = float(threshold)
    return VerificationReport(
        experiment=experiment,
        statistic=statistic,
        observed=observed,
        threshold=threshold,
        passed=observed <= threshold,
        seed=seed,
        n_grid=tuple(int(n) for n in n_grid) if n_grid is not None else None,
        details=details or {},
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(report.to_json() + "\n")


def write_reports_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "statistic", "observed", "threshold", "passed"])
        for r in reports:
            writer.writerow([r.experiment, r.statistic, repr(r.observed), repr(r.threshold), r.passed])


# -- Kolmogorov-Smirnov ------------------------------------------------------------

def ks_statistic(sample, cdf) -> float:
    """Two-sided KS statistic sup_x |F_hat(x) - F(x)| against a 1-D CDF.

    ``cdf`` maps an array to the array of its CDF values; it is called
    once, on the sorted sample, and the gaps are taken at those points on
    both sides, which attains the supremum for right-continuous empirical
    CDFs.
    """
    sample = np.sort(np.asarray(sample, dtype=float).reshape(-1))
    if sample.size == 0:
        raise DataError("KS statistic needs a nonempty sample")
    count = sample.size
    f_vals = np.asarray(cdf(sample), dtype=float)
    if f_vals.shape != sample.shape:
        raise DataError(
            f"the CDF returned shape {f_vals.shape} for a sample of shape {sample.shape}"
        )
    upper = np.arange(1, count + 1) / count - f_vals
    lower = f_vals - np.arange(0, count) / count
    return float(max(upper.max(), lower.max(), 0.0))


def ks_threshold(count: int, quantile: float = 0.999, safety: float = 1.5) -> float:
    """Default KS acceptance threshold for a given sample size.

    Asymptotic Kolmogorov-distribution quantile scaled by 1/sqrt(count)
    with a safety factor; the theorems give no rates, so this is an
    engineering calibration, fixed in configuration.
    """
    return float(safety * kolmogi(1.0 - quantile) / math.sqrt(count))


# -- empirical characteristic function ---------------------------------------------

def default_cf_grid(dim: int, points: int = 21, extent: float = 3.0) -> np.ndarray:
    """Axis-aligned grid: ``points`` equispaced values in [-extent, extent] per axis."""
    axis = np.linspace(-extent, extent, points)
    rows = []
    for g in range(dim):
        block = np.zeros((points, dim))
        block[:, g] = axis
        rows.append(block)
    return np.vstack(rows)


def empirical_cf(sample: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Mean of exp(i t.X) over the sample for every grid row."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim == 1:
        sample = sample[:, None]
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim == 1:
        t_grid = t_grid[:, None]
    if sample.shape[1] != t_grid.shape[1]:
        raise DataError(
            f"sample dimension {sample.shape[1]} != grid dimension {t_grid.shape[1]}"
        )
    if sample.shape[0] == 0:
        raise DataError("the empirical characteristic function needs a nonempty sample")
    out = np.zeros(t_grid.shape[0], dtype=complex)
    chunk = max(1, 4_000_000 // max(1, t_grid.shape[0]))
    for start in range(0, sample.shape[0], chunk):
        block = sample[start : start + chunk]
        out += np.exp(1j * block @ t_grid.T).sum(axis=0)
    return out / sample.shape[0]


def ecf_distance(sample, law: LimitLaw, t_grid=None) -> float:
    """Max over the grid of |empirical CF - limit CF|; lies in [0, 2]."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim == 1:
        sample = sample[:, None]
    if t_grid is None:
        t_grid = default_cf_grid(law.dim)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim == 1:
        t_grid = t_grid[:, None]
    emp = empirical_cf(sample, t_grid)
    exact = np.array([law.cf(t) for t in t_grid])
    return float(np.abs(emp - exact).max())


def cf_factorization_discrepancy(sample, coords_a, coords_b, axis_points: int = 21,
                                 extent: float = 3.0) -> float:
    """Independence check between two coordinate blocks via the joint CF.

    For every axis pair (one from each block) and every (u, v) on the
    per-axis grid, compares the joint CF at u e_i + v e_j with the product
    of the marginal CFs; returns the max absolute discrepancy.
    """
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    axis = np.linspace(-extent, extent, axis_points)
    worst = 0.0
    for i in coords_a:
        e_i = np.exp(1j * np.outer(sample[:, i], axis))  # (N, G)
        marg_i = e_i.mean(axis=0)
        for j in coords_b:
            e_j = np.exp(1j * np.outer(sample[:, j], axis))
            joint = e_i.T @ e_j / sample.shape[0]  # (G, G) of E e^{i(u x_i + v x_j)}
            product = np.outer(marg_i, e_j.mean(axis=0))
            worst = max(worst, float(np.abs(joint - product).max()))
    return worst


# -- local limit theorem -------------------------------------------------------------

def llt_sup_error(model: DeFinettiModel, n: int) -> float:
    """Sup over the margin lattice of |rescaled point mass - normal density|.

    Point probabilities are rescaled by prod(sqrt(n_g)) / 2^M, the
    reciprocal lattice cell volume, and compared with the standard normal
    density at the lattice points x_g = k_g / sqrt(n_g).
    """
    pmf = exact_margin_pmf(model, n)
    sizes = pmf.group_sizes
    scale = math.prod(math.sqrt(s) for s in sizes) / 2 ** len(sizes)
    rescaled = pmf.probs * scale
    density = np.ones(())
    for g, s in enumerate(sizes):
        x = pmf.margin_axis(g) / math.sqrt(s)
        phi = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
        shape = [1] * len(sizes)
        shape[g] = s + 1
        density = density * phi.reshape(shape)
    return float(np.abs(rescaled - density).max())


# -- scaling exponent ------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaEstimate:
    """Power-law decay exponent of per-capita margins from a log-log fit."""

    alpha: float
    intercept: float
    residual_variance: float
    n_points: int


def estimate_alpha(points) -> AlphaEstimate:
    """Least-squares slope of log(margin) against log(n); alpha = -slope.

    Accepts two or more points with distinct n (two points determine the
    slope exactly); margins must be strictly positive.
    """
    points = list(points)
    if len(points) < 2:
        raise DataError("alpha estimation needs at least 2 points")
    ns = np.asarray([p[0] for p in points], dtype=float)
    margins = np.asarray([p[1] for p in points], dtype=float)
    if len(set(ns.tolist())) < 2:
        raise DataError("alpha estimation needs at least 2 distinct population sizes")
    if np.any(margins <= 0):
        raise DataError("alpha estimation needs strictly positive margins")
    log_n = np.log(ns)
    log_m = np.log(margins)
    slope, intercept = np.polyfit(log_n, log_m, 1)
    residuals = log_m - (slope * log_n + intercept)
    dof = max(1, len(points) - 2)
    return AlphaEstimate(
        alpha=float(-slope),
        intercept=float(intercept),
        residual_variance=float(residuals @ residuals / dof),
        n_points=len(points),
    )


# -- correlation decay -------------------------------------------------------------------

def correlation_decay_report(
    model: DeFinettiModel, n_grid, threshold: float, experiment: str = "correlation-decay"
) -> VerificationReport:
    """Check that pair correlations strictly decrease along the grid and end small.

    The observed value is the largest terminal correlation across groups,
    or infinity when any group fails to decrease, so the
    pass-iff-below-threshold invariant carries the whole contract.
    Consecutive values already at or below the threshold are exempt from
    strictness (a sequence that has fully decayed cannot keep falling).
    """
    n_grid = [int(n) for n in n_grid]
    values = np.array([pair_correlation(model, n) for n in n_grid])  # (len(grid), M)
    decayed = (values[1:] <= threshold) & (values[:-1] <= threshold)
    decreasing = bool(np.all((np.diff(values, axis=0) < 0.0) | decayed))
    observed = float(values[-1].max()) if decreasing else math.inf
    return make_report(
        experiment,
        "pair-correlation-terminal",
        observed,
        threshold,
        n_grid=n_grid,
        details={
            "correlations": values,
            "strictly_decreasing": decreasing,
        },
    )
