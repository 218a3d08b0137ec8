"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical thresholds are seed-pinned engineering calibrations; exact
checks compare independent computation routes.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the per-criterion lines live.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.special import ndtr

from votelim import (
    CLAMP,
    ContractedSequence,
    CouplingSpec,
    DeFinettiModel,
    GroupStructure,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    StaticSequence,
    UniformBox,
    brute_force_pmf,
    concentration_profile,
    correlation_decay_report,
    estimate_alpha,
    exact_margin_pmf,
    expected_abs_margin,
    ks_statistic,
    limit_for,
    representation_equivalence_check,
    sample_margins,
)
from votelim.cli import run as run_experiment
from votelim.verify import cf_factorization_discrepancy, llt_sup_error
from conftest import oracle_matrix

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GROUPS_1 = GroupStructure(1, [1.0])
GROUPS_2 = GroupStructure(2, [0.5, 0.5])


def record(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({description}): {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {description} {detail}"


def _contracted(base, exponent, groups, bias):
    schedule = PowerLawSchedule(1.0, exponent, m=groups.m)
    return DeFinettiModel(groups, ContractedSequence(base, schedule), bias)


_matrix_cache: dict = {}


def matrix_results():
    """Exact and brute-force margin laws over the whole matrix, computed once."""
    if not _matrix_cache:
        start = time.monotonic()
        runs = []
        matrix = oracle_matrix()
        for name, model in matrix:
            for n in range(2, 17):
                if n < 2 * model.groups.m:
                    continue
                exact = exact_margin_pmf(model, n)
                diff = exact.max_abs_diff(brute_force_pmf(model, n))
                runs.append((name, n, exact, diff))
        _matrix_cache["runs"] = runs
        _matrix_cache["models"] = len(matrix)
        _matrix_cache["elapsed"] = time.monotonic() - start
    return _matrix_cache


def test_criterion_1_oracle_equivalence():
    results = matrix_results()
    worst = max(diff for _, _, _, diff in results["runs"])
    record(
        1,
        "oracle equivalence across the model matrix",
        results["models"] >= 12 and worst < 1e-10 and results["elapsed"] < 120.0,
        f"max|diff|={worst:.3g} over {len(results['runs'])} runs "
        f"in {results['elapsed']:.0f}s",
    )


def test_criterion_2_sign_symmetry():
    results = matrix_results()
    worst = max(pmf.max_abs_diff(pmf.reflected()) for _, _, pmf, _ in results["runs"])
    record(2, "margin laws invariant under global sign flip", worst < 1e-10,
           f"max|pmf(k)-pmf(-k)|={worst:.3g}")


def test_criterion_3_cwm_representation_equivalence():
    start = time.monotonic()
    worst = 0.0
    for beta in (0.25, 0.5, 0.9):
        spec = CouplingSpec.single_group(beta)
        for n in (8, 12, 16):
            worst = max(worst, representation_equivalence_check(spec, GROUPS_1, n))
    spec2 = CouplingSpec([[0.5, 0.2], [0.2, 0.5]])
    for n in (8, 10, 12, 14, 16):  # group sizes 4..8
        worst = max(worst, representation_equivalence_check(spec2, GROUPS_2, n))
    elapsed = time.monotonic() - start
    record(3, "Gibbs vs mixing-density margin laws", worst < 1e-8 and elapsed < 300.0,
           f"max discrepancy={worst:.3g} in {elapsed:.0f}s")


def test_criterion_4_fast_regime_gaussian():
    start = time.monotonic()
    model = _contracted(UniformBox([-1, -1], [1, 1]), 0.75, GROUPS_2, CLAMP)
    sample = sample_margins(model, 10**4, 10**5, 42)
    law = limit_for(model)
    ks_values = [
        ks_statistic(sample.normalized[:, g], law.marginal(g).cdf) for g in range(2)
    ]
    rho = abs(float(np.corrcoef(sample.normalized, rowvar=False)[0, 1]))
    elapsed = time.monotonic() - start
    record(
        4,
        "fast contraction: per-group normality and decorrelation",
        max(ks_values) < 0.01 and rho < 0.02 and elapsed < 60.0,
        f"KS={[f'{v:.4f}' for v in ks_values]} |rho|={rho:.4f} in {elapsed:.0f}s",
    )


def test_criterion_5_critical_convolution():
    start = time.monotonic()
    base = PointMassMixture([([-2.0], 0.5), ([2.0], 0.5)])
    model = _contracted(base, 0.5, GROUPS_1, CLAMP)  # h = 1
    sample = sample_margins(model, 10**4, 10**5, 42)
    mixture_cdf = lambda x: 0.5 * ndtr(x + 2.0) + 0.5 * ndtr(x - 2.0)
    ks = ks_statistic(sample.normalized[:, 0], mixture_cdf)
    elapsed = time.monotonic() - start
    record(5, "critical contraction: Gaussian-mixture limit", ks < 0.01 and elapsed < 60.0,
           f"KS={ks:.4f} in {elapsed:.0f}s")


def test_criterion_6_subcritical_base_limit_and_alpha():
    start = time.monotonic()
    model = _contracted(UniformBox([-1.0], [1.0]), 0.15, GROUPS_1, CLAMP)
    sample = sample_margins(model, 10**6, 10**5, 42)
    assert sample.gamma[0] == pytest.approx((10**6) ** 0.85)
    uniform_cdf = lambda x: np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    ks = ks_statistic(sample.normalized[:, 0], uniform_cdf)
    points = []
    for n in (10**3, 10**4, 10**5, 10**6):
        est = expected_abs_margin(model, n, mode="monte-carlo", count=2 * 10**5, seed=7)
        points.append((n, est.per_capita[0]))
    alpha = estimate_alpha(points).alpha
    elapsed = time.monotonic() - start
    record(
        6,
        "subcritical contraction: base-measure limit and margin scaling",
        ks < 0.02 and 0.13 <= alpha <= 0.17 and elapsed < 180.0,
        f"KS={ks:.4f} alpha={alpha:.4f} in {elapsed:.0f}s",
    )


def test_criterion_7_three_cluster_limit():
    start = time.monotonic()
    groups = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = Product([UniformBox([-1.0], [1.0]) for _ in range(3)])
    schedule = PowerLawSchedule([1.0, 1.0, 1.0], [0.75, 0.5, 0.15])
    model = DeFinettiModel(groups, ContractedSequence(base, schedule), CLAMP)
    sample = sample_margins(model, 30000, 10**5, 42)
    law = limit_for(model)
    assert law.kind == "cluster"
    ks = ks_statistic(sample.normalized[:, 0], law.marginal(0).cdf)
    cross = cf_factorization_discrepancy(sample.normalized, [0], [1, 2])
    elapsed = time.monotonic() - start
    record(
        7,
        "mixed regimes: cluster marginal and block independence",
        ks < 0.01 and cross < 0.03 and elapsed < 120.0,
        f"C1 KS={ks:.4f} cross-CF={cross:.4f} in {elapsed:.0f}s",
    )


def test_criterion_8_local_limit_theorem():
    start = time.monotonic()
    static = DeFinettiModel(GROUPS_1, StaticSequence(PointMassMixture([(0.0, 1.0)])), CLAMP)
    fast = _contracted(UniformBox([-1.0], [1.0]), 0.75, GROUPS_1, CLAMP)
    ok = True
    detail = []
    for name, model in (("independent", static), ("fast-contracted", fast)):
        errors = [llt_sup_error(model, n) for n in (100, 1000, 10**4)]
        ok = ok and errors[0] > errors[1] > errors[2] and errors[2] < 0.01
        detail.append(f"{name}: {errors[2]:.2e}")
    elapsed = time.monotonic() - start
    record(8, "lattice probabilities approach the normal density",
           ok and elapsed < 60.0, "; ".join(detail) + f" in {elapsed:.0f}s")


def test_criterion_9_cwm_concentration():
    start = time.monotonic()
    grid = [20, 40, 80, 160]
    tails = np.array(concentration_profile(CouplingSpec.single_group(0.5), GROUPS_1, grid, 0.5))
    ns = np.array(grid, dtype=float)
    log_tails = np.log(tails)
    slope, intercept = np.polyfit(ns, log_tails, 1)
    fitted = slope * ns + intercept
    r2 = 1 - np.sum((log_tails - fitted) ** 2) / np.sum((log_tails - log_tails.mean()) ** 2)
    elapsed = time.monotonic() - start
    record(9, "mixing-measure tails decay exponentially",
           r2 > 0.999 and slope < 0 and elapsed < 60.0, f"R^2={r2:.5f} in {elapsed:.0f}s")


def test_criterion_10_negative_controls():
    start = time.monotonic()
    static_uniform = DeFinettiModel(GROUPS_1, StaticSequence(UniformBox([-1.0], [1.0])), CLAMP)
    decay = correlation_decay_report(static_uniform, [100, 1000, 10**4], threshold=0.01)
    terminal = float(np.asarray(decay.details["correlations"])[-1, 0])
    control_a = (not decay.passed) and abs(terminal - 1.0 / 3.0) < 1e-12

    subcritical = _contracted(UniformBox([-1.0], [1.0]), 0.15, GROUPS_1, CLAMP)
    sample = sample_margins(subcritical, 10**6, 10**5, 42)
    ks = ks_statistic(sample.normalized[:, 0], ndtr)
    control_b = ks > 0.1
    elapsed = time.monotonic() - start
    record(
        10,
        "negative controls fail as they must",
        control_a and control_b and elapsed < 60.0,
        f"static decay terminal={terminal:.4f} (fails), subcritical-vs-normal KS={ks:.3f} (fails) "
        f"in {elapsed:.0f}s",
    )


def test_criterion_11_worker_count_reproducibility(tmp_path):
    base_cfg = yaml.safe_load((CONFIGS / "fast_clt.yaml").read_text())
    outputs = {}
    for workers in (1, 8):
        doc = dict(base_cfg)
        doc["workers"] = workers
        from votelim.config import config_from_dict

        out_dir = tmp_path / f"workers{workers}"
        code = run_experiment(config_from_dict(doc), out_dir)
        assert code == 0
        reports = [
            json.loads(line)
            for line in (out_dir / "reports.jsonl").read_text().splitlines()
        ]
        outputs[workers] = {
            "stats": [(r["statistic"], r["observed"]) for r in reports],
            "margins": (out_dir / "margins.npy").read_bytes(),
        }
    identical_stats = outputs[1]["stats"] == outputs[8]["stats"]
    identical_margins = outputs[1]["margins"] == outputs[8]["margins"]
    record(
        11,
        "aggregated statistics identical across worker counts",
        identical_stats and identical_margins,
        f"{len(outputs[1]['stats'])} statistics compared",
    )
