import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import kolmogi, ndtr, ndtri

from votelim import (
    DataError,
    LimitLaw,
    ecf_distance,
    estimate_alpha,
    ks_statistic,
    ks_threshold,
    llt_sup_error,
    correlation_decay_report,
)
from votelim.models import exact_margin_pmf, sample_margins
from votelim.verify import (
    KS_SCALE,
    cf_factorization_discrepancy,
    default_cf_grid,
    empirical_cf,
    make_report,
    write_reports_csv,
    write_reports_jsonl,
)
from conftest import UNIFORM_1, contracted, oracle_matrix, static_delta0, GROUPS_1


# -- KS statistic -----------------------------------------------------------------

def test_ks_on_stratified_quantiles_is_tiny():
    n = 1000
    sample = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(sample, ndtr) <= 1.0 / (2 * n) + 1e-12


def test_ks_constant_sample_against_normal():
    assert ks_statistic(np.zeros(100), ndtr) == pytest.approx(0.5)


def test_ks_separated_supports_approach_one():
    sample = np.full(1000, -50.0)
    assert ks_statistic(sample, ndtr) > 0.999


def test_ks_rejects_empty_sample():
    with pytest.raises(DataError):
        ks_statistic([], lambda x: 0.5)


def test_ks_rejects_cdf_of_wrong_shape():
    # a scalar would broadcast against the sample into a plausible statistic
    with pytest.raises(DataError, match="shape"):
        ks_statistic(np.linspace(-1.0, 1.0, 50), lambda x: 0.5)
    with pytest.raises(DataError, match="shape"):
        ks_statistic(np.linspace(-1.0, 1.0, 50), lambda x: ndtr(x)[:-1])


@given(
    st.lists(st.floats(-5, 5), min_size=5, max_size=60),
    st.floats(0.1, 4.0),
    st.floats(-3, 3),
)
@settings(max_examples=40)
def test_ks_affine_equivariance(values, scale, shift):
    sample = np.asarray(values)
    base_cdf = ndtr
    direct = ks_statistic(sample, base_cdf)
    transformed = ks_statistic(
        scale * sample + shift, lambda x: base_cdf((x - shift) / scale)
    )
    assert transformed == pytest.approx(direct, abs=1e-12)


def _sorted_points_ks(sample, cdf) -> float:
    """KS with the CDF at every sorted sample point, ties included."""
    sample = np.sort(np.asarray(sample, dtype=float).reshape(-1))
    count = sample.size
    f_vals = np.asarray(cdf(sample), dtype=float)
    upper = np.arange(1, count + 1) / count - f_vals
    lower = f_vals - np.arange(0, count) / count
    return float(max(upper.max(), lower.max(), 0.0))


@pytest.mark.parametrize("name, model", oracle_matrix(), ids=[name for name, _ in oracle_matrix()])
def test_ks_on_distinct_values_keeps_the_bits_of_every_sorted_point(name, model):
    sample = sample_margins(model, 60, 3000, 5)
    normalized = sample.normalized
    for g in range(normalized.shape[1]):
        column = normalized[:, g]
        assert ks_statistic(column, ndtr) == _sorted_points_ks(column, ndtr)


@pytest.mark.parametrize("case", ["all-distinct", "heavily-tied"])
def test_ks_on_distinct_values_keeps_the_bits_off_the_lattice(case):
    rng = np.random.default_rng(17)
    sample = rng.standard_normal(5001)
    if case == "heavily-tied":
        sample = np.round(sample * 2.0) / 2.0
        assert np.unique(sample).size < 20
    else:
        assert np.unique(sample).size == sample.size

    def shifted(x):  # a law the sample is not drawn from
        return ndtr((x - 0.05) / 1.1)

    assert ks_statistic(sample, shifted) == _sorted_points_ks(sample, shifted)


def test_ks_threshold_calibration():
    # 99.9% Kolmogorov quantile (~1.9495) with safety factor 1.5
    assert ks_threshold(10**5) == pytest.approx(1.5 * 1.94947 / math.sqrt(10**5), rel=1e-4)
    assert ks_threshold(10**5) < 0.01


def test_ks_scale_is_the_scaled_kolmogorov_quantile():
    assert KS_SCALE == 1.5 * kolmogi(1.0 - 0.999)
    assert ks_threshold(10**5) == KS_SCALE / math.sqrt(10**5)


# -- empirical CF distance -----------------------------------------------------------

def test_ecf_gaussian_sample_against_gaussian_law():
    law = LimitLaw.standard_gaussian(1)
    draws = np.random.default_rng(4).standard_normal(10**5)
    assert ecf_distance(draws, law) < 0.02


def test_ecf_zero_frequency_contributes_nothing():
    emp = empirical_cf(np.random.default_rng(0).standard_normal(100), np.array([[0.0]]))
    assert emp[0] == pytest.approx(1.0, abs=1e-15)


def test_ecf_point_mass_against_gaussian():
    law = LimitLaw.standard_gaussian(1)
    disc = ecf_distance(np.zeros(1000), law, t_grid=np.array([2.0]))
    assert disc == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


def test_ecf_of_an_empty_sample_is_a_data_error():
    law = LimitLaw.standard_gaussian(1)
    with pytest.raises(DataError, match="nonempty"):
        ecf_distance(np.zeros(0), law)
    with pytest.raises(DataError, match="nonempty"):
        empirical_cf(np.zeros((0, 2)), default_cf_grid(2))


def test_default_grid_shape():
    grid = default_cf_grid(3)
    assert grid.shape == (63, 3)
    assert np.all(np.count_nonzero(grid, axis=1) <= 1)


def test_cf_factorization_detects_dependence():
    rng = np.random.default_rng(1)
    independent = rng.standard_normal((20000, 2))
    x = rng.standard_normal(20000)
    dependent = np.column_stack([x, x])
    assert cf_factorization_discrepancy(independent, [0], [1]) < 0.05
    assert cf_factorization_discrepancy(dependent, [0], [1]) > 0.2


# -- LLT sup error ---------------------------------------------------------------------

def test_llt_error_decreases_for_independent_voters():
    model = static_delta0()
    errors = [llt_sup_error(model, n) for n in (100, 1000, 10**4)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.01


def test_llt_fast_contracted_close_to_baseline():
    # a very fast contraction is indistinguishable from independent voting
    baseline = llt_sup_error(static_delta0(), 10**4)
    fast = llt_sup_error(contracted(UNIFORM_1, 1.5), 10**4)
    assert fast < 2 * baseline


def test_llt_rescaling_identity():
    # rescaled values, multiplied back by the cell volume, recover mass 1
    model = static_delta0()
    pmf = exact_margin_pmf(model, 500)
    scale = math.sqrt(500) / 2.0
    rescaled = pmf.probs * scale
    assert float(rescaled.sum() * (2.0 / math.sqrt(500))) == pytest.approx(1.0, abs=1e-12)


# -- scaling exponent fits ----------------------------------------------------------------

def test_alpha_exact_power_law():
    points = [(n, n**-0.15) for n in (10**3, 10**4, 10**5, 10**6)]
    est = estimate_alpha(points)
    assert est.alpha == pytest.approx(0.15, abs=1e-12)
    assert est.residual_variance == pytest.approx(0.0, abs=1e-20)


def test_alpha_square_root_law_any_scale():
    points = [(n, 3.7 * n**-0.5) for n in (100, 1000, 10**4)]
    assert estimate_alpha(points).alpha == pytest.approx(0.5, abs=1e-12)


def test_alpha_two_point_slope():
    est = estimate_alpha([(100, 100**-0.2), (10**4, (10**4) ** -0.2)])
    assert est.alpha == pytest.approx(0.2, abs=1e-12)


@given(st.floats(0.05, 0.6), st.floats(0.1, 10.0))
@settings(max_examples=40)
def test_alpha_scale_invariance(alpha, c):
    base = [(n, n**-alpha) for n in (10, 100, 1000)]
    scaled = [(n, c * m) for n, m in base]
    assert estimate_alpha(scaled).alpha == pytest.approx(estimate_alpha(base).alpha, abs=1e-10)


def test_alpha_data_errors():
    with pytest.raises(DataError):
        estimate_alpha([(100, 0.1)])
    with pytest.raises(DataError):
        estimate_alpha([(100, 0.1), (100, 0.2)])
    with pytest.raises(DataError):
        estimate_alpha([(100, 0.1), (1000, -0.5)])
    for bad in [(math.nan, 0.1), (math.inf, 0.1), (0, 0.1), (1000, math.nan), (1000, math.inf)]:
        with pytest.raises(DataError, match="finite"):
            estimate_alpha([(100, 0.1), bad])


# -- correlation decay reports ---------------------------------------------------------------

def test_decay_report_static_delta0_trivially_passes():
    report = correlation_decay_report(static_delta0(), [100, 1000], threshold=0.01)
    assert report.passed
    assert report.observed == 0.0


def test_decay_report_contracted_uniform_ratio():
    model = contracted(UNIFORM_1, 0.5)
    report = correlation_decay_report(model, [100, 1000, 10**4], threshold=0.01)
    assert report.passed
    values = np.asarray(report.details["correlations"])[:, 0]
    # eps = n^{-1/2} gives correlations eps^2 / 3, a factor 10 per decade
    assert values[0] / values[1] == pytest.approx(10.0, rel=1e-6)
    assert values[1] / values[2] == pytest.approx(10.0, rel=1e-6)


def test_decay_report_static_uniform_fails():
    from votelim import CLAMP, DeFinettiModel, StaticSequence

    model = DeFinettiModel(GROUPS_1, StaticSequence(UNIFORM_1), CLAMP)
    report = correlation_decay_report(model, [100, 1000, 10**4], threshold=0.01)
    assert not report.passed
    values = np.asarray(report.details["correlations"])[:, 0]
    assert np.allclose(values, 1.0 / 3.0, atol=1e-12)  # second moment of the uniform


# -- reports ------------------------------------------------------------------------------------

@given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=50)
def test_report_pass_iff_observed_below_threshold(observed, threshold):
    report = make_report("x", "stat", observed, threshold)
    assert report.passed == (observed <= threshold)


def test_report_serialization_roundtrip(tmp_path):
    reports = [
        make_report("exp", "a", 0.5, 1.0, seed=7, n_grid=[10, 20], details={"x": [1.0]}),
        make_report("exp", "b", 2.0, 1.0),
    ]
    jsonl = tmp_path / "reports.jsonl"
    write_reports_jsonl(reports, jsonl)
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["passed"] is True and first["seed"] == 7
    second = json.loads(lines[1])
    assert second["passed"] is False

    csv_path = tmp_path / "summary.csv"
    write_reports_csv(reports, csv_path)
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "experiment,statistic,observed,threshold,passed"
    assert len(rows) == 3


def test_boolean_details_serialize_as_json_booleans():
    # bool is a subclass of int, so a bool detail must not pass for a number
    details = {"strictly_decreasing": False, "flags": [True, np.bool_(False)], "count": 3}
    line = make_report("exp", "a", 0.5, 1.0, details=details).to_json()
    assert '"strictly_decreasing": false' in line and "[true, false]" in line
    assert json.loads(line)["details"] == {"strictly_decreasing": False, "flags": [True, False], "count": 3}
    assert type(json.loads(line)["details"]["count"]) is int


def test_reports_hold_no_nan(tmp_path):
    with pytest.raises(DataError, match="cross-correlation-0-1 is undefined"):
        make_report("exp", "cross-correlation-0-1", float("nan"), 0.02)
    with pytest.raises(DataError):
        make_report("exp", "a", 0.5, np.nan)
    # a NaN inside the details is refused before any line is written
    reports = [make_report("exp", "a", 0.5, 1.0),
               make_report("exp", "b", 0.5, 1.0, details={"errors": [0.1, np.nan]})]
    path = tmp_path / "reports.jsonl"
    with pytest.raises(DataError, match="NaN"):
        write_reports_jsonl(reports, path)
    assert not path.exists()
    # infinity stays: it is the observed value of a decay report that must fail
    line = make_report("exp", "c", math.inf, 0.01).to_json()
    assert json.loads(line)["observed"] == math.inf


def test_baseline_model_passes_all_three_statistics():
    # fully independent voters at n = 10^4: KS, ECF, and LLT all small
    model = static_delta0()
    sample = sample_margins(model, 10**4, 10**5, 42)
    law = LimitLaw.standard_gaussian(1)
    assert ks_statistic(sample.normalized[:, 0], law.cdf) < 0.01
    assert ecf_distance(sample.normalized[:, 0], law) < 0.02
    assert llt_sup_error(model, 10**4) < 0.01
