import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from votelim import (
    CLAMP,
    TANH,
    ConfigError,
    ExplicitSchedule,
    Gaussian,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    UniformBox,
    apply_bias_map,
    mass_in_box,
    sample,
)
from conftest import DELTA_0, GAUSS_1, UNIFORM_1, measures_1d, symmetric_measures_1d


# -- characteristic functions -------------------------------------------------

def test_cf_point_mass_at_origin():
    assert DELTA_0.cf([3.7]) == 1.0


def test_cf_standard_gaussian():
    assert GAUSS_1.cf([1.0]) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_cf_uniform_matches_quadrature_oracle():
    # independent oracle: numerical quadrature of exp(itx)/2 over [-1, 1]
    t = 2.0
    re, _ = quad(lambda x: math.cos(t * x) / 2.0, -1, 1, epsabs=1e-13)
    im, _ = quad(lambda x: math.sin(t * x) / 2.0, -1, 1, epsabs=1e-13)
    got = UNIFORM_1.cf([t])
    assert got == pytest.approx(complex(re, im), abs=1e-12)
    assert got.real == pytest.approx(math.sin(2.0) / 2.0, abs=1e-14)


@given(measures_1d(), st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_cf_modulus_and_conjugate_symmetry(measure, t):
    value = measure.cf([t])
    assert abs(value) <= 1.0 + 1e-12
    assert measure.cf([-t]) == pytest.approx(value.conjugate(), abs=1e-12)


@given(symmetric_measures_1d())
@settings(max_examples=40, deadline=None)
def test_symmetric_measures_have_real_cf_on_grid(measure):
    assert measure.is_symmetric
    for t in np.linspace(-5, 5, 100):
        assert abs(measure.cf([t]).imag) < 1e-10


def test_cf_product_and_mixture_rules():
    prod = Product([UNIFORM_1, GAUSS_1])
    t = [1.3, -0.7]
    expected = UNIFORM_1.cf([1.3]) * GAUSS_1.cf([-0.7])
    assert prod.cf(t) == pytest.approx(expected, abs=1e-14)
    mix = Mixture([(UNIFORM_1, 0.25), (GAUSS_1, 0.75)])
    assert mix.cf([0.9]) == pytest.approx(
        0.25 * UNIFORM_1.cf([0.9]) + 0.75 * GAUSS_1.cf([0.9]), abs=1e-14
    )


# -- contraction ---------------------------------------------------------------

def test_contract_box():
    c = UNIFORM_1.contract(0.1)
    assert np.allclose(c.lower, [-0.1]) and np.allclose(c.upper, [0.1])


def test_contract_atoms():
    two = PointMassMixture([([-1.0], 0.5), ([1.0], 0.5)])
    c = two.contract(0.2)
    assert sorted(c.locations[:, 0]) == [-0.2, 0.2]


def test_contract_gaussian_scales_variance():
    c = GAUSS_1.contract(0.5)
    assert c.covariance[0, 0] == pytest.approx(0.25, abs=1e-15)


@given(measures_1d(), st.floats(0.05, 2.0), st.floats(-2, 2), st.floats(0.01, 2))
@settings(max_examples=60, deadline=None)
def test_pushforward_consistency(measure, eps, a, width):
    b = a + width
    direct = mass_in_box(measure.contract(eps), [a], [b])
    pulled = mass_in_box(measure, [a / eps], [b / eps])
    assert direct == pytest.approx(pulled, abs=1e-12)


# -- box masses ------------------------------------------------------------------

def test_mass_uniform_proportional():
    narrow = UniformBox([-0.1], [0.1])
    assert mass_in_box(narrow, [-0.05], [0.05]) == pytest.approx(0.5, abs=1e-15)


def test_mass_atom_boundary_counts_fully():
    assert mass_in_box(DELTA_0, [-1e-9], [1e-9]) == 1.0
    edge = PointMassMixture([([1.0], 1.0)])
    assert mass_in_box(edge, [0.0], [1.0]) == 1.0


def test_mass_gaussian_matches_density_quadrature():
    # independent oracle: quadrature of the normal density
    expected, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -1, 1,
                       epsabs=1e-13)
    assert mass_in_box(GAUSS_1, [-1], [1]) == pytest.approx(expected, abs=1e-12)
    assert mass_in_box(GAUSS_1, [-1], [1]) == pytest.approx(0.682689492137, abs=1e-12)


def test_mass_correlated_gaussian_agrees_with_sampling():
    g = Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
    p = mass_in_box(g, [-1, -1], [1, 1])
    draws = sample(g, 5, 200_000)
    hit = np.all(np.abs(draws) <= 1.0, axis=1).mean()
    assert p == pytest.approx(hit, abs=4 * math.sqrt(0.25 / 200_000))


def test_mass_in_box_rejects_inverted_bounds():
    with pytest.raises(ConfigError):
        mass_in_box(UNIFORM_1, [1.0], [-1.0])


# -- sampling ---------------------------------------------------------------------

def test_sample_single_atom_is_constant():
    draws = sample(PointMassMixture([(0.0, 1.0)]), 1, 5)
    assert np.array_equal(draws, np.zeros((5, 1)))


def test_sample_uniform_mean_near_zero():
    draws = sample(UNIFORM_1, 7, 10**5)
    se = math.sqrt(1.0 / 3.0 / 10**5)
    assert abs(draws.mean()) < 3 * se


def test_sample_gaussian_variance():
    draws = sample(GAUSS_1, 7, 10**5)
    se = math.sqrt(2.0 / 10**5)  # Monte Carlo SE of a unit-normal variance estimate
    assert abs(draws.var(ddof=1) - 1.0) < 3 * se


def test_sampling_is_deterministic():
    a = sample(Mixture([(UNIFORM_1, 0.5), (GAUSS_1, 0.5)]), 123, 1000)
    b = sample(Mixture([(UNIFORM_1, 0.5), (GAUSS_1, 0.5)]), 123, 1000)
    assert np.array_equal(a, b)


def test_sampling_matches_cf_on_grid():
    draws = sample(UNIFORM_1, 11, 10**5)[:, 0]
    bound = 5.0 / math.sqrt(10**5)
    for t in np.linspace(-3, 3, 21):
        emp = np.exp(1j * t * draws).mean()
        assert abs(emp - UNIFORM_1.cf([t])) < bound


def test_sample_requires_positive_count():
    with pytest.raises(ConfigError):
        sample(UNIFORM_1, 1, 0)


# -- construction validation ---------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        PointMassMixture([([0.0], 0.5), ([1.0], 0.6)])
    with pytest.raises(ConfigError):
        Mixture([(UNIFORM_1, 0.7), (GAUSS_1, 0.7)])


def test_weights_must_be_nonnegative():
    with pytest.raises(ConfigError):
        PointMassMixture([([0.0], 1.5), ([1.0], -0.5)])


def test_box_needs_lower_below_upper():
    with pytest.raises(ConfigError):
        UniformBox([1.0], [1.0])


def test_gaussian_needs_psd_symmetric_covariance():
    with pytest.raises(ConfigError):
        Gaussian([0, 0], [[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ConfigError):
        Gaussian([0, 0], [[1.0, 0.5], [0.2, 1.0]])  # not symmetric


def test_product_factors_must_be_1d():
    with pytest.raises(ConfigError):
        Product([UniformBox([-1, -1], [1, 1])])


# -- bias maps ------------------------------------------------------------------------

def test_tanh_at_zero_and_half():
    assert apply_bias_map(TANH, [0.0])[0] == 0.0
    # independent oracle: tanh(x) = integral of sech^2 from 0 to x
    expected, _ = quad(lambda u: 1.0 / math.cosh(u) ** 2, 0.0, 0.5, epsabs=1e-14)
    assert apply_bias_map(TANH, [0.5])[0] == pytest.approx(expected, abs=1e-12)
    assert apply_bias_map(TANH, [0.5])[0] == pytest.approx(0.462117157, abs=1e-9)


def test_clamp_behavior():
    out = apply_bias_map(CLAMP, [0.3, -2.0])
    assert np.allclose(out, [0.3, -1.0])


@given(st.floats(-50, 50))
@settings(max_examples=50)
def test_bias_maps_are_odd_bounded_monotone(x):
    for bmap in (TANH, CLAMP):
        y = apply_bias_map(bmap, [x])[0]
        assert -1.0 <= y <= 1.0
        assert apply_bias_map(bmap, [-x])[0] == pytest.approx(-y, abs=1e-15)
        assert apply_bias_map(bmap, [x + 0.5])[0] >= y


def test_bias_map_limits():
    assert apply_bias_map(TANH, [50.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert apply_bias_map(CLAMP, [50.0])[0] == 1.0


# -- contraction schedules ---------------------------------------------------------------

def test_power_law_regimes_are_total_and_correct():
    sched = PowerLawSchedule([1.0, 2.0, 0.5], [0.75, 0.5, 0.15])
    assert sched.regimes() == ("fast", "critical", "subcritical")
    assert sched.critical_h() == (None, 2.0, None)


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=50)
def test_regime_classification_total(c, a):
    sched = PowerLawSchedule(c, a)
    assert sched.regimes()[0] in ("fast", "critical", "subcritical")


def test_power_law_eps_values():
    sched = PowerLawSchedule(2.0, 0.5)
    assert sched.eps(100, [100])[0] == pytest.approx(0.2, abs=1e-15)


def test_power_law_rejects_nonpositive_exponent():
    with pytest.raises(ConfigError, match="eps_n -> 0"):
        PowerLawSchedule(1.0, -0.2)
    with pytest.raises(ConfigError):
        PowerLawSchedule(-1.0, 0.5)


def test_explicit_schedule_declares_regimes():
    sched = ExplicitSchedule({100: [0.1], 1000: [0.05]}, ["critical"], h=[1.0])
    assert sched.regimes() == ("critical",)
    assert sched.eps(100, [100])[0] == 0.1
    with pytest.raises(ConfigError):
        sched.eps(500, [500])


def test_explicit_schedule_rejects_growing_eps():
    with pytest.raises(ConfigError, match="eps_n -> 0"):
        ExplicitSchedule({10: [0.1], 20: [0.2]}, ["fast"])


def test_explicit_schedule_rejects_bad_regime_tags():
    with pytest.raises(ConfigError):
        ExplicitSchedule({10: [0.1]}, ["sideways"])


# -- structure helpers ---------------------------------------------------------------------

def test_marginal_of_product_and_gaussian():
    g = Gaussian([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]])
    marg = g.marginal([1])
    assert marg.mean[0] == 1.0 and marg.covariance[0, 0] == 2.0
    prod = Product([UNIFORM_1, GAUSS_1])
    assert prod.marginal([0]).cf([1.0]) == UNIFORM_1.cf([1.0])


def test_negation_detects_asymmetry():
    shifted = UniformBox([0.0], [1.0])
    assert not shifted.is_symmetric
    assert shifted.negate().is_symmetric is False
    assert UNIFORM_1.is_symmetric


def test_mixture_symmetry_via_paired_components():
    left = PointMassMixture([([-2.0], 1.0)])
    right = PointMassMixture([([2.0], 1.0)])
    assert Mixture([(left, 0.5), (right, 0.5)]).is_symmetric
    assert not Mixture([(left, 0.6), (right, 0.4)]).is_symmetric
