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
    ContractedSequence,
    DeFinettiModel,
    Gaussian,
    GroupStructure,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    StaticSequence,
    UniformBox,
    UnsupportedMeasureError,
)
from votelim.measures import GAUSSIAN_BOX_SIGMAS, ExplicitSchedule, Mixture, _row_sum
from votelim.quadrature import MIX_BUDGET, grid_points, tensor_rule
from conftest import DELTA_0, GAUSS_1, UNIFORM_1, measures_1d, symmetric_measures_1d


# -- characteristic functions -------------------------------------------------

def test_cf_point_mass_at_origin():
    assert DELTA_0.cf([[3.7]])[0] == 1.0


def test_cf_standard_gaussian():
    assert GAUSS_1.cf([[1.0]])[0] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_cf_uniform_matches_quadrature_oracle():
    # independent oracle: numerical quadrature of exp(itx)/2 over [-1, 1]
    t = 2.0
    re, _ = quad(lambda x: math.cos(t * x) / 2.0, -1, 1, epsabs=1e-13)
    im, _ = quad(lambda x: math.sin(t * x) / 2.0, -1, 1, epsabs=1e-13)
    got = UNIFORM_1.cf([[t]])[0]
    assert got == pytest.approx(complex(re, im), abs=1e-12)
    assert got.real == pytest.approx(math.sin(2.0) / 2.0, abs=1e-14)


@given(measures_1d(), st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_cf_modulus_and_conjugate_symmetry(measure, t):
    value, mirrored = measure.cf([[t], [-t]])
    assert abs(value) <= 1.0 + 1e-12
    assert mirrored == pytest.approx(value.conjugate(), abs=1e-12)


@given(symmetric_measures_1d())
@settings(max_examples=40, deadline=None)
def test_symmetric_measures_have_real_cf_on_grid(measure):
    assert measure.is_symmetric
    assert np.all(np.abs(measure.cf(np.linspace(-5, 5, 100)[:, None]).imag) < 1e-10)


def test_cf_product_and_mixture_rules():
    prod = Product([UNIFORM_1, GAUSS_1])
    t = [[1.3, -0.7]]
    expected = UNIFORM_1.cf([[1.3]]) * GAUSS_1.cf([[-0.7]])
    assert prod.cf(t) == pytest.approx(expected, abs=1e-14)
    mix = Mixture([(UNIFORM_1, 0.25), (GAUSS_1, 0.75)])
    assert mix.cf([[0.9]]) == pytest.approx(
        0.25 * UNIFORM_1.cf([[0.9]]) + 0.75 * GAUSS_1.cf([[0.9]]), abs=1e-14
    )


# -- contraction ---------------------------------------------------------------

def interval_mass(measure, a, b) -> float:
    """Mass of the interval (a, b] under a 1-D measure, from its CDF."""
    return float(np.diff(measure.cdf(np.array([a, b])))[0])


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
    direct = interval_mass(measure.contract(eps), a, b)
    pulled = interval_mass(measure, a / eps, b / eps)
    assert direct == pytest.approx(pulled, abs=1e-12)


#: one lopsided 1-D measure of each kind, with no atom at a point of REFLECTION_POINTS
REFLECTED = {
    "atoms": PointMassMixture([([-1.0], 0.2), ([0.5], 0.3), ([2.0], 0.5)]),
    "box": UniformBox([-0.5], [2.0]),
    "gaussian": Gaussian([0.7], [[2.0]]),
    "product": Product([UniformBox([0.0], [1.0])]),
    "mixture": Mixture([(UniformBox([0.0], [1.0]), 0.4),
                        (PointMassMixture([([-1.0], 0.5), ([3.0], 0.5)]), 0.6)]),
}
REFLECTION_POINTS = np.linspace(-4.0, 4.0, 161) + 0.0123


@pytest.mark.parametrize("name", list(REFLECTED))
def test_contract_by_minus_one_is_the_reflection(name):
    measure = REFLECTED[name]
    image = measure.contract(-1.0)
    if isinstance(measure, PointMassMixture):
        assert np.array_equal(image.locations, -measure.locations)
        assert np.array_equal(image.weights, measure.weights)
    if isinstance(measure, UniformBox):
        assert (image.lower[0], image.upper[0]) == (-measure.upper[0], -measure.lower[0])
    # P(-X <= x) = 1 - P(X < -x), which is 1 - F(-x) wherever F is continuous
    x = REFLECTION_POINTS
    assert image.cdf(x) == pytest.approx(1.0 - measure.cdf(-x), abs=1e-12)
    with pytest.raises(ConfigError, match="nonzero"):
        measure.contract(0.0)


def test_contract_takes_a_signed_factor_per_coordinate():
    box = UniformBox([0.0, -1.0], [1.0, 3.0]).contract([-2.0, 0.5])
    assert box.lower.tolist() == [-2.0, -0.5] and box.upper.tolist() == [0.0, 1.5]
    g = Gaussian([1.0, 2.0], [[1.0, 0.3], [0.3, 2.0]]).contract([-1.0, 1.0])
    assert g.mean.tolist() == [-1.0, 2.0]
    assert g.covariance.tolist() == [[1.0, -0.3], [-0.3, 2.0]]
    assert not g.is_invariant_under([1.0, -1.0])
    assert DELTA_0.is_invariant_under(2.0) and not UNIFORM_1.is_invariant_under(2.0)


# -- interval masses from the CDF ----------------------------------------------------

def test_mass_uniform_proportional():
    narrow = UniformBox([-0.1], [0.1])
    assert interval_mass(narrow, -0.05, 0.05) == pytest.approx(0.5, abs=1e-15)


def test_mass_atom_boundary_counts_fully():
    # the CDF is right-continuous: an atom at the right end counts fully
    assert interval_mass(DELTA_0, -1e-9, 1e-9) == 1.0
    assert interval_mass(DELTA_0, -1e-9, 0.0) == 1.0
    edge = PointMassMixture([([1.0], 1.0)])
    assert interval_mass(edge, 0.0, 1.0) == 1.0


def test_mass_gaussian_matches_density_quadrature():
    # independent oracle: quadrature of the normal density
    expected, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -1, 1,
                       epsabs=1e-13)
    assert interval_mass(GAUSS_1, -1, 1) == pytest.approx(expected, abs=1e-12)
    assert interval_mass(GAUSS_1, -1, 1) == pytest.approx(0.682689492137, abs=1e-12)


def test_mass_correlated_gaussian_agrees_with_sampling():
    # the Genz quasi-Monte Carlo box probability against the seeded sampler
    from scipy.stats import multivariate_normal

    g = Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
    p = multivariate_normal(mean=g.mean, cov=g.covariance).cdf([1, 1], lower_limit=[-1, -1])
    draws = g.sample(np.random.default_rng(5), 200_000)
    hit = np.all(np.abs(draws) <= 1.0, axis=1).mean()
    assert p == pytest.approx(hit, abs=4 * math.sqrt(0.25 / 200_000))


@pytest.mark.parametrize(
    "mean, cov",
    [([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]]), ([0.2, -0.1], [[1.0, 0.6], [0.6, 1.0]])],
    ids=["diagonal", "correlated"],
)
def test_gaussian_quad_nodes_weight_the_normal_density(mean, cov):
    from scipy.stats import multivariate_normal

    g = Gaussian(mean, cov)
    axes, weights = g.quad_nodes(64)
    sigma = np.sqrt(np.diag(g.covariance))
    box_axes, box_weights = tensor_rule(
        g.mean - GAUSSIAN_BOX_SIGMAS * sigma, g.mean + GAUSSIAN_BOX_SIGMAS * sigma, 64
    )
    assert all(map(np.array_equal, axes, box_axes)) and len(axes) == len(box_axes)
    points = grid_points(axes)
    expected = box_weights * multivariate_normal(mean=mean, cov=cov).pdf(points)
    assert np.max(np.abs(weights / expected - 1.0)) <= 1e-14


# -- sampling ---------------------------------------------------------------------

def test_sample_single_atom_is_constant():
    draws = PointMassMixture([(0.0, 1.0)]).sample(np.random.default_rng(1), 5)
    assert np.array_equal(draws, np.zeros((5, 1)))


def test_sample_uniform_mean_near_zero():
    draws = UNIFORM_1.sample(np.random.default_rng(7), 10**5)
    se = math.sqrt(1.0 / 3.0 / 10**5)
    assert abs(draws.mean()) < 3 * se


def test_sample_gaussian_variance():
    draws = GAUSS_1.sample(np.random.default_rng(7), 10**5)
    se = math.sqrt(2.0 / 10**5)  # Monte Carlo SE of a unit-normal variance estimate
    assert abs(draws.var(ddof=1) - 1.0) < 3 * se


def test_sampling_is_deterministic():
    mix = Mixture([(UNIFORM_1, 0.5), (GAUSS_1, 0.5)])
    a = mix.sample(np.random.default_rng(123), 1000)
    b = mix.sample(np.random.default_rng(123), 1000)
    assert np.array_equal(a, b)


def test_sampling_matches_cf_on_grid():
    draws = UNIFORM_1.sample(np.random.default_rng(11), 10**5)[:, 0]
    bound = 5.0 / math.sqrt(10**5)
    t = np.linspace(-3, 3, 21)
    emp = np.exp(1j * np.outer(draws, t)).mean(axis=0)
    assert np.all(np.abs(emp - UNIFORM_1.cf(t[:, None])) < bound)


def test_box_and_product_draws_equal_the_broadcast_formula():
    # group-major draws, one column at a time, keep the bits of the
    # broadcast lower + (upper - lower) * u over the same uniform stream
    lower, upper = np.array([-1.0, -0.3, 0.1]), np.array([1.0, 2.7, 0.35])
    box = UniformBox(lower, upper)
    drawn = box.sample(np.random.default_rng(5), 1000)
    u = np.random.default_rng(5).random((1000, 3))
    assert drawn.tobytes() == (lower + (upper - lower) * u).tobytes()
    assert all(drawn[:, k].flags.c_contiguous for k in range(3))
    product = Product([UniformBox([lo], [hi]) for lo, hi in zip(lower, upper)])
    rng = np.random.default_rng(5)
    columns = [lo + (hi - lo) * rng.random((1000, 1)) for lo, hi in zip(lower, upper)]
    assert product.sample(np.random.default_rng(5), 1000).tobytes() == np.hstack(columns).tobytes()


# -- construction validation ---------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        PointMassMixture([([0.0], 0.5), ([1.0], 0.6)])
    with pytest.raises(ConfigError):
        Mixture([(UNIFORM_1, 0.7), (GAUSS_1, 0.7)])


def test_weights_must_be_nonnegative():
    with pytest.raises(ConfigError):
        PointMassMixture([([0.0], 1.5), ([1.0], -0.5)])


@pytest.mark.parametrize("build", [
    lambda w: PointMassMixture([([0.0], w)]),
    lambda w: PointMassMixture([([0.0], w), ([1.0], 0.5)]),
    lambda w: Mixture([(UniformBox([-1.0], [1.0]), w)]),
    lambda w: Mixture([(UNIFORM_1, 0.5), (GAUSS_1, w)]),
], ids=["atom", "atoms", "component", "components"])
def test_a_nan_weight_is_refused(build):
    # nan < 0 and |nan - 1| > tol are both False, so each test must be written to fail on nan
    with pytest.raises(ConfigError, match="weights must be nonnegative"):
        build(math.nan)


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
    assert TANH([0.0])[0] == 0.0
    # independent oracle: tanh(x) = integral of sech^2 from 0 to x
    expected, _ = quad(lambda u: 1.0 / math.cosh(u) ** 2, 0.0, 0.5, epsabs=1e-14)
    assert TANH([0.5])[0] == pytest.approx(expected, abs=1e-12)
    assert TANH([0.5])[0] == pytest.approx(0.462117157, abs=1e-9)


def test_clamp_behavior():
    out = CLAMP([0.3, -2.0])
    assert np.allclose(out, [0.3, -1.0])


@given(st.floats(-50, 50))
@settings(max_examples=50)
def test_bias_maps_are_odd_bounded_monotone(x):
    for bmap in (TANH, CLAMP):
        y = bmap([x])[0]
        assert -1.0 <= y <= 1.0
        assert bmap([-x])[0] == pytest.approx(-y, abs=1e-15)
        assert bmap([x + 0.5])[0] >= y


def test_bias_map_limits():
    assert TANH([50.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert CLAMP([50.0])[0] == 1.0


# -- contraction schedules ---------------------------------------------------------------

def test_power_law_regimes_are_total_and_correct():
    sched = PowerLawSchedule([1.0, 2.0, 0.5], [0.75, 0.5, 0.15])
    assert sched.regimes == ("fast", "critical", "subcritical")
    assert sched.h[1] == 2.0


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=50)
def test_regime_classification_total(c, a):
    sched = PowerLawSchedule(c, a)
    assert sched.regimes[0] in ("fast", "critical", "subcritical")


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
    assert sched.regimes == ("critical",)
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
    assert prod.marginal([0]).cf([[1.0]]) == UNIFORM_1.cf([[1.0]])


def test_negation_detects_asymmetry():
    shifted = UniformBox([0.0], [1.0])
    assert not shifted.is_symmetric
    assert shifted.contract(-1.0).is_symmetric is False
    assert UNIFORM_1.is_symmetric


def test_atom_symmetry_compares_merged_weights_within_tolerance():
    # the two atoms at -1 merge to 0.30000000000000004, the one at +1 weighs 0.3
    rounded = PointMassMixture([([-1.0], 0.1), ([-1.0], 0.2), ([1.0], 0.3), ([0.0], 0.4)])
    assert rounded.is_symmetric
    StaticSequence(rounded)
    # a gap of 2e-12 is a different weight, not rounding
    skewed = PointMassMixture(
        [([-1.0], 0.1), ([-1.0], 0.2 + 2e-12), ([1.0], 0.3), ([0.0], 0.4 - 2e-12)]
    )
    assert not skewed.is_symmetric
    with pytest.raises(ConfigError, match="symmetric"):
        StaticSequence(skewed)
    assert not PointMassMixture([([-1.0], 0.5), ([2.0], 0.5)]).is_symmetric


def test_mixture_symmetry_via_paired_components():
    left = PointMassMixture([([-2.0], 1.0)])
    right = PointMassMixture([([2.0], 1.0)])
    assert Mixture([(left, 0.5), (right, 0.5)]).is_symmetric
    assert not Mixture([(left, 0.6), (right, 0.4)]).is_symmetric


# -- immutability and the grid memo -------------------------------------------------

IMMUTABLE_SCHEDULES = {
    "power-law": lambda: PowerLawSchedule([1.0, 2.0], 0.75),
    "explicit": lambda: ExplicitSchedule({100: [0.5], 200: [0.25]}, ["critical"], h=[1.0]),
}


@pytest.mark.parametrize("build", IMMUTABLE_SCHEDULES.values(), ids=IMMUTABLE_SCHEDULES.keys())
def test_assigning_a_schedule_attribute_or_table_entry_raises(build):
    schedule = build()
    names = ["m", "regimes", "h", "extra"] + (["table"] if hasattr(schedule, "table") else
                                              ["coefficients", "exponents"])
    for name in names:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(schedule, name, ("bogus",))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(schedule, name)
    if hasattr(schedule, "table"):
        with pytest.raises(TypeError):
            schedule.table[300] = (-3.0,)
        with pytest.raises(TypeError):
            del schedule.table[100]
        assert schedule.table == {100: (0.5,), 200: (0.25,)}
        assert schedule.eps(100, [100]).tolist() == [0.5]
    assert schedule.regimes == build().regimes


def test_a_model_keeps_the_schedule_its_memoized_mu_n_came_from():
    schedule = PowerLawSchedule(1.0, 0.75)
    model = DeFinettiModel(GroupStructure(1, [1.0]), ContractedSequence(UNIFORM_1, schedule), CLAMP)
    before = model.mixing_measure(100)
    with pytest.raises(AttributeError, match="immutable"):
        schedule.coefficients = (2.0,)
    # the memo and a fresh mu_n agree: both read coefficient 1
    assert model.mixing_measure(100) is before
    assert model.mixing_measure(101).upper[0] == pytest.approx(101 ** -0.75)
    assert before.upper[0] == pytest.approx(100 ** -0.75)


IMMUTABLE_MEASURES = {
    "atoms": DELTA_0,
    "box": UNIFORM_1,
    "gaussian": Gaussian([0.0, 0.5], [[1.0, 0.3], [0.3, 2.0]]),
    "product": Product([UNIFORM_1, GAUSS_1]),
    "mixture": Mixture([(UNIFORM_1, 0.5), (GAUSS_1, 0.5)]),
}


@pytest.mark.parametrize("measure", IMMUTABLE_MEASURES.values(), ids=IMMUTABLE_MEASURES.keys())
def test_assigning_a_measure_attribute_raises(measure):
    with pytest.raises(AttributeError, match="immutable"):
        measure.dim = 3
    with pytest.raises(AttributeError, match="immutable"):
        measure.extra = 1
    with pytest.raises(AttributeError, match="immutable"):
        del measure.dim


@pytest.mark.parametrize("measure", IMMUTABLE_MEASURES.values(), ids=IMMUTABLE_MEASURES.keys())
def test_a_memoized_grid_is_shared_and_read_only(measure):
    axes, weights = measure.quad_nodes(64)
    again = measure.quad_nodes(64)
    assert again[1] is weights and all(a is b for a, b in zip(again[0], axes))
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        axes[0] *= 2.0


def test_a_grid_above_the_mix_budget_is_built_again():
    box = UniformBox([-1.0] * 3, [1.0] * 3)
    small = box.quad_nodes(64)
    assert small[1].size <= MIX_BUDGET and box.quad_nodes(64)[1] is small[1]
    large = box.quad_nodes(128)
    assert large[1].size > MIX_BUDGET
    again = box.quad_nodes(128)
    assert again[1] is not large[1] and np.array_equal(again[1], large[1])
    assert not again[1].flags.writeable
    assert sorted(box._grids) == [64]


def test_a_failed_grid_raises_on_every_call_and_is_not_kept():
    degenerate = Gaussian([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    for _ in range(2):
        with pytest.raises(UnsupportedMeasureError, match="positive definite"):
            degenerate.quad_nodes(64)
    assert degenerate._grids == {}


@pytest.mark.parametrize("measure", IMMUTABLE_MEASURES.values(), ids=IMMUTABLE_MEASURES.keys())
def test_a_whole_marginal_is_the_measure_itself(measure):
    assert measure.marginal(range(measure.dim)) is measure
    if measure.dim == 2:
        swapped = measure.marginal([1, 0])
        assert swapped is not measure
        assert swapped.cf([[0.3, -0.7]]) == pytest.approx(measure.cf([[-0.7, 0.3]]), abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_column_sum_has_the_bits_of_the_row_reduction(dim):
    rng = np.random.default_rng(dim)
    squares = np.square(rng.standard_normal((4099, dim)) * rng.uniform(0.0, 1e3, (4099, dim)))
    assert np.array_equal(_row_sum(squares), np.sum(squares, axis=-1))
