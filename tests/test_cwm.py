import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

from votelim import (
    ConfigError,
    CouplingSpec,
    CurieWeissSequence,
    DeFinettiModel,
    FreeEnergySurface,
    GroupStructure,
    QuadratureError,
    ResourceError,
    TANH,
    brute_force_pmf,
    concentration_profile,
    exact_margin_pmf,
    gibbs_pmf,
    pair_correlation,
    representation_equivalence_check,
    sample_margins,
)
from votelim.models import SAMPLE_BLOCK
from votelim.quadrature import grid_points, tensor_rule
from conftest import GROUPS_1, GROUPS_2, margin_prob, multinomial_tv_quantile, sample_tv

BETA_HALF = CouplingSpec.single_group(0.5)
J_TWO = CouplingSpec([[0.5, 0.2], [0.2, 0.5]])


def cwm_model(spec, groups=GROUPS_1):
    return DeFinettiModel(groups, CurieWeissSequence(spec), TANH)


def sample_cwm(spec, groups, n, count, seed, workers=1):
    return sample_margins(cwm_model(spec, groups), n, count, seed, workers=workers)


# -- coupling validation ------------------------------------------------------

def test_coupling_must_be_symmetric_psd():
    with pytest.raises(ConfigError):
        CouplingSpec([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ConfigError):
        CouplingSpec([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    with pytest.raises(ConfigError):
        CouplingSpec.single_group(-0.5)


def test_high_temperature_flag():
    assert BETA_HALF.is_high_temperature
    assert not CouplingSpec.single_group(1.0).is_high_temperature
    assert J_TWO.is_high_temperature
    assert not CouplingSpec([[0.9, 0.2], [0.2, 0.9]]).is_high_temperature


def test_coupling_spec_keeps_a_read_only_copy_and_is_immutable():
    j = np.array([[0.5, 0.2], [0.2, 0.5]])
    spec = CouplingSpec(j)
    j[0, 0] = 0.9  # the caller's matrix stays the caller's
    assert spec.j[0, 0] == 0.5 and spec.is_high_temperature
    with pytest.raises(ValueError, match="read-only"):
        spec.j[0, 0] = 0.9
    for name in ("j", "m", "_eigvals"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, np.eye(2))
    assert np.array_equal(spec.j, [[0.5, 0.2], [0.2, 0.5]])


# -- free energy ----------------------------------------------------------------

def artanh_series(m, terms=200):
    return sum(m ** (2 * k + 1) / (2 * k + 1) for k in range(terms))


def single_group_free_energy(beta, m):
    """Free energy of one group in the compact variable m = tanh(x):
    F(m) = ((1/beta) * artanh(m)^2 + ln(1 - m^2)) / 2 on (-1, 1)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (np.arctanh(m) ** 2 / beta + np.log1p(-(m**2)))


def test_single_group_free_energy_value():
    # oracle: artanh from its power series, assembled by hand
    expected = 0.5 * ((1.0 / 0.5) * artanh_series(0.5) ** 2 + math.log(1 - 0.25))
    assert single_group_free_energy(0.5, 0.5) == pytest.approx(expected, abs=1e-12)
    assert single_group_free_energy(0.5, 0.5) == pytest.approx(0.157896, abs=1e-6)


def test_free_energy_zero_at_origin_and_even():
    surface = FreeEnergySurface(J_TWO, GROUPS_2, 8)
    assert surface.value(np.zeros((1, 2)))[0] == 0.0
    grid = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
    assert np.max(np.abs(surface.value(grid) - surface.value(-grid))) < 1e-14
    assert single_group_free_energy(0.5, 0.0) == 0.0


def test_high_temperature_unique_minimum_and_phase_transition_witness():
    grid = np.linspace(-0.95, 0.95, 191)
    low = single_group_free_energy(0.5, grid)
    assert np.all(low[grid != 0.0] > 0.0)
    hot = single_group_free_energy(1.5, grid)
    assert np.any(hot < 0.0)


def test_compact_and_latent_free_energies_agree():
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 8)
    for m in (0.1, 0.4, 0.7):
        assert surface.value(np.array([[math.atanh(m)]]))[0] == pytest.approx(
            single_group_free_energy(0.5, m), abs=1e-13
        )


@pytest.mark.parametrize("spec, groups, n", [(BETA_HALF, GROUPS_1, 8), (J_TWO, GROUPS_2, 9)])
def test_free_energy_value_matches_per_row_loop(spec, groups, n):
    surface = FreeEnergySurface(spec, groups, n)
    x = np.random.default_rng(3).uniform(-3, 3, size=(40, groups.m))
    expected = [
        0.5 * float(row @ surface.q_matrix @ row)
        - sum(a * math.log(math.cosh(v)) for a, v in zip(surface.alpha, row))
        for row in x
    ]
    assert surface.value(x) == pytest.approx(expected, abs=1e-14)


# -- Gibbs law ---------------------------------------------------------------------

def gibbs_enumeration_oracle(j_matrix, sizes):
    """Walk every spin configuration and bucket margins by Gibbs weight."""
    m = len(sizes)
    n = sum(sizes)
    groups = np.repeat(np.arange(m), sizes)
    weights = {}
    for config in itertools.product([-1, 1], repeat=n):
        s = np.zeros(m)
        for g, x in zip(groups, config):
            s[g] += x
        energy = 0.5 * sum(
            j_matrix[a][b] * s[a] * s[b] / math.sqrt(sizes[a] * sizes[b])
            for a in range(m)
            for b in range(m)
        )
        key = tuple(int(v) for v in s)
        weights[key] = weights.get(key, 0.0) + math.exp(energy)
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def test_gibbs_two_voters_closed_form():
    pmf = gibbs_pmf(CouplingSpec.single_group(1.0), GROUPS_1, 2)
    assert margin_prob(pmf, [2]) == pytest.approx(math.e / (2 * math.e + 2), abs=1e-14)
    assert margin_prob(pmf, [0]) == pytest.approx(2 / (2 * math.e + 2), abs=1e-14)


def test_gibbs_matches_configuration_enumeration():
    for spec, groups, n in [
        (CouplingSpec.single_group(0.8), GROUPS_1, 7),
        (J_TWO, GROUPS_2, 8),
    ]:
        pmf = gibbs_pmf(spec, groups, n)
        oracle = gibbs_enumeration_oracle(spec.j.tolist(), list(groups.sizes(n)))
        for k, prob in oracle.items():
            assert margin_prob(pmf, list(k)) == pytest.approx(prob, abs=1e-13)


def test_gibbs_beta_zero_is_fair_coins():
    pmf = gibbs_pmf(CouplingSpec.single_group(0.0), GROUPS_1, 6)
    assert np.allclose(pmf.probs, binom.pmf(np.arange(7), 6, 0.5), atol=1e-14)


def test_gibbs_sign_symmetry():
    pmf = gibbs_pmf(J_TWO, GROUPS_2, 10)
    assert pmf.max_abs_diff(pmf.reflected()) < 1e-15


def test_gibbs_enumeration_guard():
    with pytest.raises(ResourceError):
        gibbs_pmf(BETA_HALF, GROUPS_1, 24)


# -- mixing density ------------------------------------------------------------------

def test_density_is_one_at_origin():
    assert FreeEnergySurface(BETA_HALF, GROUPS_1, 12).density(np.zeros((1, 1)))[0] == 1.0
    assert FreeEnergySurface(J_TWO, GROUPS_2, 8).density(np.zeros((1, 2)))[0] == 1.0


def test_density_peaks_at_origin_in_high_temperature():
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    grid = np.linspace(-3, 3, 301)[:, None]
    values = surface.density(grid)
    assert values.argmax() == 150  # the origin


def test_density_needs_positive_definite_coupling():
    with pytest.raises(ConfigError):
        FreeEnergySurface(CouplingSpec.single_group(0.0), GROUPS_1, 8)


def test_free_energy_surface_arrays_are_read_only():
    # the memoized grids are built from these arrays, so none may change
    surface = FreeEnergySurface(J_TWO, GROUPS_2, 8)
    _, weights = surface.quad_nodes(64)
    for name in ("alpha", "q_matrix", "_precision0"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(surface, name)[0] = 0.0
    assert np.array_equal(surface.quad_nodes(64)[1], weights)
    assert np.array_equal(surface.alpha, [0.5, 0.5])


def test_normalizer_cached_and_stable():
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    z1 = surface.normalizer()
    assert z1 == surface.normalizer()
    assert z1 == FreeEnergySurface(BETA_HALF, GROUPS_1, 10).normalizer()
    assert z1 > 0


# -- representation equivalence ---------------------------------------------------------

def test_representation_equivalence_single_group():
    assert representation_equivalence_check(BETA_HALF, GROUPS_1, 8) < 1e-8


def test_representation_equivalence_two_groups():
    assert representation_equivalence_check(J_TWO, GROUPS_2, 8) < 1e-8


def test_representation_equivalence_beta_zero():
    assert representation_equivalence_check(CouplingSpec.single_group(0.0), GROUPS_1, 4) < 1e-12


def test_brute_force_agrees_with_gibbs():
    model = DeFinettiModel(GROUPS_1, CurieWeissSequence(BETA_HALF), TANH)
    brute = brute_force_pmf(model, 8)
    assert gibbs_pmf(BETA_HALF, GROUPS_1, 8).max_abs_diff(brute) < 1e-10


@pytest.mark.parametrize(
    "spec, groups",
    [(CouplingSpec.single_group(0.0), GROUPS_1), (CouplingSpec(np.zeros((2, 2))), GROUPS_2)],
    ids=["beta-zero", "zero-matrix"],
)
def test_zero_coupling_is_the_point_mass_at_the_origin(spec, groups):
    # J = 0 is singular, so there is no density exp(-n F); the voters are
    # fair coins, and every route must accept the model
    model = cwm_model(spec, groups)
    gibbs = gibbs_pmf(spec, groups, 8)
    assert gibbs.max_abs_diff(brute_force_pmf(model, 8)) < 1e-15
    assert gibbs.max_abs_diff(exact_margin_pmf(model, 8)) < 1e-15
    assert np.array_equal(pair_correlation(model, 8), np.zeros(groups.m))


def test_exact_margin_pmf_dispatches_to_mixing_density():
    model = DeFinettiModel(GROUPS_1, CurieWeissSequence(BETA_HALF), TANH)
    assert exact_margin_pmf(model, 8).max_abs_diff(gibbs_pmf(BETA_HALF, GROUPS_1, 8)) < 1e-8


def test_curie_weiss_model_requires_tanh():
    from votelim import CLAMP

    with pytest.raises(ConfigError):
        DeFinettiModel(GROUPS_1, CurieWeissSequence(BETA_HALF), CLAMP)


# -- compact representation --------------------------------------------------------------

def test_compact_density_integrates_to_one():
    # a tensor Gauss-Legendre rule on the compact variable against the
    # normalizer, which is integrated in the latent variable
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    axes, weights = tensor_rule([-1.0], [1.0], 512)
    mass = float(weights @ np.exp(surface.compact_log_density(grid_points(axes))))
    assert mass / surface.normalizer() == pytest.approx(1.0, abs=1e-10)


def test_compact_density_zero_on_boundary_and_even():
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    density = np.exp(surface.compact_log_density(np.array([[1.0], [-1.0], [0.3], [-0.3]])))
    assert density[0] == 0.0
    assert density[1] == 0.0
    assert density[2] == pytest.approx(density[3], rel=1e-12)


def test_compact_transformed_mean_is_zero():
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    axes, weights = tensor_rule([-1.0], [1.0], 256)
    points = grid_points(axes)
    dens = np.exp(surface.compact_log_density(points))
    mean = float(weights @ (points[:, 0] * dens)) / surface.normalizer()
    assert mean == pytest.approx(0.0, abs=1e-12)


def test_change_of_variables_box_masses_agree():
    # mass outside [-a, a] in the compact variable, the tail verify-cwm
    # reports, equals 1 - the mass of [-artanh a, artanh a] under the
    # latent-variable density
    surface = FreeEnergySurface(BETA_HALF, GROUPS_1, 10)
    for a in (0.2, 0.5, 0.8):
        x = math.atanh(a)
        axes, weights = tensor_rule([-x], [x], 512)
        latent_mass = float(weights @ surface.density(grid_points(axes))) / surface.normalizer()
        assert surface.compact_tail_mass(a) == pytest.approx(1.0 - latent_mass, abs=1e-10)


# -- concentration -------------------------------------------------------------------------

def test_concentration_strictly_decreasing():
    tails = concentration_profile(BETA_HALF, GROUPS_1, [20, 40, 80], 0.5)
    assert tails[0] > tails[1] > tails[2] > 0.0


def test_concentration_log_linear_fit():
    grid = [20, 40, 80, 160]
    ns = np.array(grid, dtype=float)
    log_tails = np.log(concentration_profile(BETA_HALF, GROUPS_1, grid, 0.5))
    slope, intercept = np.polyfit(ns, log_tails, 1)
    fitted = slope * ns + intercept
    r2 = 1 - np.sum((log_tails - fitted) ** 2) / np.sum((log_tails - log_tails.mean()) ** 2)
    assert r2 > 0.999
    assert slope < 0


def test_concentration_refuses_delta_of_1_or_more():
    # (-1, 1) holds all the mixing mass, so every tail would be 0 and no line could fit
    for delta in (1.0, 1.5):
        with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1\)"):
            concentration_profile(BETA_HALF, GROUPS_1, [20, 30, 40], delta)


def test_concentration_requires_high_temperature():
    with pytest.raises(ConfigError, match="needs the high-temperature regime"):
        concentration_profile(CouplingSpec.single_group(1.2), GROUPS_1, [20], 0.5)
    with pytest.raises(ConfigError):
        concentration_profile(BETA_HALF, GROUPS_1, [20], 0.0)


# -- sampling -------------------------------------------------------------------------------

def test_sampler_variance_matches_small_n_extrapolation():
    sample = sample_cwm(BETA_HALF, GROUPS_1, 10**4, 10**5, 42)
    var_mc = float(np.var(sample.normalized[:, 0], ddof=1))
    # oracle: exact margin variance from enumeration, extrapolated in 1/n
    ns = np.array([10, 12, 14, 16, 18, 20], dtype=float)
    exact = []
    for n in ns.astype(int):
        pmf = gibbs_pmf(BETA_HALF, GROUPS_1, int(n))
        k = pmf.margin_axis(0)
        exact.append(float((k**2) @ pmf.probs) / n)
    coeffs = np.polyfit(1.0 / ns, exact, 2)
    predicted = float(np.polyval(coeffs, 1e-4))
    se = var_mc * math.sqrt(2.0 / 10**5)
    assert abs(var_mc - predicted) < 3 * se


def test_sampler_beta_zero_matches_binomial():
    n = 10**5
    sample = sample_cwm(CouplingSpec.single_group(0.0), GROUPS_1, n, 10**5, 1)
    from votelim.verify import ks_statistic

    root = math.sqrt(n)
    cdf = lambda x: binom.cdf(np.round((x * root + n) / 2), n, 0.5)
    assert ks_statistic(sample.normalized[:, 0], cdf) < 0.01


J_THREE = CouplingSpec([[0.5, 0.2, 0.1], [0.2, 0.5, 0.2], [0.1, 0.2, 0.5]])
GROUPS_3 = GroupStructure(3, [0.5, 0.25, 0.25])


def test_sampler_deterministic_and_worker_invariant():
    # three blocks, the last one partial
    count = 2 * SAMPLE_BLOCK + 100
    for spec, groups in [(J_TWO, GROUPS_2), (J_THREE, GROUPS_3)]:
        one = sample_cwm(spec, groups, 100, count, 3, workers=1)
        for workers in (2, 4):
            many = sample_cwm(spec, groups, 100, count, 3, workers=workers)
            assert np.array_equal(one.raw, many.raw)
        again = sample_cwm(spec, groups, 100, count, 3)
        assert np.array_equal(one.raw, again.raw)


def test_single_group_sample_bits_pinned():
    # seeded output is reproducible across releases: any change to the
    # one-group sampler's use of its RNG stream changes these digests
    sample = sample_cwm(BETA_HALF, GROUPS_1, 101, 2000, 2)
    digest = hashlib.sha256(sample.raw.astype("<i8").tobytes()).hexdigest()
    assert digest == "61bc6ae22873f2660daaf36e1151a819b3d7110b0f6c144d77ffbb28cd950700"
    # beta = 0: the atom at the origin, drawn like any atomic mixing measure
    sample = sample_cwm(CouplingSpec.single_group(0.0), GROUPS_1, 101, 2000, 2)
    digest = hashlib.sha256(sample.raw.astype("<i8").tobytes()).hexdigest()
    assert digest == "086067a1b6dcab74513b587d619c6a887e3eedf675095f604ce0ed7e31724380"


def test_sampler_normalizes_by_root_group_size():
    sample = sample_cwm(J_TWO, GROUPS_2, 100, 64, 5)
    root = np.sqrt(GROUPS_2.sizes(100))
    assert sample.regimes == ("cwm", "cwm")
    assert sample.gamma == tuple(root.tolist())
    assert np.array_equal(sample.normalized, sample.raw / root)


def test_positive_coupling_gives_positive_cross_correlation():
    sample = sample_cwm(J_TWO, GROUPS_2, 400, 4000, 8)
    cov = np.cov(sample.normalized, rowvar=False)
    rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    assert rho > 0.2


def test_sampler_requires_high_temperature():
    with pytest.raises(ConfigError):
        sample_cwm(CouplingSpec.single_group(1.1), GROUPS_1, 100, 10, 0)


def test_envelope_acceptance_guard_near_criticality():
    with pytest.raises(ConfigError, match="acceptance rate"):
        sample_cwm(CouplingSpec.single_group(0.99999), GROUPS_1, 10, 5000, 1)


@pytest.mark.parametrize(
    "j, proportions",
    [
        ([[0.5, 0.2], [0.2, 0.5]], [0.5, 0.5]),
        ([[0.6, 0.3], [0.3, 0.4]], [0.25, 0.75]),
    ],
    ids=["equal-groups", "unequal-groups"],
)
def test_sampler_matches_exact_law_m2(j, proportions):
    # the joint margin histogram must be as close to the mixing-density law
    # as i.i.d. draws from that law are: above the band's 99.9% quantile a
    # sampler is biased or its draws are correlated
    spec = CouplingSpec(j)
    groups = GroupStructure(2, proportions)
    n, count = 16, 20_000
    pmf = exact_margin_pmf(cwm_model(spec, groups), n)
    sample = sample_cwm(spec, groups, n, count, 17)
    assert sample_tv(sample, pmf) < multinomial_tv_quantile(pmf, count)


def test_envelope_acceptance_guard_near_criticality_m2():
    # I - J is positive definite, but barely along (1, 1)
    spec = CouplingSpec([[0.5, 0.49999], [0.49999, 0.5]])
    assert spec.is_high_temperature
    with pytest.raises(ConfigError, match="acceptance rate"):
        sample_cwm(spec, GROUPS_2, 10, 5000, 1)


def test_margin_parity():
    sample = sample_cwm(BETA_HALF, GROUPS_1, 101, 2000, 2)
    assert np.all((sample.raw[:, 0] + 101) % 2 == 0)


# -- correlation decay from enumeration ----------------------------------------------------

def test_exact_pair_correlation_decreases_in_n():
    values = []
    for n in (4, 8, 12, 16):
        pmf = gibbs_pmf(BETA_HALF, GROUPS_1, n)
        k = pmf.margin_axis(0)
        second = float((k**2) @ pmf.probs)
        values.append((second - n) / (n * (n - 1)))  # E X_1 X_2
    assert values[0] > values[1] > values[2] > values[3] > 0


def test_quadrature_pair_correlation_close_to_enumeration():
    n = 16
    pmf = gibbs_pmf(BETA_HALF, GROUPS_1, n)
    k = pmf.margin_axis(0)
    enumerated = (float((k**2) @ pmf.probs) - n) / (n * (n - 1))
    model = DeFinettiModel(GROUPS_1, CurieWeissSequence(BETA_HALF), TANH)
    assert pair_correlation(model, n)[0] == pytest.approx(enumerated, rel=1e-8)


@pytest.mark.parametrize("proportions", [[0.5, 0.5], [0.25, 0.75]], ids=["equal", "unequal"])
def test_two_group_pair_correlation_matches_enumeration(proportions):
    n = 16
    groups = GroupStructure(2, proportions)
    pmf = gibbs_pmf(J_TWO, groups, n)
    enumerated = []
    for g, n_g in enumerate(groups.sizes(n)):
        k = pmf.margin_axis(g)
        second = float((k**2) @ pmf.probs.sum(axis=1 - g))
        enumerated.append((second - n_g) / (n_g * (n_g - 1)))
    quadrature = pair_correlation(cwm_model(J_TWO, groups), n)
    assert quadrature == pytest.approx(enumerated, rel=1e-10)


#: pair_correlation of the J_TWO model with groups (1/2, 1/2), as computed
#: when each group's marginal evaluated the density on its own
J_TWO_PAIR_CORRELATION = {
    16: ("0x1.d2883cb8d6370p-4", "0x1.d2883cb8d6370p-4"),
    100: ("0x1.9a69e8b6691a0p-6", "0x1.9a69e8b6691a1p-6"),
}


@pytest.mark.parametrize("n", sorted(J_TWO_PAIR_CORRELATION))
def test_pair_correlation_evaluates_the_density_once_per_level(monkeypatch, n):
    density, grids = FreeEnergySurface.density, []

    def counted(self, x):
        grids.append(len(x))
        return density(self, x)

    monkeypatch.setattr(FreeEnergySurface, "density", counted)
    values = pair_correlation(cwm_model(J_TWO, GROUPS_2), n)
    assert len(grids) >= 2 and len(set(grids)) == len(grids)
    assert [v.hex() for v in values.tolist()] == list(J_TWO_PAIR_CORRELATION[n])


def test_the_surface_and_the_mixing_measure_are_immutable():
    measure = cwm_model(J_TWO, GROUPS_2).mixing_measure(16)
    for obj, name in ((measure, "coords"), (measure.surface, "n")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
    axes, weights = measure.surface.quad_nodes(64)
    assert measure.surface.quad_nodes(64)[1] is weights
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 0.0
    assert measure.marginal([0, 1]) is measure
    assert measure.marginal([0]).surface is measure.surface


def test_a_grid_that_misses_the_density_peak_raises_each_time_and_is_not_kept():
    surface = FreeEnergySurface(CouplingSpec.single_group(0.99999), GROUPS_1, 16)
    for _ in range(2):
        with pytest.raises(QuadratureError, match="density peak"):
            surface.quad_nodes(64)
    assert surface._grids == {}
