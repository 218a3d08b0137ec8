import cmath
import functools
import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.special import ndtr, roots_legendre

from votelim import (
    CLAMP,
    TANH,
    ConfigError,
    ContractedSequence,
    CouplingSpec,
    CurieWeissSequence,
    DeFinettiModel,
    Gaussian,
    GroupStructure,
    LimitLaw,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    StaticSequence,
    UniformBox,
    UnsupportedMeasureError,
    limit_for,
)
from votelim.measures import ExplicitSchedule, Mixture
from conftest import (
    DELTA_0,
    GROUPS_1,
    TWO_ATOM_2,
    UNIFORM_1,
    contracted,
    static_delta0,
)


def _convolution(base):
    """G + Y with G standard normal and Y ~ base on every coordinate."""
    return LimitLaw("convolution", base.dim, (True,) * base.dim, base, tuple(range(base.dim)))


# -- regime dispatch ------------------------------------------------------------

def test_fast_dispatch_is_gaussian():
    law = limit_for(contracted(UNIFORM_1, 0.75))
    assert law.kind == "gaussian"
    t = np.linspace(-3, 3, 13)
    assert law.cf(t[:, None]) == pytest.approx(np.exp(-t * t / 2), abs=1e-14)


def test_critical_dispatch_with_point_mass_is_gaussian():
    # convolving with a point mass at the origin changes nothing
    law = limit_for(contracted(DELTA_0, 0.5))
    assert law.kind == "convolution"
    gauss = LimitLaw.standard_gaussian(1)
    t = np.linspace(-3, 3, 13)[:, None]
    assert law.cf(t) == pytest.approx(gauss.cf(t), abs=1e-14)
    assert law.cdf(np.array([0.7]))[0] == pytest.approx(float(ndtr(0.7)), abs=1e-12)


def test_subcritical_dispatch_returns_base_measure():
    model = contracted(UNIFORM_1, 0.15)
    law = limit_for(model)
    assert law.kind == "base"
    assert law.cdf(np.array([0.0]))[0] == 0.5
    gamma, regimes = model.normalization(10**4)
    assert regimes == ("subcritical",)
    assert gamma[0] == pytest.approx((10**4) ** 0.85)


def test_critical_scaling_uses_h():
    # eps = 2 n^{-1/2} has critical constant 2; base scaled accordingly
    law = limit_for(contracted(UNIFORM_1, 0.5, coefficient=2.0))
    assert law.base.upper[0] == pytest.approx(2.0)


def test_mixed_regimes_build_cluster_law():
    from votelim import GroupStructure

    groups = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = Product([UNIFORM_1, UNIFORM_1, UNIFORM_1])
    model = contracted(base, [0.75, 0.5, 0.15], groups=groups)
    law = limit_for(model)
    assert law.kind == "cluster"
    assert law.gauss_mask == (True, True, False)
    assert law.base_coords == (1, 2)
    # the fast coordinate's marginal is exactly standard Gaussian
    marg = law.marginal(0)
    assert marg.base is None and marg.gauss_mask == (True,)


def test_cluster_cf_factorizes_between_blocks():
    from votelim import GroupStructure

    groups = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = Product([UNIFORM_1, UNIFORM_1, UNIFORM_1])
    law = limit_for(contracted(base, [0.75, 0.5, 0.15], groups=groups))
    t = np.random.default_rng(0).uniform(-3, 3, (20, 3))
    t_c1 = t * [1.0, 0.0, 0.0]
    t_rest = t * [0.0, 1.0, 1.0]
    assert law.cf(t) == pytest.approx(law.cf(t_c1) * law.cf(t_rest), abs=1e-14)


def test_cluster_cf_on_c1_support_is_gaussian():
    from votelim import GroupStructure

    groups = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = Product([UNIFORM_1, UNIFORM_1, UNIFORM_1])
    law = limit_for(contracted(base, [0.75, 0.5, 0.15], groups=groups))
    assert law.cf([[1.5, 0.0, 0.0]])[0] == pytest.approx(math.exp(-1.5**2 / 2), abs=1e-14)


@pytest.mark.parametrize("m", [1, 2])
def test_dispatch_gives_a_static_origin_the_standard_gaussian(m):
    # the point mass at the origin is the independent-voter baseline
    assert limit_for(static_delta0(m)) == LimitLaw.standard_gaussian(m)


def test_dispatch_refuses_a_spread_out_static_measure():
    model = DeFinettiModel(GROUPS_1, StaticSequence(UNIFORM_1), CLAMP)
    with pytest.raises(ConfigError, match="no dispatchable limit for a spread-out static"):
        limit_for(model)


def test_dispatch_refuses_a_mean_field_model():
    model = DeFinettiModel(GROUPS_1, CurieWeissSequence(CouplingSpec.single_group(0.5)), TANH)
    with pytest.raises(ConfigError, match="no dispatchable limit for a curie-weiss sequence"):
        limit_for(model)


def test_explicit_critical_without_h_is_an_error():
    from votelim import ContractedSequence, DeFinettiModel, CLAMP

    sched = ExplicitSchedule({100: [0.1]}, ["critical"])
    model = DeFinettiModel(GROUPS_1, ContractedSequence(UNIFORM_1, sched), CLAMP)
    with pytest.raises(ConfigError):
        limit_for(model)


def test_a_missing_h_names_the_first_critical_group():
    sched = ExplicitSchedule({100: [0.1, 0.1, 0.1]}, ["subcritical", "critical", "critical"])
    box = UniformBox([-1.0] * 3, [1.0] * 3)
    model = DeFinettiModel(GroupStructure(3, [0.2, 0.3, 0.5]), ContractedSequence(box, sched), CLAMP)
    with pytest.raises(ConfigError, match="^group 1 is critical but its constant h is not declared$"):
        limit_for(model)


def test_explicit_with_declared_regimes_dispatches():
    from votelim import ContractedSequence, DeFinettiModel, CLAMP

    sched = ExplicitSchedule({100: [0.1]}, ["subcritical"])
    model = DeFinettiModel(GROUPS_1, ContractedSequence(UNIFORM_1, sched), CLAMP)
    assert limit_for(model).kind == "base"


@given(st.floats(0.01, 2.0))
@settings(max_examples=40)
def test_dispatch_total_in_exponent(a):
    law = limit_for(contracted(UNIFORM_1, a))
    expected = "gaussian" if a > 0.5 else ("convolution" if a == 0.5 else "base")
    assert law.kind == expected


# -- CDF evaluation -------------------------------------------------------------------

def limit_cdf(law, x, count=1_000_000, seed=0):
    """CDF of a limit law at one point: exact in 1-D, sampling-based in multi-D."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if law.dim == 1:
        return float(law.cdf(x[:1])[0])
    value, _ = limit_cdf_mc(law, x, count=count, seed=seed)
    return value


def limit_sample(law, rng, count):
    """``count`` draws of a limit law: Gaussian noise on its mask plus the base on its coordinates."""
    out = np.zeros((count, law.dim))
    mask = np.asarray(law.gauss_mask)
    if mask.any():
        out[:, mask] = rng.standard_normal((count, int(mask.sum())))
    if law.base is not None:
        out[:, list(law.base_coords)] += law.base.sample(rng, count)
    return out


def limit_cdf_mc(law, x, count=1_000_000, seed=0):
    """Monte Carlo estimate of P(X <= x componentwise) with its standard error."""
    draws = limit_sample(law, np.random.default_rng(seed), count)
    p = float(np.all(draws <= np.asarray(x, dtype=float), axis=1).mean())
    return p, float(np.sqrt(max(p * (1.0 - p), 1.0 / count) / count))


def test_gaussian_cdf_at_origin():
    assert limit_cdf(LimitLaw.standard_gaussian(1), [0.0]) == 0.5


def test_convolution_with_symmetric_atoms_at_origin():
    law = _convolution(TWO_ATOM_2)
    assert law.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-14)


def test_convolution_cdf_closed_form():
    law = _convolution(TWO_ATOM_2)
    expected = 0.5 * ndtr(4.0) + 0.5 * ndtr(0.0)
    assert law.cdf(np.array([2.0]))[0] == pytest.approx(float(expected), abs=1e-13)


def test_convolution_cdf_with_uniform_base_matches_quadrature_oracle():
    law = _convolution(UNIFORM_1)
    x = 0.8
    expected, _ = quad(lambda y: ndtr(x - y) / 2.0, -1, 1, epsabs=1e-13)
    assert law.cdf(np.array([x]))[0] == pytest.approx(expected, abs=1e-11)


def test_cdf_monotone_with_correct_limits():
    law = _convolution(UNIFORM_1)
    grid = np.linspace(-8, 8, 33)
    values = law.cdf(grid)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] < 1e-8 and values[-1] > 1 - 1e-8


# -- array CDFs against per-point references ---------------------------------------

def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def reference_cdf(dist, x):
    """CDF of a 1-D measure or limit law at one point, written out per kind."""
    if isinstance(dist, LimitLaw):
        if not dist.gauss_mask[0]:
            return reference_cdf(dist.base, x)
        if dist.base is None:
            return _phi(x)
        if isinstance(dist.base, PointMassMixture):
            return sum(w * _phi(x - a) for (a,), w in zip(dist.base.locations, dist.base.weights))
        lo, hi = float(dist.base.lower[0]), float(dist.base.upper[0])
        value, _ = quad(lambda y: _phi(x - y), lo, hi, epsabs=1e-14)
        return value / (hi - lo)
    if isinstance(dist, PointMassMixture):
        return sum(w for (a,), w in zip(dist.locations, dist.weights) if a <= x)
    if isinstance(dist, UniformBox):
        lo, hi = float(dist.lower[0]), float(dist.upper[0])
        return min(max((x - lo) / (hi - lo), 0.0), 1.0)
    if isinstance(dist, Gaussian):
        mean, var = float(dist.mean[0]), float(dist.covariance[0, 0])
        if var == 0.0:
            return 1.0 if x >= mean else 0.0
        return _phi((x - mean) / math.sqrt(var))
    if isinstance(dist, Product):
        return reference_cdf(dist.factors[0], x)
    return sum(w * reference_cdf(c, x) for c, w in zip(dist.components, dist.weights))


# atoms listed out of order, one location repeated
SCRAMBLED_ATOMS = PointMassMixture([([1.5], 0.2), ([-2.0], 0.3), ([0.3], 0.1), ([1.5], 0.4)])
DEGENERATE_GAUSS = Gaussian([0.3], [[0.0]])
BOX_MIX = Mixture([(UniformBox([-1.0], [3.0]), 0.4), (SCRAMBLED_ATOMS, 0.6)])
THREE_REGIMES = limit_for(
    DeFinettiModel(
        GroupStructure(3, [1 / 3, 1 / 3, 1 / 3]),
        ContractedSequence(
            Product([SCRAMBLED_ATOMS, UniformBox([-1.0], [2.0]), BOX_MIX]),
            PowerLawSchedule([1.0, 0.8, 1.0], [0.75, 0.5, 0.15]),
        ),
        CLAMP,
    )
)

ARRAY_CDF_CASES = {
    "atoms": SCRAMBLED_ATOMS,
    "box": UniformBox([-1.0], [3.0]),
    "gauss": Gaussian([0.5], [[2.0]]),
    "gauss-degenerate": DEGENERATE_GAUSS,
    "product": Product([Gaussian([-0.2], [[0.5]])]),
    "mixture": Mixture([(BOX_MIX, 0.5), (DEGENERATE_GAUSS, 0.5)]),
    "law-gaussian": LimitLaw.standard_gaussian(1),
    "law-conv-atoms": _convolution(SCRAMBLED_ATOMS),
    "law-conv-uniform": _convolution(UniformBox([-1.0], [2.0])),
    "law-base": LimitLaw("base", 1, (False,), BOX_MIX, (0,)),
    "law-cluster-fast": THREE_REGIMES.marginal(0),
    "law-cluster-critical": THREE_REGIMES.marginal(1),
    "law-cluster-subcritical": THREE_REGIMES.marginal(2),
}


@pytest.mark.parametrize("dist", ARRAY_CDF_CASES.values(), ids=ARRAY_CDF_CASES.keys())
def test_array_cdf_matches_per_point_reference(dist):
    # unsorted, with duplicates, atoms (-2, 0.3, 1.5) and box ends (-1, 3) hit exactly
    xs = np.array([0.3, -2.0, 10.0, 1.5, -2.0, 0.0, -3.0, 0.3, 3.0, -1.0, 2.9, -0.7, 1.5])
    values = dist.cdf(xs)
    assert values.shape == xs.shape
    expected = [reference_cdf(dist, float(x)) for x in xs]
    assert values == pytest.approx(expected, abs=1e-12)


def test_array_cdf_rejects_multivariate_measure():
    with pytest.raises(UnsupportedMeasureError):
        UniformBox([-1.0, -1.0], [1.0, 1.0]).cdf(np.zeros(3))


def test_convolution_cdf_matches_quadrature_oracle_on_grid():
    law = _convolution(UNIFORM_1)
    grid = np.linspace(-8, 8, 33)
    expected = [quad(lambda y: ndtr(x - y) / 2.0, -1, 1, epsabs=1e-13)[0] for x in grid]
    assert law.cdf(grid) == pytest.approx(expected, abs=1e-11)


def test_convolution_cdf_refines_over_every_point():
    # nodes that suffice at the leftmost point (where Phi(x - y) vanishes on
    # the whole box) are far too coarse at the centre of a wide box
    half = 100.0
    law = _convolution(UniformBox([-half], [half]))
    grid = np.linspace(-1.5 * half, 1.5 * half, 61)

    def antiderivative(z):  # of Phi: z Phi(z) + phi(z)
        return z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    expected = (antiderivative(grid + half) - antiderivative(grid - half)) / (2.0 * half)
    assert law.cdf(grid) == pytest.approx(expected, abs=1e-11)


def test_multid_cdf_sampling_backend():
    law = LimitLaw.standard_gaussian(2)
    value, se = limit_cdf_mc(law, [0.0, 0.0], count=200_000, seed=1)
    assert abs(value - 0.25) < 4 * se
    assert limit_cdf(law, [0.0, 0.0], count=200_000, seed=1) == value


# -- CF evaluation ---------------------------------------------------------------------

def test_gaussian_cf_formula():
    law = LimitLaw.standard_gaussian(3)
    t = np.array([0.5, -1.0, 2.0])
    assert law.cf(t[None, :])[0] == pytest.approx(math.exp(-float(t @ t) / 2), abs=1e-14)


def test_convolution_cf_product_rule_with_quadrature_oracle():
    law = _convolution(UNIFORM_1)  # h = 1
    t = 2.0
    base_cf, _ = quad(lambda y: math.cos(t * y) / 2.0, -1, 1, epsabs=1e-13)
    assert law.cf([[t]])[0] == pytest.approx(math.exp(-2.0) * base_cf, abs=1e-12)
    assert law.cf([[t]])[0].real == pytest.approx(
        math.exp(-2.0) * math.sin(2.0) / 2.0, abs=1e-13
    )


def test_cf_modulus_bounded():
    law = _convolution(TWO_ATOM_2)
    assert np.all(np.abs(law.cf(np.linspace(-10, 10, 41)[:, None])) <= 1.0 + 1e-12)


# -- array CFs against per-row references ------------------------------------------

def reference_cf(dist, t):
    """CF of a measure or limit law at one frequency vector, written out per kind."""
    if isinstance(dist, LimitLaw):
        gauss = math.exp(-0.5 * sum(s * s for s, noisy in zip(t, dist.gauss_mask) if noisy))
        if dist.base is None:
            return gauss
        return gauss * reference_cf(dist.base, [t[c] for c in dist.base_coords])
    if isinstance(dist, PointMassMixture):
        return sum(
            w * cmath.exp(1j * sum(a * s for a, s in zip(loc, t)))
            for loc, w in zip(dist.locations, dist.weights)
        )
    if isinstance(dist, UniformBox):
        # (e^{i s b} - e^{i s a}) / (i s (b - a)) per coordinate, 1 at s = 0
        return math.prod(
            1.0 if s == 0.0 else (cmath.exp(1j * s * b) - cmath.exp(1j * s * a)) / (1j * s * (b - a))
            for s, a, b in zip(t, dist.lower, dist.upper)
        )
    if isinstance(dist, Gaussian):
        drift = sum(m * s for m, s in zip(dist.mean, t))
        variance = sum(t[i] * dist.covariance[i, j] * t[j]
                       for i in range(dist.dim) for j in range(dist.dim))
        return cmath.exp(1j * drift - 0.5 * variance)
    if isinstance(dist, Product):
        return math.prod(reference_cf(f, [s]) for f, s in zip(dist.factors, t))
    return sum(w * reference_cf(c, t) for c, w in zip(dist.components, dist.weights))


SCATTERED_ATOMS_2 = PointMassMixture([([1.5, -0.5], 0.2), ([-2.0, 0.0], 0.5), ([0.3, 2.5], 0.3)])
ARRAY_CF_CASES = {
    "atoms": SCRAMBLED_ATOMS,
    "atoms-2d": SCATTERED_ATOMS_2,
    "box": UniformBox([-1.0], [3.0]),
    "box-2d": UniformBox([-1.0, 0.5], [2.0, 0.75]),
    "gauss": Gaussian([0.5], [[2.0]]),
    "gauss-correlated": Gaussian([0.2, -0.4], [[1.0, 0.6], [0.6, 2.0]]),
    "gauss-degenerate": DEGENERATE_GAUSS,
    "gauss-degenerate-2d": Gaussian([0.1, -0.2], [[1.0, 1.0], [1.0, 1.0]]),
    "product-with-mixture": Product([BOX_MIX, Gaussian([-0.2], [[0.5]]), SCRAMBLED_ATOMS]),
    "mixture": Mixture([(BOX_MIX, 0.5), (DEGENERATE_GAUSS, 0.5)]),
    "mixture-2d": Mixture([(SCATTERED_ATOMS_2, 0.3), (UniformBox([-1.0, 0.5], [2.0, 0.75]), 0.7)]),
    "law-gaussian": LimitLaw.standard_gaussian(3),
    "law-conv-atoms": _convolution(SCATTERED_ATOMS_2),
    "law-conv-uniform": _convolution(UniformBox([-1.0], [2.0])),
    "law-base": LimitLaw("base", 2, (False, False), SCATTERED_ATOMS_2, (0, 1)),
    "law-cluster": THREE_REGIMES,
}


@pytest.mark.parametrize("dist", ARRAY_CF_CASES.values(), ids=ARRAY_CF_CASES.keys())
def test_array_cf_matches_per_row_reference(dist):
    assert THREE_REGIMES.base_coords == (1, 2)  # a strict subset of the coordinates
    t = np.array(list(itertools.product(np.linspace(-3.0, 3.0, 9), repeat=dist.dim)))
    values = dist.cf(t)
    assert values.shape == (len(t),) and values.dtype == complex
    expected = [reference_cf(dist, list(row)) for row in t]
    assert values == pytest.approx(expected, abs=1e-14)
    for bad in (t[0], t[0, 0], np.zeros((2, dist.dim + 1)), np.zeros((1, 2, dist.dim))):
        with pytest.raises(ConfigError):
            dist.cf(bad)


# -- CF/CDF consistency via inversion ---------------------------------------------------

@functools.lru_cache(maxsize=1)
def gil_pelaez_rule(t_max=40.0, nodes=3000):
    """Gauss-Legendre nodes and weights on [1e-12, t_max]."""
    u, w = roots_legendre(nodes)
    half = 0.5 * (t_max - 1e-12)
    return 1e-12 + half * (u + 1.0), w * half


def gil_pelaez_cdf(cf, x):
    """F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} cf(t)) / t dt on an array x."""
    t, w = gil_pelaez_rule()
    integrand = (np.exp(-1j * np.multiply.outer(x, t)) * cf(t[:, None])).imag / t
    return 0.5 - integrand @ w / math.pi


@pytest.mark.parametrize(
    "law",
    [
        LimitLaw.standard_gaussian(1),
        _convolution(TWO_ATOM_2),
        _convolution(UNIFORM_1),
    ],
    ids=["gaussian", "conv-atoms", "conv-uniform"],
)
def test_cf_inversion_reproduces_cdf(law):
    grid = np.linspace(-3.5, 3.5, 8)
    assert gil_pelaez_cdf(law.cf, grid) == pytest.approx(law.cdf(grid), abs=1e-6)
