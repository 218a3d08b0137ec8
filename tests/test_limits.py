import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.special import ndtr

from votelim import (
    CLAMP,
    ConfigError,
    ContractedSequence,
    DeFinettiModel,
    ExplicitSchedule,
    Gaussian,
    GroupStructure,
    LimitLaw,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    UniformBox,
    UnsupportedMeasureError,
    conditional_cf,
    limit_cdf,
    limit_for,
)
from votelim.limits import limit_cdf_mc
from votelim.quadrature import interval_rule
from conftest import (
    DELTA_0,
    GROUPS_1,
    TWO_ATOM_2,
    UNIFORM_1,
    contracted,
    static_delta0,
)


# -- regime dispatch ------------------------------------------------------------

def test_fast_dispatch_is_gaussian():
    law = limit_for(contracted(UNIFORM_1, 0.75))
    assert law.kind == "gaussian"
    for t in np.linspace(-3, 3, 13):
        assert law.cf([t]) == pytest.approx(math.exp(-t * t / 2), abs=1e-14)


def test_critical_dispatch_with_point_mass_is_gaussian():
    # convolving with a point mass at the origin changes nothing
    law = limit_for(contracted(DELTA_0, 0.5))
    assert law.kind == "convolution"
    gauss = LimitLaw.standard_gaussian(1)
    for t in np.linspace(-3, 3, 13):
        assert law.cf([t]) == pytest.approx(gauss.cf([t]), abs=1e-14)
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
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(-3, 3, 3)
        t_c1 = np.array([t[0], 0.0, 0.0])
        t_rest = np.array([0.0, t[1], t[2]])
        assert law.cf(t) == pytest.approx(law.cf(t_c1) * law.cf(t_rest), abs=1e-14)


def test_cluster_cf_on_c1_support_is_gaussian():
    from votelim import GroupStructure

    groups = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
    base = Product([UNIFORM_1, UNIFORM_1, UNIFORM_1])
    law = limit_for(contracted(base, [0.75, 0.5, 0.15], groups=groups))
    assert law.cf([1.5, 0.0, 0.0]) == pytest.approx(math.exp(-1.5**2 / 2), abs=1e-14)


def test_dispatch_requires_contracted_sequence():
    with pytest.raises(ConfigError):
        limit_for(static_delta0())


def test_explicit_critical_without_h_is_an_error():
    from votelim import ContractedSequence, DeFinettiModel, CLAMP

    sched = ExplicitSchedule({100: [0.1]}, ["critical"])
    model = DeFinettiModel(GROUPS_1, ContractedSequence(UNIFORM_1, sched), CLAMP)
    with pytest.raises(ConfigError):
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

def test_gaussian_cdf_at_origin():
    assert limit_cdf(LimitLaw.standard_gaussian(1), [0.0]) == 0.5


def test_convolution_with_symmetric_atoms_at_origin():
    law = LimitLaw.convolution(TWO_ATOM_2)
    assert law.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-14)


def test_convolution_cdf_closed_form():
    law = LimitLaw.convolution(TWO_ATOM_2)
    expected = 0.5 * ndtr(4.0) + 0.5 * ndtr(0.0)
    assert law.cdf(np.array([2.0]))[0] == pytest.approx(float(expected), abs=1e-13)


def test_convolution_cdf_with_uniform_base_matches_quadrature_oracle():
    law = LimitLaw.convolution(UNIFORM_1)
    x = 0.8
    expected, _ = quad(lambda y: ndtr(x - y) / 2.0, -1, 1, epsabs=1e-13)
    assert law.cdf(np.array([x]))[0] == pytest.approx(expected, abs=1e-11)


def test_cdf_monotone_with_correct_limits():
    law = LimitLaw.convolution(UNIFORM_1)
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
    "law-conv-atoms": LimitLaw.convolution(SCRAMBLED_ATOMS),
    "law-conv-uniform": LimitLaw.convolution(UniformBox([-1.0], [2.0])),
    "law-base": LimitLaw.base_limit(BOX_MIX),
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
    law = LimitLaw.convolution(UNIFORM_1)
    grid = np.linspace(-8, 8, 33)
    expected = [quad(lambda y: ndtr(x - y) / 2.0, -1, 1, epsabs=1e-13)[0] for x in grid]
    assert law.cdf(grid) == pytest.approx(expected, abs=1e-11)


def test_convolution_cdf_refines_over_every_point():
    # nodes that suffice at the leftmost point (where Phi(x - y) vanishes on
    # the whole box) are far too coarse at the centre of a wide box
    half = 100.0
    law = LimitLaw.convolution(UniformBox([-half], [half]))
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
    assert law.cf(t) == pytest.approx(math.exp(-float(t @ t) / 2), abs=1e-14)


def test_convolution_cf_product_rule_with_quadrature_oracle():
    law = LimitLaw.convolution(UNIFORM_1)  # h = 1
    t = 2.0
    base_cf, _ = quad(lambda y: math.cos(t * y) / 2.0, -1, 1, epsabs=1e-13)
    assert law.cf([t]) == pytest.approx(math.exp(-2.0) * base_cf, abs=1e-12)
    assert law.cf([t]).real == pytest.approx(
        math.exp(-2.0) * math.sin(2.0) / 2.0, abs=1e-13
    )


def test_cf_modulus_bounded():
    law = LimitLaw.convolution(TWO_ATOM_2)
    for t in np.linspace(-10, 10, 41):
        assert abs(law.cf([t])) <= 1.0 + 1e-12


# -- CF/CDF consistency via inversion ---------------------------------------------------

def gil_pelaez_cdf(cf, x, t_max=40.0, nodes=3000):
    t, w = interval_rule(1e-12, t_max, nodes)
    integrand = np.array([(np.exp(-1j * ti * x) * cf([ti])).imag / ti for ti in t])
    return 0.5 - float(w @ integrand) / math.pi


@pytest.mark.parametrize(
    "law",
    [
        LimitLaw.standard_gaussian(1),
        LimitLaw.convolution(TWO_ATOM_2),
        LimitLaw.convolution(UNIFORM_1),
    ],
    ids=["gaussian", "conv-atoms", "conv-uniform"],
)
def test_cf_inversion_reproduces_cdf(law):
    grid = np.linspace(-3.5, 3.5, 8)
    for x, value in zip(grid, law.cdf(grid)):
        assert gil_pelaez_cdf(law.cf, x) == pytest.approx(value, abs=1e-6)


# -- single-voter conditional CF ----------------------------------------------------------

def test_conditional_cf_values():
    assert conditional_cf(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-16)
    t = 0.83
    assert conditional_cf(1.0, t) == pytest.approx(complex(math.cos(t), math.sin(t)), abs=1e-15)
    # oracle: direct two-point expectation at m = 0.5
    m = 0.5
    expected = ((1 + m) / 2) * np.exp(1j * 1.0) + ((1 - m) / 2) * np.exp(-1j * 1.0)
    assert conditional_cf(m, 1.0) == pytest.approx(expected, abs=1e-15)
    assert conditional_cf(0.5, 1.0) == pytest.approx(0.5403 + 0.4207j, abs=1e-4)


def test_conditional_cf_rejects_bias_outside_range():
    with pytest.raises(ConfigError):
        conditional_cf(1.2, 0.5)
