"""Shared model builders, the oracle model matrix, exact-law and sampler
helpers, and hypothesis strategies."""

import hypothesis.strategies as st
import numpy as np

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
    StaticSequence,
    UniformBox,
)
from votelim.measures import Mixture

GROUPS_1 = GroupStructure(1, [1.0])
GROUPS_2 = GroupStructure(2, [0.5, 0.5])

DELTA_0 = PointMassMixture([(0.0, 1.0)])
TWO_ATOM_2 = PointMassMixture([([-2.0], 0.5), ([2.0], 0.5)])
TWO_ATOM_HALF = PointMassMixture([([-0.5], 0.5), ([0.5], 0.5)])
UNIFORM_1 = UniformBox([-1.0], [1.0])
GAUSS_1 = Gaussian([0.0], [[1.0]])


def static_delta0(m=1):
    if m == 1:
        return DeFinettiModel(GROUPS_1, StaticSequence(DELTA_0), CLAMP)
    base = PointMassMixture([([0.0] * m, 1.0)])
    groups = GroupStructure(m, [1.0 / m] * m)
    return DeFinettiModel(groups, StaticSequence(base), CLAMP)


def contracted(base, exponent, groups=None, bias=CLAMP, coefficient=1.0):
    groups = groups or (GROUPS_1 if base.dim == 1 else GROUPS_2)
    schedule = PowerLawSchedule(coefficient, exponent, m=groups.m)
    return DeFinettiModel(groups, ContractedSequence(base, schedule), bias)


def oracle_matrix():
    """>= 12 models: static and contracted bases at all three exponents, M in {1, 2}."""
    models = [
        ("static-delta0-m1", static_delta0()),
        ("static-two-atom-m1", DeFinettiModel(GROUPS_1, StaticSequence(TWO_ATOM_HALF), CLAMP)),
    ]
    for tag, base, bias in [("uniform", UNIFORM_1, CLAMP), ("gaussian", GAUSS_1, TANH), ("two-atom", TWO_ATOM_2, CLAMP)]:
        for a in (0.75, 0.5, 0.15):
            models.append((f"{tag}-a{a}-m1", contracted(base, a, bias=bias)))
    two2 = PointMassMixture([([-2.0, -2.0], 0.5), ([2.0, 2.0], 0.5)])
    models += [
        ("static-delta0-m2", static_delta0(2)),
        ("uniform-a0.75-m2", contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75)),
        ("gaussian-a0.5-m2", contracted(Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), 0.5, bias=TANH)),
        ("two-atom-a0.15-m2", contracted(two2, 0.15)),
    ]
    return models


# -- exact laws ----------------------------------------------------------------

def margin_prob(pmf, k) -> float:
    """P(S = k) under an exact law ``pmf``, for an integer margin vector k of length M.

    0 off the parity lattice; any other ``k`` is a ConfigError.
    """
    k = np.atleast_1d(np.asarray(k))
    if k.shape != (pmf.m,):
        raise ConfigError(f"margin vector must have length {pmf.m}, got shape {k.shape}")
    integral = k.dtype.kind in "iu" or (
        k.dtype.kind == "f" and bool(np.all(np.isfinite(k) & (k == np.floor(k))))
    )
    if not integral:
        raise ConfigError(f"margin vector entries must be integers, got {k.tolist()}")
    idx = []
    for g, n_g in enumerate(pmf.group_sizes):
        if abs(int(k[g])) > n_g or (int(k[g]) + n_g) % 2 != 0:
            return 0.0
        idx.append((int(k[g]) + n_g) // 2)
    return float(pmf.probs[tuple(idx)])


# -- sampler against an exact law ----------------------------------------------

def sample_tv(sample, pmf) -> float:
    """Total variation between a sample's joint margin histogram and an exact law."""
    index = tuple((sample.raw[:, g] + s) // 2 for g, s in enumerate(pmf.group_sizes))
    counts = np.zeros(pmf.probs.shape)
    np.add.at(counts, index, 1.0)
    return 0.5 * float(np.abs(counts / sample.count - pmf.probs).sum())


def multinomial_tv_quantile(pmf, count, q=0.999, draws=2000) -> float:
    """Quantile of the TV of ``count`` i.i.d. draws from the exact law itself."""
    probs = pmf.probs.ravel() / pmf.probs.sum()
    counts = np.random.default_rng(0).multinomial(count, probs, size=draws)
    return float(np.quantile(0.5 * np.abs(counts / count - probs).sum(axis=1), q))


# -- hypothesis strategies ----------------------------------------------------

@st.composite
def symmetric_measures_1d(draw):
    """Random symmetric 1-D measures supported in [-1, 1].

    Compact support keeps the clamp bias map kink-free on the support,
    which is the pairing the toolkit intends (tanh handles full-line
    supports such as Gaussians).
    """
    kind = draw(st.sampled_from(["atoms", "box", "mixture"]))
    if kind == "atoms":
        a = draw(st.floats(0.1, 1.0))
        w = draw(st.floats(0.05, 0.45))
        return PointMassMixture([([-a], w), ([0.0], 1.0 - 2 * w), ([a], w)])
    if kind == "box":
        half = draw(st.floats(0.1, 1.0))
        return UniformBox([-half], [half])
    half = draw(st.floats(0.1, 1.0))
    w = draw(st.floats(0.1, 0.9))
    return Mixture([(UniformBox([-half], [half]), w), (DELTA_0, 1.0 - w)])


@st.composite
def symmetric_gaussians_1d(draw):
    sigma = draw(st.floats(0.1, 2.0))
    return Gaussian([0.0], [[sigma**2]])


@st.composite
def measures_1d(draw):
    """Random 1-D measures, not necessarily symmetric."""
    kind = draw(st.sampled_from(["atoms", "box", "gauss"]))
    if kind == "atoms":
        locs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True))
        raw = draw(
            st.lists(st.floats(0.05, 1.0), min_size=len(locs), max_size=len(locs))
        )
        total = sum(raw)
        return PointMassMixture([([x], w / total) for x, w in zip(locs, raw)])
    if kind == "box":
        lo = draw(st.floats(-3.0, 2.0))
        width = draw(st.floats(0.1, 3.0))
        return UniformBox([lo], [lo + width])
    mean = draw(st.floats(-2.0, 2.0))
    sigma = draw(st.floats(0.1, 2.0))
    return Gaussian([mean], [[sigma**2]])
