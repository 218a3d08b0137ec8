"""Multi-group mean-field (Curie-Weiss) voting model.

The model exists in two equivalent forms: the Gibbs measure on spin
configurations with quadratic interaction energy, and a mixture of
conditional product measures whose mixing measure mu_n has density
exp(-n * F) / Z for the free-energy surface F built from the inverse
coupling matrix.  ``CurieWeissSequence`` hands mu_n to the generic model
layer, so the mixture form's exact law, 2^n oracle, pair correlation and
sampler are the ones every model uses; the Gibbs form is enumerated here,
independently, so the two serve as mutual oracles.  The surface also
gives a third, compactly supported form on (-1, 1)^M, the tanh change of
variables, used for concentration-of-measure profiles.

The mixing density exists in the high-temperature regime only, where the
free energy is convex with its unique minimum at the origin; the regime is
checked by ``CouplingSpec.check_density``, at load and in ``FreeEnergySurface``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError, ResourceError
from .measures import (
    GAUSSIAN_BOX_SIGMAS, TANH, BaseMeasure, PointMassMixture, _Gridded, _Immutable, _readonly,
)
from .models import DeFinettiModel, GroupStructure, MarginPmf, _integrate, exact_margin_pmf
from .quadrature import grid_points, refine_until_stable, tensor_rule

GIBBS_MAX_N = 20
REPRESENTATION_MAX_N = 16

#: minimum acceptable acceptance rate of the rejection envelope
MIN_ENVELOPE_ACCEPTANCE = 0.01


class CouplingSpec(_Immutable):
    """Symmetric positive semi-definite coupling matrix J (optionally a scalar beta).

    Immutable; ``j`` is a read-only copy, so the cached eigenvalues stay its own.
    """

    def __init__(self, j):
        j = np.asarray(j, dtype=float)
        if j.ndim == 0:
            j = j.reshape(1, 1)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ConfigError("coupling must be a square matrix")
        if not np.allclose(j, j.T, atol=1e-12):
            raise ConfigError("coupling matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(j)
        if eigvals.min() < -1e-12 * max(1.0, abs(eigvals).max()):
            raise ConfigError("coupling matrix must be positive semi-definite")
        object.__setattr__(self, "j", _readonly(j))
        object.__setattr__(self, "m", j.shape[0])
        object.__setattr__(self, "_eigvals", _readonly(eigvals))

    @classmethod
    def single_group(cls, beta: float) -> "CouplingSpec":
        if beta < 0:
            raise ConfigError("inverse temperature beta must be nonnegative")
        return cls([[float(beta)]])

    @property
    def is_positive_definite(self) -> bool:
        return bool(self._eigvals.min() > 1e-12)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.j == 0.0))

    @property
    def is_high_temperature(self) -> bool:
        """True when I - J is (strictly) positive definite."""
        return bool(np.linalg.eigvalsh(np.eye(self.m) - self.j).min() > 0.0)

    def check_density(self) -> None:
        """Raise a ConfigError unless mu_n has its density exp(-n F) / Z: J and I - J positive definite."""
        if not self.is_positive_definite:
            raise ConfigError("the mixing density needs a positive definite coupling")
        if not self.is_high_temperature:
            raise ConfigError("the mixing density needs the high-temperature regime "
                              "(identity minus coupling positive definite)")


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # |x| + log1p(e^{-2|x|}) - log 2, stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


class FreeEnergySurface(_Gridded):
    """The latent-bias free energy x -> x' Q x / 2 - sum_g alpha_g ln cosh x_g.

    Q = sqrt(alpha) J^{-1} sqrt(alpha) with alpha_g = n_g / n, the only
    convention under which the mixing density exp(-n F) reproduces the
    Gibbs measure.  F(0) = 0, F is even, and in the high-temperature
    regime, checked here, it is convex with the origin as unique
    global minimizer, which yields the Gaussian tail bound behind the
    integration box and the sampler's envelope.

    Immutable, like the measures: ``quad_nodes`` evaluates exp(-n F) on
    each level's grid once, and every marginal of mu_n reads that grid.

    The ``compact_`` methods transport mu_n to (-1, 1)^M by t = tanh(x):
    density exp(-n F(artanh t)) * prod 1/(1 - t^2) / Z with the same
    normalizer, which evaluates to 0 at |t_g| = 1.
    """

    def __init__(self, spec: CouplingSpec, groups: GroupStructure, n: int):
        spec.check_density()
        if spec.m != groups.m:
            raise ConfigError("coupling size does not match the group count")
        sizes = groups.sizes(n)
        alpha = np.asarray(sizes, dtype=float) / n
        root_alpha = np.sqrt(alpha)
        q_matrix = root_alpha[:, None] * np.linalg.inv(spec.j) * root_alpha[None, :]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", groups.m)
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "q_matrix", _readonly(q_matrix))
        object.__setattr__(self, "_precision0", _readonly(n * (q_matrix - np.diag(alpha))))
        object.__setattr__(self, "_normalizer", None)

    def value(self, x: np.ndarray) -> np.ndarray:
        """F on a batch of points: (K, M) in, (K,) out."""
        quad = 0.5 * np.einsum("ki,ij,kj->k", x, self.q_matrix, x)
        return quad - _log_cosh(x) @ self.alpha

    def density(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized mixing density exp(-n F(x)) on a batch (K, M)."""
        return np.exp(-self.n * self.value(x))

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Integration box: ``GAUSSIAN_BOX_SIGMAS`` curvature standard deviations per coordinate.

        The curvature standard deviations are the marginal ones of the
        Gaussian matching F's quadratic part, N(0, P0^-1).  F is convex and
        F(x) >= x' P0 x / (2n) in high temperature, so the omitted tail mass
        is below the matching Gaussian's, under 1e-22.
        """
        half = GAUSSIAN_BOX_SIGMAS * np.sqrt(np.diag(np.linalg.inv(self._precision0)))
        return -half, half

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The grid of the box weighted by the unnormalized density; weights sum to ~Z."""
        lower, upper = self.box()
        axes, weights = tensor_rule(lower, upper, level)
        values = self.density(grid_points(axes))
        # the mode sits at the origin with density exactly 1; a grid that
        # never sees it (possible very close to criticality, where the
        # curvature box dwarfs the quartic-dominated peak) must not be
        # allowed to fake convergence on pure tail values
        if values.max() < 0.5:
            raise QuadratureError(
                "integration grid failed to resolve the density peak; "
                "the coupling is too close to criticality for quadrature"
            )
        return axes, weights * values

    def normalizer(self) -> float:
        """Z = integral of exp(-n F), cached after the first quadrature."""
        if self._normalizer is None:
            value = _integrate(self, lambda axes, weights: np.array([weights.sum()]))
            object.__setattr__(self, "_normalizer", float(value[0]))
        return self._normalizer

    def compact_log_density(self, t: np.ndarray) -> np.ndarray:
        """Log of the unnormalized compact density on a batch (K, M); -inf off the open cube."""
        out = np.full(t.shape[0], -np.inf)
        interior = np.all(np.abs(t) < 1.0, axis=1)
        if np.any(interior):
            ti = t[interior]
            x = np.arctanh(ti)
            log_jac = -np.sum(np.log1p(-(ti**2)), axis=1)
            out[interior] = -self.n * self.value(x) + log_jac
        return out

    def _compact_box_integral(self, lower, upper, level: int) -> float:
        axes, weights = tensor_rule(lower, upper, level)
        vals = np.exp(self.compact_log_density(grid_points(axes)))
        return float(weights @ vals) / self.normalizer()

    def compact_tail_mass(self, delta: float) -> float:
        """Compact mass of (-1,1)^M minus [-delta, delta]^M, 0 < delta < 1, integrated directly.

        The complement is partitioned into 2M disjoint slabs (first
        coordinate exceeding delta decides the slab), so small tails are
        computed without catastrophic cancellation.
        """
        total = 0.0
        for g in range(self.m):
            for side in (-1.0, 1.0):
                lower, upper = np.full(self.m, -1.0), np.full(self.m, 1.0)
                lower[:g], upper[:g] = -delta, delta
                lower[g], upper[g] = (delta, 1.0) if side > 0 else (-1.0, -delta)
                value, _ = refine_until_stable(
                    lambda level: np.array([self._compact_box_integral(lower, upper, level)]),
                    tol=1e-300,
                    rtol=1e-9,
                )
                total += float(value[0])
        return total


# -- the mixing measure -------------------------------------------------------------

class MeanFieldMixing(BaseMeasure):
    """mu_n with density exp(-n F) / Z on the coordinates ``coords`` of the latent bias.

    Quadrature nodes are the surface's grid with weights divided by their
    sum, so every level is a probability measure.  A marginal keeps the
    axes of ``coords`` and sums the weight grid over the other axes, so its
    grid has ``level`` nodes per kept coordinate; it shares the surface, so
    the density is evaluated once per level for all marginals.
    """

    def __init__(self, surface: FreeEnergySurface, coords=None):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "coords", tuple(range(surface.m)) if coords is None else tuple(coords))
        object.__setattr__(self, "dim", len(self.coords))

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        axes, weights = self.surface.quad_nodes(level)
        dense = (weights / weights.sum()).reshape([len(axis) for axis in axes])
        # sums over the axes not in coords; the kept ones come out in coords' order
        marginal = np.einsum(dense, range(len(axes)), self.coords)
        return tuple(axes[c] for c in self.coords), marginal.reshape(-1)

    def _marginal(self, coords) -> "MeanFieldMixing":
        return MeanFieldMixing(self.surface, [self.coords[c] for c in coords])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """I.i.d. latent biases by rejection against N(0, P0^-1).

        P0 matches F's quadratic part.  Since -n F(x) = -x' P0 x / 2 +
        n sum_g alpha_g (ln cosh x_g - x_g^2 / 2) and the second term is
        never positive, the acceptance ratio never exceeds 1, in any
        dimension.  The surface exists only in the high-temperature
        regime; a coupling so close to criticality that fewer than 1% of
        proposals are accepted raises ConfigError.
        """
        surface = self.surface
        # x = z L' with L L' = P0^-1; P0 is positive definite in high temperature
        scale = np.linalg.cholesky(np.linalg.inv(surface._precision0)).T
        out = np.empty((count, surface.m))
        filled = proposed = accepted = 0
        while filled < count:
            x = rng.standard_normal((count, surface.m)) @ scale
            log_ratio = surface.n * ((_log_cosh(x) - 0.5 * x**2) @ surface.alpha)
            keep = x[np.log(rng.random(count)) < log_ratio]
            take = min(len(keep), count - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
            proposed += count
            accepted += len(keep)
            if proposed >= 10_000 and accepted < MIN_ENVELOPE_ACCEPTANCE * proposed:
                raise ConfigError(
                    f"rejection envelope acceptance rate {accepted / proposed:.2%} "
                    "is below 1%; review the coupling parameters"
                )
        return out[:, self.coords]


@dataclass(frozen=True)
class CurieWeissSequence:
    """Mean-field coupling; mu_n has density exp(-n F) / Z."""

    coupling: CouplingSpec

    kind = "curie-weiss"

    def validate(self, groups: GroupStructure, bias_map) -> None:
        if self.coupling.m != groups.m:
            raise ConfigError("coupling matrix size does not match the group count")
        if bias_map is not TANH:
            raise ConfigError("the mean-field model requires the tanh bias map")

    def mixing_measure(self, groups: GroupStructure, n: int):
        """Zero coupling decouples the voters: mu_n is the point mass at the origin."""
        if self.coupling.is_zero:
            return PointMassMixture([(np.zeros(groups.m), 1.0)])
        return MeanFieldMixing(FreeEnergySurface(self.coupling, groups, n))


# -- Gibbs form -----------------------------------------------------------------

def gibbs_pmf(spec: CouplingSpec, groups: GroupStructure, n: int) -> MarginPmf:
    """Exact margin law of the Gibbs measure by lattice enumeration.

    The margin vector is a sufficient statistic: each margin class carries
    weight exp(k' D J D k / 2) with D = diag(1/sqrt(n_g)), multiplied by
    its configuration count, a product of binomial coefficients.
    """
    if n > GIBBS_MAX_N:
        raise ResourceError(f"Gibbs enumeration guard: n={n} > {GIBBS_MAX_N}")
    sizes = groups.sizes(n)
    if groups.m != spec.m:
        raise ConfigError("coupling size does not match the group count")
    axes_margins = [2.0 * np.arange(s + 1) - s for s in sizes]
    grids = np.meshgrid(*axes_margins, indexing="ij")
    scaled = np.stack([g / math.sqrt(s) for g, s in zip(grids, sizes)], axis=-1)
    log_w = 0.5 * np.einsum("...i,ij,...j->...", scaled, spec.j, scaled)
    for g, s in enumerate(sizes):
        log_comb = np.array([math.lgamma(s + 1) - math.lgamma(j + 1) - math.lgamma(s - j + 1)
                             for j in range(s + 1)])
        log_w = log_w + log_comb.reshape([-1 if h == g else 1 for h in range(len(sizes))])
    log_w -= log_w.max()
    probs = np.exp(log_w)
    probs /= probs.sum()
    return MarginPmf(sizes, probs)


def representation_equivalence_check(
    spec: CouplingSpec, groups: GroupStructure, n: int
) -> float:
    """Max abs difference between the Gibbs and mixing-density margin laws.

    The two computations are independent (enumeration vs the model's exact
    law, quadrature against mu_n); the contract is a discrepancy below 1e-8.
    """
    if n > REPRESENTATION_MAX_N:
        raise ResourceError(f"equivalence check guard: n={n} > {REPRESENTATION_MAX_N}")
    model = DeFinettiModel(groups, CurieWeissSequence(spec), TANH)
    return gibbs_pmf(spec, groups, n).max_abs_diff(exact_margin_pmf(model, n))


def concentration_profile(
    spec: CouplingSpec, groups: GroupStructure, n_grid, delta: float
) -> list[float]:
    """The mixing-measure masses outside [-delta, delta]^M, one per n of ``n_grid`` in its order.

    In high temperature the tail decays exponentially in n, so the log
    tail mass should fall on a near-straight line.  A tail mass below the
    smallest double is reported as 0.  ``delta`` lies in (0, 1): the cube
    (-1, 1)^M holds all the mass, so a larger delta leaves every tail 0 and
    no line to fit.
    """
    if not 0 < delta < 1:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    return [FreeEnergySurface(spec, groups, int(n)).compact_tail_mass(delta) for n in n_grid]
