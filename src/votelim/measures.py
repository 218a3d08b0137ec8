"""Base measures on R^M, contraction schedules, and bias maps.

The measure algebra is deliberately closed: point-mass mixtures, uniform
boxes, Gaussians, products of 1-D measures, and finite mixtures.  Every
member supports exact characteristic functions, exact (or erf-accurate)
box masses, seeded sampling, pushforward under componentwise scaling, and
a weighted-node view used by the integration routines.  Arbitrary
user-supplied densities are intentionally excluded so that the exact
oracles elsewhere in the package stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, UnsupportedMeasureError
from .quadrature import tensor_rule

WEIGHT_TOL = 1e-12

#: spread (in marginal standard deviations) of the integration box used for
#: Gaussian components; the omitted tail is below 1e-22 per coordinate.
GAUSSIAN_BOX_SIGMAS = 10.0


def _vector(x, dim: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ConfigError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ConfigError(f"expected a vector of length {dim}, got {v.size}")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_weights(weights: np.ndarray, what: str) -> None:
    if np.any(weights < 0):
        raise ConfigError(f"{what} weights must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
        raise ConfigError(f"{what} weights must sum to 1 within {WEIGHT_TOL:g}")


class BaseMeasure:
    """Common interface of the measure algebra.

    Subclasses provide: ``dim``, ``sample(rng, count)``, ``cf(t)``,
    ``contract(eps)``, ``negate()``, ``mass_in_box(lower, upper)``,
    ``quad_nodes(level)``, ``marginal(coords)``, ``cdf(x)`` (1-D only,
    evaluated elementwise on an array), and a canonical ``_key()`` used for
    structural comparisons.
    """

    dim: int

    @property
    def is_symmetric(self) -> bool:
        """True if the measure is invariant under x -> -x (structural check)."""
        return self._key() == self.negate()._key()

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise UnsupportedMeasureError(
            f"1-D CDF undefined for {type(self).__name__} of dimension {self.dim}"
        )

    def _require_dim1(self) -> None:
        if self.dim != 1:
            raise UnsupportedMeasureError("operation only defined for 1-D measures")


class PointMassMixture(BaseMeasure):
    """Finite atomic measure: sum of weighted Dirac masses."""

    def __init__(self, atoms: Sequence[tuple]):
        if not atoms:
            raise ConfigError("PointMassMixture needs at least one atom")
        locs = [_vector(loc) for loc, _ in atoms]
        dim = locs[0].size
        if any(l.size != dim for l in locs):
            raise ConfigError("all atom locations must share one dimension")
        self.locations = _readonly(np.stack(locs))
        self.weights = _readonly([w for _, w in atoms])
        _check_weights(self.weights, "atom")
        self.dim = dim

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=count, p=self.weights)
        return self.locations[idx]

    def cf(self, t) -> complex:
        t = _vector(t, self.dim)
        return complex(np.sum(self.weights * np.exp(1j * self.locations @ t)))

    def contract(self, eps) -> "PointMassMixture":
        eps = _positive_eps(eps, self.dim)
        return PointMassMixture(list(zip(self.locations * eps, self.weights)))

    def negate(self) -> "PointMassMixture":
        return PointMassMixture(list(zip(-self.locations, self.weights)))

    def mass_in_box(self, lower, upper) -> float:
        lower = _vector(lower, self.dim)
        upper = _vector(upper, self.dim)
        inside = np.all((self.locations >= lower) & (self.locations <= upper), axis=1)
        return float(self.weights[inside].sum())

    def quad_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        return self.locations, self.weights

    def marginal(self, coords) -> "PointMassMixture":
        coords = list(coords)
        return PointMassMixture(list(zip(self.locations[:, coords], self.weights)))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        order = np.argsort(self.locations[:, 0], kind="stable")
        atoms = self.locations[order, 0]
        cumulative = np.concatenate(([0.0], np.cumsum(self.weights[order])))
        # side="right" counts atoms equal to x: the CDF is right-continuous
        return cumulative[np.searchsorted(atoms, np.asarray(x, dtype=float), side="right")]

    def _key(self):
        items = sorted(
            (tuple(loc), float(w)) for loc, w in zip(self.locations, self.weights)
        )
        return ("atoms", tuple(items))


class UniformBox(BaseMeasure):
    """Uniform distribution on a closed box with lower < upper componentwise."""

    def __init__(self, lower, upper):
        self.lower = _readonly(_vector(lower))
        self.upper = _readonly(_vector(upper))
        if self.lower.size != self.upper.size:
            raise ConfigError("box bounds must share one dimension")
        if not np.all(self.lower < self.upper):
            raise ConfigError("UniformBox requires lower < upper componentwise")
        self.dim = self.lower.size

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random((count, self.dim))
        return self.lower + (self.upper - self.lower) * u

    def cf(self, t) -> complex:
        # per coordinate: e^{i t c} sin(t h)/(t h) with c the center, h the halfwidth
        t = _vector(t, self.dim)
        center = 0.5 * (self.lower + self.upper)
        half = 0.5 * (self.upper - self.lower)
        return complex(
            np.exp(1j * float(t @ center)) * np.prod(np.sinc(t * half / np.pi))
        )

    def contract(self, eps) -> "UniformBox":
        eps = _positive_eps(eps, self.dim)
        return UniformBox(self.lower * eps, self.upper * eps)

    def negate(self) -> "UniformBox":
        return UniformBox(-self.upper, -self.lower)

    def mass_in_box(self, lower, upper) -> float:
        lower = _vector(lower, self.dim)
        upper = _vector(upper, self.dim)
        overlap = np.minimum(upper, self.upper) - np.maximum(lower, self.lower)
        overlap = np.clip(overlap, 0.0, None)
        return float(np.prod(overlap / (self.upper - self.lower)))

    def quad_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        points, weights = tensor_rule(self.lower, self.upper, level)
        volume = float(np.prod(self.upper - self.lower))
        return points, weights / volume

    def marginal(self, coords) -> "UniformBox":
        coords = list(coords)
        return UniformBox(self.lower[coords], self.upper[coords])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        lo, hi = float(self.lower[0]), float(self.upper[0])
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    def _key(self):
        return ("box", tuple(self.lower), tuple(self.upper))


class Gaussian(BaseMeasure):
    """Multivariate normal with symmetric positive semi-definite covariance."""

    def __init__(self, mean, covariance):
        self.mean = _readonly(_vector(mean))
        self.dim = self.mean.size
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        if cov.shape != (self.dim, self.dim):
            raise ConfigError(f"covariance must be {self.dim}x{self.dim}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("covariance must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals.min() < -1e-10 * max(1.0, eigvals.max()):
            raise ConfigError("covariance must be positive semi-definite")
        eigvals = np.clip(eigvals, 0.0, None)
        self.covariance = _readonly(cov)
        # factor A with A A^T = covariance, used for deterministic sampling
        self._factor = _readonly(eigvecs * np.sqrt(eigvals))
        self._eigvals = _readonly(eigvals)

    @property
    def _is_degenerate(self) -> bool:
        return bool(self._eigvals.min() <= 0.0)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ self._factor.T

    def cf(self, t) -> complex:
        t = _vector(t, self.dim)
        return complex(
            np.exp(1j * float(t @ self.mean) - 0.5 * float(t @ self.covariance @ t))
        )

    def contract(self, eps) -> "Gaussian":
        eps = _positive_eps(eps, self.dim)
        return Gaussian(self.mean * eps, self.covariance * np.outer(eps, eps))

    def negate(self) -> "Gaussian":
        return Gaussian(-self.mean, self.covariance)

    def mass_in_box(self, lower, upper) -> float:
        lower = _vector(lower, self.dim)
        upper = _vector(upper, self.dim)
        diag = np.diag(np.diag(self.covariance))
        if np.allclose(self.covariance, diag, atol=0.0):
            sigma = np.sqrt(np.diag(self.covariance))
            total = 1.0
            for k in range(self.dim):
                if sigma[k] == 0.0:
                    total *= 1.0 if lower[k] <= self.mean[k] <= upper[k] else 0.0
                else:
                    z_hi = (upper[k] - self.mean[k]) / sigma[k]
                    z_lo = (lower[k] - self.mean[k]) / sigma[k]
                    total *= ndtr(z_hi) - ndtr(z_lo)
            return float(total)
        # correlated case: Genz quasi-Monte Carlo rectangle probability
        from scipy.stats import multivariate_normal

        dist = multivariate_normal(mean=self.mean, cov=self.covariance, allow_singular=True)
        return float(np.clip(dist.cdf(upper, lower_limit=lower), 0.0, 1.0))

    def quad_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        if self._is_degenerate:
            raise UnsupportedMeasureError(
                "quadrature nodes need a positive definite Gaussian covariance"
            )
        sigma = np.sqrt(np.diag(self.covariance))
        points, weights = tensor_rule(
            self.mean - GAUSSIAN_BOX_SIGMAS * sigma,
            self.mean + GAUSSIAN_BOX_SIGMAS * sigma,
            level,
        )
        from scipy.stats import multivariate_normal

        dist = multivariate_normal(mean=self.mean, cov=self.covariance)
        return points, weights * dist.pdf(points.reshape(-1, self.dim))

    def marginal(self, coords) -> "Gaussian":
        coords = list(coords)
        return Gaussian(self.mean[coords], self.covariance[np.ix_(coords, coords)])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        x = np.asarray(x, dtype=float)
        mean = float(self.mean[0])
        sigma = math.sqrt(float(self.covariance[0, 0]))
        if sigma == 0.0:
            return np.where(x >= mean, 1.0, 0.0)
        return ndtr((x - mean) / sigma)

    def _key(self):
        return ("gauss", tuple(self.mean), tuple(self.covariance.reshape(-1)))


class Product(BaseMeasure):
    """Product of independent 1-D measures, one per coordinate."""

    def __init__(self, factors: Sequence[BaseMeasure]):
        if not factors:
            raise ConfigError("Product needs at least one factor")
        if any(f.dim != 1 for f in factors):
            raise ConfigError("Product factors must all be 1-D")
        self.factors = tuple(factors)
        self.dim = len(self.factors)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.column_stack([f.sample(rng, count)[:, 0] for f in self.factors])

    def cf(self, t) -> complex:
        t = _vector(t, self.dim)
        out = 1.0 + 0.0j
        for k, f in enumerate(self.factors):
            out *= f.cf(t[k : k + 1])
        return out

    def contract(self, eps) -> "Product":
        eps = _positive_eps(eps, self.dim)
        return Product([f.contract(eps[k : k + 1]) for k, f in enumerate(self.factors)])

    def negate(self) -> "Product":
        return Product([f.negate() for f in self.factors])

    def mass_in_box(self, lower, upper) -> float:
        lower = _vector(lower, self.dim)
        upper = _vector(upper, self.dim)
        out = 1.0
        for k, f in enumerate(self.factors):
            out *= f.mass_in_box(lower[k : k + 1], upper[k : k + 1])
        return float(out)

    def quad_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        parts = [f.quad_nodes(level) for f in self.factors]
        grids = np.meshgrid(*[p[0][:, 0] for p in parts], indexing="ij")
        points = np.stack([g.reshape(-1) for g in grids], axis=-1)
        weights = parts[0][1]
        for _, w in parts[1:]:
            weights = np.multiply.outer(weights, w)
        return points, weights.reshape(-1)

    def marginal(self, coords) -> BaseMeasure:
        coords = list(coords)
        if len(coords) == 1:
            return self.factors[coords[0]]
        return Product([self.factors[k] for k in coords])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        return self.factors[0].cdf(x)

    def _key(self):
        return ("prod", tuple(f._key() for f in self.factors))


class Mixture(BaseMeasure):
    """Finite mixture of measures of a common dimension."""

    def __init__(self, components: Sequence[tuple]):
        if not components:
            raise ConfigError("Mixture needs at least one component")
        self.components = tuple(m for m, _ in components)
        self.weights = _readonly([w for _, w in components])
        _check_weights(self.weights, "mixture")
        dims = {m.dim for m in self.components}
        if len(dims) != 1:
            raise ConfigError("mixture components must share one dimension")
        self.dim = dims.pop()

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = rng.choice(len(self.components), size=count, p=self.weights)
        out = np.empty((count, self.dim))
        for k, comp in enumerate(self.components):
            mask = idx == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = comp.sample(rng, n_k)
        return out

    def cf(self, t) -> complex:
        return complex(
            sum(w * comp.cf(t) for comp, w in zip(self.components, self.weights))
        )

    def contract(self, eps) -> "Mixture":
        return Mixture([(c.contract(eps), w) for c, w in zip(self.components, self.weights)])

    def negate(self) -> "Mixture":
        return Mixture([(c.negate(), w) for c, w in zip(self.components, self.weights)])

    def mass_in_box(self, lower, upper) -> float:
        return float(
            sum(w * c.mass_in_box(lower, upper) for c, w in zip(self.components, self.weights))
        )

    def quad_nodes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        points, weights = [], []
        for comp, w in zip(self.components, self.weights):
            p, q = comp.quad_nodes(level)
            points.append(p)
            weights.append(w * q)
        return np.concatenate(points), np.concatenate(weights)

    def marginal(self, coords) -> "Mixture":
        return Mixture([(c.marginal(coords), w) for c, w in zip(self.components, self.weights)])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        return sum(w * c.cdf(x) for c, w in zip(self.components, self.weights))

    def _key(self):
        items = sorted((c._key(), float(w)) for c, w in zip(self.components, self.weights))
        return ("mix", tuple(items))


def _positive_eps(eps, dim: int) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full(dim, float(eps))
    eps = _vector(eps, dim)
    if not np.all(eps > 0):
        raise ConfigError("contraction factors must be positive componentwise")
    return eps


# -- module-level operation surface -----------------------------------------

def sample(measure: BaseMeasure, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` vectors from the measure, deterministic in ``seed``."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    return measure.sample(np.random.default_rng(seed), count)


def mass_in_box(measure: BaseMeasure, lower, upper) -> float:
    """Probability of the closed box [lower, upper]; boundary atoms count fully."""
    lower = _vector(lower, measure.dim)
    upper = _vector(upper, measure.dim)
    if np.any(lower > upper):
        raise ConfigError("mass_in_box requires lower <= upper componentwise")
    return measure.mass_in_box(lower, upper)


# -- bias maps ---------------------------------------------------------------

@dataclass(frozen=True)
class TanhBias:
    """m -> tanh(m) componentwise; the canonical map for measures on R^M."""

    name: str = "tanh"

    def __call__(self, m):
        return np.tanh(m)


@dataclass(frozen=True)
class ClampIdentityBias:
    """Identity clamped to [-1, 1]; canonical for measures already supported there."""

    name: str = "clamp"

    def __call__(self, m):
        return np.clip(m, -1.0, 1.0)


TANH = TanhBias()
CLAMP = ClampIdentityBias()

_BIAS_MAPS = {"tanh": TANH, "clamp": CLAMP}


def bias_map(name: str):
    try:
        return _BIAS_MAPS[name]
    except KeyError:
        raise ConfigError(f"unknown bias map {name!r}; expected one of {sorted(_BIAS_MAPS)}")


def apply_bias_map(bmap, m):
    """Apply a bias map to a latent bias vector; result lies in [-1, 1]^M.

    Every bias map acts componentwise, so it keeps independent coordinates
    independent (the exact layer relies on this).
    """
    return bmap(np.asarray(m, dtype=float))


# -- contraction schedules ----------------------------------------------------

FAST = "fast"
CRITICAL = "critical"
SUBCRITICAL = "subcritical"
REGIMES = (FAST, CRITICAL, SUBCRITICAL)

#: exponent threshold separating the regimes of c * n**(-a) schedules
CRITICAL_EXPONENT = 0.5


def _per_group(values, m: int, what: str) -> tuple[float, ...]:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(m, float(arr))
    if arr.shape != (m,):
        raise ConfigError(f"{what} must be a scalar or a length-{m} vector")
    return tuple(float(v) for v in arr)


class PowerLawSchedule:
    """Per-group contraction rates eps(n_g) = c_g * n_g**(-a_g).

    Exponents classify the regime analytically: a > 1/2 is fast,
    a = 1/2 critical (with critical constant h = c), a < 1/2 subcritical.
    """

    def __init__(self, coefficients, exponents, m: int | None = None):
        if m is None:
            m = max(np.asarray(coefficients).size, np.asarray(exponents).size)
        self.coefficients = _per_group(coefficients, m, "coefficients")
        self.exponents = _per_group(exponents, m, "exponents")
        self.m = m
        if any(c <= 0 for c in self.coefficients):
            raise ConfigError("power-law coefficients must be positive")
        if any(a <= 0 for a in self.exponents):
            raise ConfigError(
                "power-law exponents must be positive so that eps_n -> 0"
            )

    def eps(self, n: int, group_sizes) -> np.ndarray:
        sizes = np.asarray(group_sizes, dtype=float)
        return np.asarray(self.coefficients) * sizes ** (-np.asarray(self.exponents))

    def regimes(self) -> tuple[str, ...]:
        out = []
        for a in self.exponents:
            if a > CRITICAL_EXPONENT:
                out.append(FAST)
            elif a == CRITICAL_EXPONENT:
                out.append(CRITICAL)
            else:
                out.append(SUBCRITICAL)
        return tuple(out)

    def critical_h(self) -> tuple:
        """Limit of eps * sqrt(n_g) per group; defined on critical groups only."""
        return tuple(
            c if a == CRITICAL_EXPONENT else None
            for c, a in zip(self.coefficients, self.exponents)
        )

    def _key(self):
        return ("power-law", self.coefficients, self.exponents)


class ExplicitSchedule:
    """Tabulated eps vectors keyed by overall population size n.

    Regime classification from finitely many tabulated values is
    undecidable, so the caller declares one regime tag per group (and the
    critical constant h where applicable).
    """

    def __init__(self, table, regimes, h=None):
        self.table = {int(n): tuple(float(e) for e in np.atleast_1d(eps)) for n, eps in table.items()}
        if not self.table:
            raise ConfigError("explicit schedule table is empty")
        m = len(next(iter(self.table.values())))
        if any(len(eps) != m for eps in self.table.values()):
            raise ConfigError("all tabulated eps vectors must share one length")
        self.m = m
        self.declared = tuple(regimes)
        if len(self.declared) != m or any(r not in REGIMES for r in self.declared):
            raise ConfigError(f"regimes must be {m} tags from {REGIMES}")
        self.h = None if h is None else _per_group(h, m, "h")
        for eps in self.table.values():
            if any(e <= 0 for e in eps):
                raise ConfigError("tabulated eps values must be strictly positive")
        ns = sorted(self.table)
        seq = np.array([self.table[n] for n in ns])
        if len(ns) > 1 and (np.any(np.diff(seq, axis=0) > 0) or np.any(seq[-1] >= seq[0])):
            raise ConfigError(
                "tabulated eps values must decrease: the schedule must satisfy eps_n -> 0"
            )

    def eps(self, n: int, group_sizes) -> np.ndarray:
        try:
            return np.asarray(self.table[int(n)], dtype=float)
        except KeyError:
            raise ConfigError(f"explicit schedule has no eps entry for n={n}")

    def regimes(self) -> tuple[str, ...]:
        return self.declared

    def critical_h(self) -> tuple:
        if self.h is None:
            return tuple(None for _ in range(self.m))
        return tuple(
            hv if r == CRITICAL else None for hv, r in zip(self.h, self.declared)
        )

    def _key(self):
        return ("explicit", tuple(sorted(self.table.items())), self.declared, self.h)
