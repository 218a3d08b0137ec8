"""Base measures on R^M, contraction schedules, and bias maps.

The measure algebra is deliberately closed: point-mass mixtures, uniform
boxes, Gaussians, products of 1-D measures, and finite mixtures.  Every
member supports exact characteristic functions, exact (or erf-accurate)
1-D CDFs, seeded sampling, pushforward under componentwise scaling, and a
weighted tensor-grid view used by the integration routines.  Arbitrary
user-supplied densities are intentionally excluded so that the exact
oracles elsewhere in the package stay exact.

Evaluations take batches only: ``cf(t)`` maps a (K, d) float array of
frequencies to the (K,) complex array of the characteristic function, and
``cdf(x)`` maps an array of points elementwise.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from typing import Sequence

import numpy as np

from .errors import ConfigError, UnsupportedMeasureError
from .quadrature import MIX_BUDGET, binned_rule, grid_points, tensor_rule

WEIGHT_TOL = 1e-12

#: spread (in marginal standard deviations) of the integration box used for
#: Gaussian components; the omitted tail is below 1e-22 per coordinate.
GAUSSIAN_BOX_SIGMAS = 10.0


def _batch(t, dim: int) -> np.ndarray:
    """The (K, dim) float array of evaluation points; any other shape is an error."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != dim:
        raise ConfigError(f"expected a (K, {dim}) array, got shape {t.shape}")
    return t


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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """The sum of each row of a (K, d) array, adding its columns in order.

    The bits of ``np.sum(a, axis=-1)`` for d below 8, where numpy adds a
    row's entries one by one; but each add here is one pass over all K
    rows, where the reduction runs a d-element loop per row.
    """
    total = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        total += a[:, k]
    return total


def _check_weights(weights: np.ndarray, what: str) -> None:
    # written so that a nan weight fails both tests
    if not np.all(weights >= 0):
        raise ConfigError(f"{what} weights must be nonnegative")
    if not abs(float(weights.sum()) - 1.0) <= WEIGHT_TOL:
        raise ConfigError(f"{what} weights must sum to 1 within {WEIGHT_TOL:g}")


class _Immutable:
    """Attributes are set once, in ``__init__`` through ``object.__setattr__`` or ``_set``.

    Instances, and the models built on them, memoize what they compute from
    those attributes, so a later assignment could make a memo stale; it raises instead.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def _set(self, **attributes):
        for name, value in attributes.items():
            object.__setattr__(self, name, value)


class _Gridded(_Immutable):
    """An immutable owner of quadrature grids, each built once per level.

    ``quad_nodes(level)`` returns the ``(axes, weights)`` grid of the
    subclass's ``_grid(level)`` with every array read-only, and keeps it
    when its weights have at most ``MIX_BUDGET`` cells; a larger grid is
    built again on every call, so a memo holds a bounded set of small
    grids.  A build that raises keeps nothing.
    """

    @functools.cached_property
    def _grids(self) -> dict:
        # cached_property writes the instance dict directly, past __setattr__
        return {}

    def quad_nodes(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        grid = self._grids.get(level)
        if grid is None:
            grid = self._grid(level)
            for array in (*grid[0], grid[1]):
                array.flags.writeable = False
            if grid[1].size <= MIX_BUDGET:
                self._grids[level] = grid
        return grid


class BaseMeasure(_Gridded):
    """Common interface of the measure algebra.

    Subclasses provide: ``dim``, ``sample(rng, count)``, ``cf(t)`` ((K, dim)
    frequencies in, (K,) complex values out), ``contract(eps)`` (the image
    under x -> eps * x for nonzero factors, one scalar or one per
    coordinate; a negative factor reflects its coordinate),
    ``_grid(level)``, ``_marginal(coords)``, ``cdf(x)`` (1-D only,
    evaluated elementwise on an array), and a canonical ``_key()``.  Keys
    merge repeated atoms and components and leave out zero-weight ones, so
    two measures with equal keys are equal; comparing a measure's key with
    its image's decides invariance (``is_invariant_under``).

    Measures are immutable: their attributes are set once, in ``__init__``,
    and assigning one raises.  So ``quad_nodes(level)`` builds each level's
    grid once per instance and hands out the same read-only arrays on every
    later call (``_Gridded``), and ``marginal(coords)`` over all
    coordinates, in order, is the measure itself, grids included.

    ``quad_nodes(level)`` returns ``(axes, weights)``, a tensor grid: ``axes``
    holds one 1-D array of node coordinates per dimension and ``weights``
    the flat weight vector over their product in C order
    (``quadrature.grid_points``), of total mass 1.  Boxes, Gaussians and
    products are Gauss-Legendre grids with ``level`` nodes per axis.  Atoms
    and mixtures are scattered, so their nodes are binned onto the grid of
    each coordinate's distinct values (``quadrature.binned_rule``); atomic
    measures ignore ``level``.  The integration routines never build a
    mixture's joint grid: one recursion, ``models._node_sum``, adds a
    mixture's component sums, bins a large set of atoms in parts, and reads
    any other measure's grid at the level asked.
    """

    dim: int

    def marginal(self, coords) -> "BaseMeasure":
        """The law of the coordinates ``coords``, in that order."""
        coords = list(coords)
        if coords == list(range(self.dim)):
            return self
        return self._marginal(coords)

    def is_invariant_under(self, eps) -> bool:
        """True if the measure equals its image under x -> eps * x (structural check)."""
        return _keys_match(self._key(), self.contract(eps)._key())

    @property
    def is_symmetric(self) -> bool:
        """True if the measure is invariant under x -> -x."""
        return self.is_invariant_under(-1.0)

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
        object.__setattr__(self, "locations", _readonly(np.stack(locs)))
        object.__setattr__(self, "weights", _readonly([w for _, w in atoms]))
        _check_weights(self.weights, "atom")
        object.__setattr__(self, "dim", dim)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=count, p=self.weights)
        return self.locations[idx]

    def cf(self, t) -> np.ndarray:
        return np.exp(1j * (_batch(t, self.dim) @ self.locations.T)) @ self.weights

    def contract(self, eps) -> "PointMassMixture":
        eps = _factors(eps, self.dim)
        return PointMassMixture(list(zip(self.locations * eps, self.weights)))

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        return binned_rule(self.locations, self.weights)

    def _marginal(self, coords) -> "PointMassMixture":
        return PointMassMixture(list(zip(self.locations[:, coords], self.weights)))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        order = np.argsort(self.locations[:, 0], kind="stable")
        atoms = self.locations[order, 0]
        cumulative = np.concatenate(([0.0], np.cumsum(self.weights[order])))
        # side="right" counts atoms equal to x: the CDF is right-continuous
        return cumulative[np.searchsorted(atoms, np.asarray(x, dtype=float), side="right")]

    def _key(self):
        return _merged_key("atoms", ((tuple(loc), w) for loc, w in zip(self.locations, self.weights)))


class UniformBox(BaseMeasure):
    """Uniform distribution on a closed box with lower < upper componentwise."""

    def __init__(self, lower, upper):
        object.__setattr__(self, "lower", _readonly(_vector(lower)))
        object.__setattr__(self, "upper", _readonly(_vector(upper)))
        if self.lower.size != self.upper.size:
            raise ConfigError("box bounds must share one dimension")
        if not np.all(self.lower < self.upper):
            raise ConfigError("UniformBox requires lower < upper componentwise")
        object.__setattr__(self, "dim", self.lower.size)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Group-major draws: the broadcast ``lower + (upper - lower) * u``, one column at a time."""
        u = rng.random((count, self.dim))
        out = np.empty((count, self.dim), order="F")
        for k, (lo, width) in enumerate(zip(self.lower, self.upper - self.lower)):
            np.multiply(width, u[:, k], out=out[:, k])
            np.add(lo, out[:, k], out=out[:, k])
        return out

    def cf(self, t) -> np.ndarray:
        # per coordinate: e^{i t c} sin(t h)/(t h) with c the center, h the halfwidth
        t = _batch(t, self.dim)
        center = 0.5 * (self.lower + self.upper)
        half = 0.5 * (self.upper - self.lower)
        return np.exp(1j * (t @ center)) * np.prod(np.sinc(t * half / np.pi), axis=1)

    def contract(self, eps) -> "UniformBox":
        eps = _factors(eps, self.dim)
        # a negative factor swaps the ends of its side
        lower, upper = self.lower * eps, self.upper * eps
        return UniformBox(np.minimum(lower, upper), np.maximum(lower, upper))

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        axes, weights = tensor_rule(self.lower, self.upper, level)
        volume = float(np.prod(self.upper - self.lower))
        return axes, weights / volume

    def _marginal(self, coords) -> "UniformBox":
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
        object.__setattr__(self, "mean", _readonly(_vector(mean)))
        object.__setattr__(self, "dim", self.mean.size)
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
        object.__setattr__(self, "covariance", _readonly(cov))
        # factor A with A A^T = covariance, used for deterministic sampling
        object.__setattr__(self, "_factor", _readonly(eigvecs * np.sqrt(eigvals)))
        object.__setattr__(self, "_eigvecs", _readonly(eigvecs))
        object.__setattr__(self, "_eigvals", _readonly(eigvals))

    @property
    def _is_degenerate(self) -> bool:
        return bool(self._eigvals.min() <= 0.0)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ self._factor.T

    def cf(self, t) -> np.ndarray:
        t = _batch(t, self.dim)
        return np.exp(1j * (t @ self.mean) - 0.5 * np.sum((t @ self.covariance) * t, axis=1))

    def contract(self, eps) -> "Gaussian":
        eps = _factors(eps, self.dim)
        return Gaussian(self.mean * eps, self.covariance * np.outer(eps, eps))

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        if self._is_degenerate:
            raise UnsupportedMeasureError(
                "quadrature nodes need a positive definite Gaussian covariance"
            )
        sigma = np.sqrt(np.diag(self.covariance))
        axes, weights = tensor_rule(
            self.mean - GAUSSIAN_BOX_SIGMAS * sigma,
            self.mean + GAUSSIAN_BOX_SIGMAS * sigma,
            level,
        )
        # the normal density in scipy.stats.multivariate_normal's order of
        # operations: -(d log 2 pi + log det + |(x - mean) W|^2) / 2 with
        # whitening W = eigvecs / sqrt(eigvals), in place where it can be
        centred = grid_points(axes)
        centred -= self.mean
        whiten = self._eigvecs * np.sqrt(1.0 / self._eigvals)
        white = centred @ whiten
        maha = _row_sum(np.square(white, out=white))
        log_det = np.sum(np.log(self._eigvals))
        density = np.add(self.dim * math.log(2.0 * math.pi) + log_det, maha, out=maha)
        np.exp(np.multiply(-0.5, density, out=density), out=density)
        return axes, np.multiply(weights, density, out=density)

    def _marginal(self, coords) -> "Gaussian":
        return Gaussian(self.mean[coords], self.covariance[np.ix_(coords, coords)])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        x = np.asarray(x, dtype=float)
        mean = float(self.mean[0])
        sigma = math.sqrt(float(self.covariance[0, 0]))
        if sigma == 0.0:
            return np.where(x >= mean, 1.0, 0.0)
        from scipy.special import ndtr

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
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "dim", len(self.factors))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.column_stack([f.sample(rng, count)[:, 0] for f in self.factors])

    def cf(self, t) -> np.ndarray:
        t = _batch(t, self.dim)
        return np.prod([f.cf(t[:, k : k + 1]) for k, f in enumerate(self.factors)], axis=0)

    def contract(self, eps) -> "Product":
        eps = _factors(eps, self.dim)
        return Product([f.contract(eps[k : k + 1]) for k, f in enumerate(self.factors)])

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        parts = [f.quad_nodes(level) for f in self.factors]
        weights = parts[0][1]
        for _, w in parts[1:]:
            weights = np.multiply.outer(weights, w)
        return tuple(axes[0] for axes, _ in parts), weights.reshape(-1)

    def _marginal(self, coords) -> BaseMeasure:
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
        object.__setattr__(self, "components", tuple(m for m, _ in components))
        object.__setattr__(self, "weights", _readonly([w for _, w in components]))
        _check_weights(self.weights, "mixture")
        dims = {m.dim for m in self.components}
        if len(dims) != 1:
            raise ConfigError("mixture components must share one dimension")
        object.__setattr__(self, "dim", dims.pop())

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = rng.choice(len(self.components), size=count, p=self.weights)
        out = np.empty((count, self.dim))
        for k, comp in enumerate(self.components):
            mask = idx == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = comp.sample(rng, n_k)
        return out

    def cf(self, t) -> np.ndarray:
        return self.weights @ np.stack([comp.cf(t) for comp in self.components])

    def contract(self, eps) -> "Mixture":
        return Mixture([(c.contract(eps), w) for c, w in zip(self.components, self.weights)])

    def _grid(self, level: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        # the joint grid spans every component's axis values; the
        # integration routines add the components' integrals instead
        points, weights = [], []
        for comp, w in zip(self.components, self.weights):
            axes, q = comp.quad_nodes(level)
            points.append(grid_points(axes))
            weights.append(w * q)
        return binned_rule(np.concatenate(points), np.concatenate(weights))

    def _marginal(self, coords) -> "Mixture":
        return Mixture([(c.marginal(coords), w) for c, w in zip(self.components, self.weights)])

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._require_dim1()
        return sum(w * c.cdf(x) for c, w in zip(self.components, self.weights))

    def _key(self):
        return _merged_key("mix", ((c._key(), w) for c, w in zip(self.components, self.weights)))


def _merged_key(tag: str, parts) -> tuple:
    """``(tag, sorted (part, weight) pairs)`` of an atomic or mixture measure.

    Equal parts are one, weighted by the ``math.fsum`` of their weights, which
    rounds once; parts of zero total weight are left out.
    """
    merged: dict[tuple, list[float]] = {}
    for part, w in parts:
        merged.setdefault(part, []).append(float(w))
    items = ((part, math.fsum(ws)) for part, ws in merged.items())
    return (tag, tuple(sorted(item for item in items if item[1] > 0)))


def _keys_match(a: tuple, b: tuple) -> bool:
    """Key equality, except that atom and component weights need only agree within WEIGHT_TOL.

    A merged weight is a rounded sum (0.1 + 0.2 != 0.3), so a symmetric
    measure and its image can differ in those bits alone.  Locations,
    boxes and Gaussian parameters must be equal; a product matches factor
    by factor, so it is symmetric when all its factors are.
    """
    tag, parts = a[0], a[1]
    if tag != b[0] or tag not in ("atoms", "mix", "prod") or len(parts) != len(b[1]):
        return a == b
    if tag == "prod":
        return all(map(_keys_match, parts, b[1]))
    same = _keys_match if tag == "mix" else operator.eq
    return all(
        same(x, y) and abs(w - v) <= WEIGHT_TOL for (x, w), (y, v) in zip(parts, b[1])
    )


def _factors(eps, dim: int) -> np.ndarray:
    """The ``dim`` scaling factors of ``contract``: a scalar is broadcast, and none may be 0."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full(dim, float(eps))
    eps = _vector(eps, dim)
    if not np.all(np.abs(eps) > 0):  # a nan fails too
        raise ConfigError("contraction factors must be nonzero componentwise")
    return eps


# -- bias maps ---------------------------------------------------------------
#
# A bias map takes a float array of latent biases to [-1, 1] entry by
# entry.  Acting componentwise, it keeps independent coordinates
# independent, which the exact layer relies on.

#: m -> tanh(m) componentwise; the canonical map for measures on R^M
TANH = np.tanh


def CLAMP(m):
    """Identity clamped to [-1, 1]; canonical for measures already supported there."""
    return np.clip(m, -1.0, 1.0)


_BIAS_MAPS = {"tanh": TANH, "clamp": CLAMP}


def bias_map(name: str):
    try:
        return _BIAS_MAPS[name]
    except KeyError:
        raise ConfigError(f"unknown bias map {name!r}; expected one of {sorted(_BIAS_MAPS)}")


# -- contraction schedules ----------------------------------------------------

FAST = "fast"
CRITICAL = "critical"
SUBCRITICAL = "subcritical"
REGIMES = (FAST, CRITICAL, SUBCRITICAL)

#: exponent threshold separating the regimes of c * n**(-a) schedules
CRITICAL_EXPONENT = 0.5


def _per_group(values, m: int, what: str) -> tuple[float, ...]:
    """The ``m`` per-group floats; a scalar or a one-element list applies to every group."""
    arr = np.asarray(values, dtype=float)
    if arr.shape in ((), (1,)):
        arr = np.full(m, arr.item())
    if arr.shape != (m,):
        raise ConfigError(f"{what} must be a scalar or a length-{m} vector")
    return tuple(float(v) for v in arr)


class PowerLawSchedule(_Immutable):
    """Per-group contraction rates eps(n_g) = c_g * n_g**(-a_g).

    Exponents classify the regime analytically, once, into ``regimes``:
    a > 1/2 is fast, a = 1/2 critical, a < 1/2 subcritical.  The critical
    constant h = lim eps * sqrt(n_g) of a critical group is its coefficient,
    so ``h`` is ``coefficients``; ``h[g]`` is read only where group g is critical.
    """

    def __init__(self, coefficients, exponents, m: int | None = None):
        if m is None:
            m = max(np.asarray(coefficients).size, np.asarray(exponents).size)
        coefficients = _per_group(coefficients, m, "coefficients")
        exponents = _per_group(exponents, m, "exponents")
        if any(c <= 0 for c in coefficients):
            raise ConfigError("power-law coefficients must be positive")
        if any(a <= 0 for a in exponents):
            raise ConfigError(
                "power-law exponents must be positive so that eps_n -> 0"
            )
        regimes = tuple(
            FAST if a > CRITICAL_EXPONENT else CRITICAL if a == CRITICAL_EXPONENT else SUBCRITICAL
            for a in exponents
        )
        self._set(coefficients=coefficients, exponents=exponents, m=m, regimes=regimes,
                  h=coefficients)

    def eps(self, n: int, group_sizes) -> np.ndarray:
        sizes = np.asarray(group_sizes, dtype=float)
        return np.asarray(self.coefficients) * sizes ** (-np.asarray(self.exponents))


class ExplicitSchedule(_Immutable):
    """Tabulated eps vectors keyed by overall population size n.

    Regime classification from finitely many tabulated values is
    undecidable, so the caller declares one regime tag per group, kept as
    ``regimes``, and the positive critical constants ``h``, one per group
    or None.  ``h[g]`` is read only where group g is critical, so an ``h``
    with no critical group is refused.  ``table`` is a read-only mapping.
    """

    def __init__(self, table, regimes, h=None):
        table = {int(n): tuple(float(e) for e in np.atleast_1d(eps)) for n, eps in table.items()}
        if not table:
            raise ConfigError("explicit schedule table is empty")
        m = len(next(iter(table.values())))
        if any(len(eps) != m for eps in table.values()):
            raise ConfigError("all tabulated eps vectors must share one length")
        regimes = tuple(regimes)
        if len(regimes) != m or any(r not in REGIMES for r in regimes):
            raise ConfigError(f"regimes must be {m} tags from {REGIMES}")
        h = None if h is None else _per_group(h, m, "h")
        if h is not None and not all(v > 0 for v in h):
            raise ConfigError(f"h must be positive on every group, got {list(h)}")
        if h is not None and CRITICAL not in regimes:
            raise ConfigError("h is read only on critical groups, and no group is declared critical")
        for eps in table.values():
            if any(e <= 0 for e in eps):
                raise ConfigError("tabulated eps values must be strictly positive")
        ns = sorted(table)
        seq = np.array([table[n] for n in ns])
        if len(ns) > 1 and (np.any(np.diff(seq, axis=0) > 0) or np.any(seq[-1] >= seq[0])):
            raise ConfigError(
                "tabulated eps values must decrease: the schedule must satisfy eps_n -> 0"
            )
        self._set(table=types.MappingProxyType(table), m=m, regimes=regimes, h=h)

    def eps(self, n: int, group_sizes) -> np.ndarray:
        try:
            return np.asarray(self.table[int(n)], dtype=float)
        except KeyError:
            raise ConfigError(f"explicit schedule has no eps entry for n={n}")
