"""Limiting distributions of normalized margins per contraction regime.

Every law here is the distribution of G + Y where G has independent
standard normal entries on a subset of coordinates (and zero elsewhere)
and Y follows a base measure supported on a possibly different subset:
fast groups get pure noise, critical groups noise plus the scaled base
measure, subcritical groups the base measure alone.  This single shape
covers the all-fast Gaussian limit, the critical convolution limit, the
subcritical base-measure limit, and the mixed three-cluster limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError
from .measures import BaseMeasure, CRITICAL, FAST, SUBCRITICAL
from .models import DeFinettiModel, _is_atomic
from .quadrature import refine_until_stable


@dataclass(frozen=True)
class LimitLaw:
    """Law of (G * gauss_mask) + embed(Y) with Y ~ base on base_coords."""

    kind: str
    dim: int
    gauss_mask: tuple[bool, ...]
    base: BaseMeasure | None
    base_coords: tuple[int, ...]

    @classmethod
    def standard_gaussian(cls, dim: int) -> "LimitLaw":
        return cls("gaussian", dim, (True,) * dim, None, ())

    @classmethod
    def convolution(cls, base: BaseMeasure, scale=None) -> "LimitLaw":
        if scale is not None:
            base = base.contract(scale)
        return cls("convolution", base.dim, (True,) * base.dim, base, tuple(range(base.dim)))

    @classmethod
    def base_limit(cls, base: BaseMeasure) -> "LimitLaw":
        return cls("base", base.dim, (False,) * base.dim, base, tuple(range(base.dim)))

    def cf(self, t) -> complex:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.dim,):
            raise ConfigError(f"expected a length-{self.dim} argument")
        gauss = np.exp(-0.5 * float(np.sum(t[np.asarray(self.gauss_mask)] ** 2)))
        if self.base is None:
            return complex(gauss)
        return gauss * self.base.cf(t[list(self.base_coords)])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.zeros((count, self.dim))
        mask = np.asarray(self.gauss_mask)
        if mask.any():
            out[:, mask] = rng.standard_normal((count, int(mask.sum())))
        if self.base is not None:
            out[:, list(self.base_coords)] += self.base.sample(rng, count)
        return out

    def marginal(self, coord: int) -> "LimitLaw":
        gauss = (self.gauss_mask[coord],)
        if coord in self.base_coords:
            base = self.base.marginal([self.base_coords.index(coord)])
            return LimitLaw(self.kind, 1, gauss, base, (0,))
        return LimitLaw("gaussian" if gauss[0] else self.kind, 1, gauss, None, ())

    def cdf(self, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Exact CDF of a one-dimensional law, elementwise on an array.

        With Gaussian noise this is the mixture E_Y Phi(x - Y): an exact
        sum over atoms, or Gauss-Legendre nodes for a continuous base,
        doubled until no entry of the whole array moves by more than
        ``tol``.
        """
        if self.dim != 1:
            raise ConfigError("cdf is defined for 1-D laws; use limit_cdf for multi-D")
        x = np.asarray(x, dtype=float)
        if not self.gauss_mask[0]:
            return self.base.cdf(x)
        if self.base is None:
            return ndtr(x)
        if _is_atomic(self.base):
            return _smoothed_cdf(x, *self.base.quad_nodes(0))
        values, _ = refine_until_stable(
            lambda level: _smoothed_cdf(x, *self.base.quad_nodes(level)), tol=tol
        )
        return values


#: elements of one block of the (points x nodes) matrix in _smoothed_cdf
CDF_BLOCK = 1 << 18


def _smoothed_cdf(x: np.ndarray, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j * Phi(x - points_j), in row blocks of bounded size."""
    flat = x.reshape(-1)
    nodes = points[:, 0]
    out = np.empty(flat.size)
    rows = max(1, CDF_BLOCK // nodes.size)
    for start in range(0, flat.size, rows):
        out[start : start + rows] = ndtr(flat[start : start + rows, None] - nodes) @ weights
    return out.reshape(x.shape)


def limit_for(model: DeFinettiModel) -> LimitLaw:
    """The theorem-prescribed limit law of the normalized margin vector.

    Dispatch is a pure function of the per-group regimes: fast groups
    contribute independent standard Gaussian coordinates, critical groups
    Gaussian noise convolved with the base measure scaled by the critical
    constant h, subcritical groups the plain base measure (their margins
    being normalized by eps * n_g).
    """
    if model.sequence.kind != "contracted":
        raise ConfigError(
            "limit laws are prescribed for contracted sequences only "
            "(static and mean-field models have no dispatchable regime)"
        )
    schedule = model.sequence.schedule
    regimes = schedule.regimes()
    h = schedule.critical_h()
    gauss_mask = tuple(r in (FAST, CRITICAL) for r in regimes)
    base_coords = tuple(g for g, r in enumerate(regimes) if r in (CRITICAL, SUBCRITICAL))
    if not base_coords:
        return LimitLaw.standard_gaussian(model.groups.m)
    scale = []
    for g in base_coords:
        if regimes[g] == CRITICAL:
            if h[g] is None:
                raise ConfigError(
                    f"group {g} is critical but its constant h is not declared"
                )
            scale.append(float(h[g]))
        else:
            scale.append(1.0)
    base = model.sequence.base.marginal(base_coords).contract(scale)
    if all(r == CRITICAL for r in regimes):
        kind = "convolution"
    elif all(r == SUBCRITICAL for r in regimes):
        kind = "base"
    else:
        kind = "cluster"
    return LimitLaw(kind, model.groups.m, gauss_mask, base, base_coords)


def limit_cdf(law: LimitLaw, x, count: int = 1_000_000, seed: int = 0) -> float:
    """CDF of the limit law: exact in 1-D, sampling-based in multi-D."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if law.dim == 1:
        return float(law.cdf(x[:1])[0])
    value, _ = limit_cdf_mc(law, x, count=count, seed=seed)
    return value


def limit_cdf_mc(law: LimitLaw, x, count: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo CDF estimate with its standard error."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    draws = law.sample(np.random.default_rng(seed), count)
    hits = np.all(draws <= x, axis=1)
    p = float(hits.mean())
    se = float(np.sqrt(max(p * (1.0 - p), 1.0 / count) / count))
    return p, se


def conditional_cf(m: float, t: float) -> complex:
    """Single-voter characteristic function at bias m: cos t + i m sin t."""
    if abs(m) > 1.0:
        raise ConfigError("bias must lie in [-1, 1]")
    return complex(np.cos(t), m * np.sin(t))
