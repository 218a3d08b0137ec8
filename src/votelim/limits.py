"""Limiting distributions of normalized margins per contraction regime.

Every law here is the distribution of G + Y where G has independent
standard normal entries on a subset of coordinates (and zero elsewhere)
and Y follows a base measure supported on a possibly different subset:
fast groups get pure noise, critical groups noise plus the scaled base
measure, subcritical groups the base measure alone.  This single shape
covers the all-fast Gaussian limit, the critical convolution limit, the
subcritical base-measure limit, and the mixed three-cluster limit.

``limit_for`` alone maps a model to its law.  A contracted sequence and a
static point mass at the origin have one; no other sequence does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .measures import BaseMeasure, CRITICAL, FAST, SUBCRITICAL, _batch
from .models import ORACLE_BLOCK, DeFinettiModel, _integrate


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

    def cf(self, t) -> np.ndarray:
        """Characteristic function: (K, dim) frequencies in, (K,) complex values out."""
        t = _batch(t, self.dim)
        gauss = np.exp(-0.5 * np.sum(t[:, list(self.gauss_mask)] ** 2, axis=1)) + 0j
        if self.base is None:
            return gauss
        return gauss * self.base.cf(t[:, list(self.base_coords)])

    def marginal(self, coord: int) -> "LimitLaw":
        gauss = (self.gauss_mask[coord],)
        if coord in self.base_coords:
            base = self.base.marginal([self.base_coords.index(coord)])
            return LimitLaw(self.kind, 1, gauss, base, (0,))
        return LimitLaw("gaussian" if gauss[0] else self.kind, 1, gauss, None, ())

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Exact CDF of a one-dimensional law, elementwise on an array.

        With Gaussian noise this is the mixture E_Y Phi(x - Y), integrated
        over the base by ``models._integrate``: an exact sum over atoms, or
        Gauss-Legendre nodes for a continuous base, doubled until no entry
        of the whole array moves by more than ``quadrature.DEFAULT_TOL``.
        """
        if self.dim != 1:
            raise ConfigError("cdf is defined for 1-D laws; take a marginal first")
        x = np.asarray(x, dtype=float)
        if not self.gauss_mask[0]:
            return self.base.cdf(x)
        if self.base is None:
            from scipy.special import ndtr

            return ndtr(x)
        return _integrate(self.base, lambda p, w: _smoothed_cdf(x, p, w))


def _smoothed_cdf(x: np.ndarray, axes, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j * Phi(x - nodes_j) over a 1-D node grid, in row blocks of bounded size."""
    from scipy.special import ndtr

    flat = x.reshape(-1)
    nodes = axes[0]
    out = np.empty(flat.size)
    rows = max(1, ORACLE_BLOCK // nodes.size)
    for start in range(0, flat.size, rows):
        out[start : start + rows] = ndtr(flat[start : start + rows, None] - nodes) @ weights
    return out.reshape(x.shape)


def limit_for(model: DeFinettiModel) -> LimitLaw:
    """The theorem-prescribed limit law of the normalized margin vector.

    A static point mass at the origin, the independent-voter baseline,
    gives N(0, I).  A contracted sequence dispatches on its schedule's
    ``regimes``: fast groups contribute independent standard Gaussian
    coordinates, critical groups Gaussian noise convolved with the base
    measure scaled by the schedule's critical constant ``h[g]``, subcritical
    groups the plain base measure (their margins being normalized by
    eps * n_g).  A critical group without a declared ``h``, a spread-out
    static measure or a mean-field sequence is a ConfigError.
    """
    sequence = model.sequence
    if sequence.kind == "static":
        # the point mass at 0 is the only measure equal to its image under x -> 2x
        if sequence.base.is_invariant_under(2.0):
            return LimitLaw.standard_gaussian(model.groups.m)
        raise ConfigError(
            "no dispatchable limit for a spread-out static mixing measure; "
            "set thresholds.target_law: gaussian to compare against the normal law"
        )
    if sequence.kind != "contracted":
        raise ConfigError(f"no dispatchable limit for a {sequence.kind} sequence")
    schedule = sequence.schedule
    regimes = schedule.regimes
    gauss_mask = tuple(r in (FAST, CRITICAL) for r in regimes)
    base_coords = tuple(g for g, r in enumerate(regimes) if r in (CRITICAL, SUBCRITICAL))
    if not base_coords:
        return LimitLaw.standard_gaussian(model.groups.m)
    if CRITICAL in regimes and schedule.h is None:
        raise ConfigError(
            f"group {regimes.index(CRITICAL)} is critical but its constant h is not declared"
        )
    scale = [schedule.h[g] if regimes[g] == CRITICAL else 1.0 for g in base_coords]
    base = sequence.base.marginal(base_coords).contract(scale)
    if all(r == CRITICAL for r in regimes):
        kind = "convolution"
    elif all(r == SUBCRITICAL for r in regimes):
        kind = "base"
    else:
        kind = "cluster"
    return LimitLaw(kind, model.groups.m, gauss_mask, base, base_coords)
