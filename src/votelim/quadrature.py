"""Gauss-Legendre tensor rules with node-doubling convergence control.

All integrands in this package are smooth (polynomials, binomial kernels,
and exponentials of smooth functions) on compact boxes, so plain
Gauss-Legendre with doubled node counts converges geometrically.  The
adaptive driver compares two consecutive refinement levels and accepts
once the change drops below the requested tolerance.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import QuadratureError, ResourceError

DEFAULT_START = 64
DEFAULT_CAP = 4096
DEFAULT_TOL = 1e-12

#: most nodes one tensor rule may have: level**dim above this raises
#: ResourceError before any allocation (64**4 nodes in 4-D would need 512 MiB
#: of points alone).  Every rule the package needs in practice stays below it.
NODE_GUARD = 2**22


@functools.lru_cache(maxsize=64)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def interval_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped onto [a, b]."""
    x, w = legendre_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


def tensor_rule(lower, upper, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule on a box.

    Returns points of shape (n**d, d) and the matching weight vector, so
    that sum(w * f(points)) approximates the integral of f over the box.
    Raises ResourceError when n**d exceeds ``NODE_GUARD``.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    dim = lower.size
    if n**dim > NODE_GUARD:
        raise ResourceError(
            f"tensor rule with {n} nodes in each of {dim} dimensions exceeds "
            f"the budget of {NODE_GUARD} nodes"
        )
    axes = [interval_rule(lower[k], upper[k], n) for k in range(dim)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = functools.reduce(np.multiply.outer, [ax[1] for ax in axes]).reshape(-1)
    return points, weights


def refine_until_stable(
    evaluate: Callable[[int], np.ndarray],
    tol: float = DEFAULT_TOL,
    rtol: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Evaluate at doubling node counts until the result stabilizes.

    ``evaluate(level)`` must return an array that approaches a limit as the
    per-dimension node count ``level`` grows from ``DEFAULT_START``.  Accepts
    the finer result once every entry moved by at most
    ``max(tol, rtol * |finer entry|)`` between consecutive levels, and
    returns it with the max-abs change.  Raises QuadratureError with
    diagnostics if ``DEFAULT_CAP`` nodes per dimension are exhausted.
    """
    prev = np.asarray(evaluate(DEFAULT_START))
    level = 2 * DEFAULT_START
    while level <= DEFAULT_CAP:
        cur = np.asarray(evaluate(level))
        change = np.abs(cur - prev)
        delta = float(np.max(change)) if cur.size else 0.0
        if np.all(change <= np.maximum(tol, rtol * np.abs(cur))):
            return cur, delta
        prev = cur
        level *= 2
    raise QuadratureError(
        f"quadrature did not stabilize to tol={tol:g}, rtol={rtol:g}: last "
        f"doubling ({level // 2} nodes/dim) still changed entries by {delta:g}"
    )
