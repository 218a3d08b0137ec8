"""Gauss-Legendre tensor rules with node-doubling convergence control.

All integrands in this package are smooth (polynomials, binomial kernels,
and exponentials of smooth functions) on compact boxes, so plain
Gauss-Legendre with doubled node counts converges geometrically.  The
adaptive driver compares two consecutive refinement levels and accepts
once the change drops below the requested tolerance.  One caller skips
it: ``models._mixed_law`` sums a clamp-biased law over atoms and boxes
inside [-1, 1] with at most 127 voters a group once, at
``DEFAULT_START`` nodes, since that rule integrates polynomials of degree
up to 2 * ``DEFAULT_START`` - 1 exactly; every other integral doubles.

The 1-D rules are stored, not computed: ``legendre_rules.npy`` holds, for
each level in ``RULE_LEVELS``, the nonnegative half of what
``numpy.polynomial.legendre.leggauss`` returns on numpy 2.4.6, and a
process reads it once, on its first rule.  Stored rules keep the last bits
of every result, spare each process a dense eigensolve (0.3 s at 2048
nodes, 2.6 s at 4096 on a 2-core AMD EPYC), and are the same on every
machine whatever its LAPACK.  ``scripts/legendre_rules.py`` rebuilds the
file, and with ``--check`` compares a rebuild with it.

A rule is a tensor grid ``(axes, weights)``: one 1-D array of nodes per
coordinate and the flat weights over their product in C order.  Points
are built (``grid_points``) only where a density is evaluated on them;
scattered nodes are binned onto a grid (``binned_rule``).
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable

import numpy as np

from .errors import QuadratureError, ResourceError

DEFAULT_START = 64
DEFAULT_CAP = 4096
DEFAULT_TOL = 1e-12

#: most nodes one tensor rule or binned grid may have: more raises
#: ResourceError before any allocation (64**4 nodes in 4-D would need 512 MiB
#: of points where a density is evaluated).  Every rule the package needs in
#: practice stays below it.
NODE_GUARD = 2**22

#: most elements one exact-layer contraction may hold at once: a partial
#: contraction, a group's table, or the weight grid of a set of atoms.  Larger
#: grids are halved along their first axis longer than one until each part
#: fits; a single node always proceeds.  A measure keeps the grids it builds
#: up to this many cells (``measures._Gridded``).
MIX_BUDGET = 2_000_000


#: the node counts of the stored rules: every level ``refine_until_stable``
#: can ask for, ``DEFAULT_START`` doubled up to ``DEFAULT_CAP``
RULE_LEVELS = tuple(
    DEFAULT_START * 2**k for k in range((DEFAULT_CAP // DEFAULT_START).bit_length())
)

#: a (2, sum(RULE_LEVELS) // 2) float64 array: the nonnegative nodes (row 0)
#: and their weights (row 1) of each stored rule, level after level in the
#: order of ``RULE_LEVELS``; ``scripts/legendre_rules.py`` writes it
RULES_FILE = os.path.join(os.path.dirname(__file__), "legendre_rules.npy")

#: the .npy format 1.0 header that ``np.save`` writes for that array
_RULES_HEADER = b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, %d), }" % (
    sum(RULE_LEVELS) // 2
)


@functools.cache
def _stored_halves() -> np.ndarray:
    # the header is matched, not parsed: np.load parses it with
    # ast.literal_eval, whose parser code a forked process faults in anew,
    # 0.2-0.3 MB of its peak RSS
    with open(RULES_FILE, "rb") as f:
        prefix = f.read(10)
        header = f.read(int.from_bytes(prefix[8:], "little"))
        data = f.read()
    if (prefix[:8] != b"\x93NUMPY\x01\x00" or not header.startswith(_RULES_HEADER)
            or len(data) != 8 * sum(RULE_LEVELS)):
        raise QuadratureError(
            f"{RULES_FILE} does not hold the stored Gauss-Legendre rules; "
            "scripts/legendre_rules.py rebuilds it"
        )
    return np.frombuffer(data, dtype="<f8").reshape(2, -1)


@functools.lru_cache(maxsize=len(RULE_LEVELS))
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Read-only arrays, in ascending node order.  Raises QuadratureError
    unless n is one of ``RULE_LEVELS``.
    """
    if n not in RULE_LEVELS:
        raise QuadratureError(
            f"no stored Gauss-Legendre rule has {n} nodes; the stored rules have "
            f"{', '.join(map(str, RULE_LEVELS))}"
        )
    start = sum(level // 2 for level in RULE_LEVELS if level < n)
    x, w = _stored_halves()[:, start:start + n // 2]
    # leggauss's nodes are exactly antisymmetric and its weights exactly
    # symmetric, so mirroring the stored half rebuilds its bits
    nodes = np.concatenate([-x[::-1], x])
    weights = np.concatenate([w[::-1], w])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def tensor_rule(lower, upper, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Tensor-product Gauss-Legendre rule on a box, as ``(axes, weights)``.

    ``axes`` holds the n nodes of each of the d coordinates and ``weights``
    the n**d node weights in the C order of their product (``grid_points``),
    so that sum(w * f(grid_points(axes))) approximates the integral of f
    over the box.  Raises ResourceError when n**d exceeds ``NODE_GUARD``.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    dim = lower.size
    if n**dim > NODE_GUARD:
        raise ResourceError(
            f"tensor rule with {n} nodes in each of {dim} dimensions exceeds "
            f"the budget of {NODE_GUARD} nodes"
        )
    x, w = legendre_rule(n)
    half = 0.5 * (upper - lower)
    weights = functools.reduce(np.multiply.outer, [w * h for h in half]).reshape(-1)
    return tuple(a + h * (x + 1.0) for a, h in zip(lower, half)), weights


def grid_points(axes) -> np.ndarray:
    """The (prod len(axes), d) points of a tensor grid, in C order over the axes."""
    d = len(axes)
    points = np.empty(tuple(len(a) for a in axes) + (d,))
    for k, axis in enumerate(axes):
        points[..., k] = axis.reshape([-1 if j == k else 1 for j in range(d)])
    return points.reshape(-1, d)


def binned_rule(points: np.ndarray, weights: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Scattered weighted nodes in the ``(axes, weights)`` form of a tensor grid.

    Each axis holds the sorted distinct values of one coordinate, and the
    weights of nodes that share every coordinate are summed into their
    cell; cells that no node hits weigh 0.  One coordinate is kept as given,
    in node order, repeats included.  Raises ResourceError when the grid
    would exceed ``NODE_GUARD`` cells.
    """
    if points.shape[1] == 1:
        return (points[:, 0],), weights
    cells = [np.unique(c, return_inverse=True) for c in points.T]
    dims = [len(values) for values, _ in cells]
    if math.prod(dims) > NODE_GUARD:
        raise ResourceError(
            f"{len(weights)} scattered nodes span a grid of {math.prod(dims)} cells, "
            f"above the budget of {NODE_GUARD} nodes"
        )
    index = np.ravel_multi_index([inverse for _, inverse in cells], dims)
    dense = np.bincount(index, weights=weights, minlength=math.prod(dims))
    return tuple(values for values, _ in cells), dense


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
