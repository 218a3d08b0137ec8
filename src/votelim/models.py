"""Multi-group voting models driven by mixing-measure sequences.

A model couples a group structure, a mixing-measure sequence, and a bias
map.  Conditional on a latent bias vector m the voters flip independent
coins with success probability (1 + m_bar)/2 per group, so group margins
are binomial transforms.  Every sequence builds its own mixing measure
mu_n: the static and contracted sequences here, the mean-field sequence in
``cwm``.  The exact margin law (atomic summation or adaptive quadrature),
the independent brute-force enumeration oracle, the pair correlation and
the seeded block-parallel Monte Carlo sampler each have one path that
asks mu_n only for quadrature nodes, marginals and samples.

Quadrature nodes come as a tensor grid ``(axes, weights)``: one array of
node coordinates per group and the weights over their product.  The exact
routes apply the bias map to each axis alone, build one table per axis
value and contract the reshaped weights with them, so a ``level^M`` grid
costs ``M * level`` bias-map values and table rows.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ResourceError
from .measures import (
    CLAMP,
    BaseMeasure,
    Gaussian,
    Mixture,
    PointMassMixture,
    Product,
    UniformBox,
    _Immutable,
)
from .quadrature import DEFAULT_START, MIX_BUDGET, binned_rule, refine_until_stable

LATTICE_GUARD = 10**7
BRUTE_FORCE_MAX_N = 20
POPULATION_GUARD = 10**12

#: samples per deterministic block; the RNG stream of block j depends only on
#: (seed, j), so results are identical no matter how blocks map to workers.
SAMPLE_BLOCK = 8192

#: most margins (count * M) one sample may hold: 400 MB as int32, 800 MB as
#: int64 (see MarginSample); more is a ResourceError before allocation,
#: whatever memory the host has
SAMPLE_GUARD = 10**8

#: elements of each array the package fills block by block: the 2^n
#: oracle's per-block vote-vector products (2 MiB as float64), a (points x
#: nodes) block of the smoothed limit CDF (``limits``), and a (samples x
#: frequencies) block of the empirical characteristic function (``verify``).
#: Against 2^18, 2^17 took 1.7 MB off the exact_oracle benchmark's peak RSS
#: and added 5.7% to its wall time; 2^20 added 8.3 MB and 9.7% (medians of 4
#: runs each on a 2-core AMD EPYC host, one BLAS thread, when the oracle's
#: blocks also held a one-hot popcount matrix of the same size).
ORACLE_BLOCK = 2**18


class GroupStructure(_Immutable):
    """Fixed group count with proportions resolved to integer sizes.

    Sizes come from largest-remainder rounding of ``proportions * n`` with a
    floor of 2 per group (so pair correlations are always defined), repaired
    so that the sizes sum to n exactly.  Immutable: the sizes of each
    population asked are memoized on the instance.
    """

    def __init__(self, m: int, proportions):
        if m < 1:
            raise ConfigError("group count must be at least 1")
        props = np.asarray(proportions, dtype=float)
        if props.shape != (m,):
            raise ConfigError(f"expected {m} group proportions")
        if np.any(props <= 0):
            raise ConfigError("group proportions must be positive")
        if abs(float(props.sum()) - 1.0) > 1e-12:
            raise ConfigError("group proportions must sum to 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "proportions", tuple(float(p) for p in props))
        object.__setattr__(self, "_sizes", {})

    def sizes(self, n: int) -> tuple[int, ...]:
        sizes = self._sizes.get(n)
        if sizes is None:
            sizes = self._sizes[n] = self._resolve(n)
        return sizes

    def _resolve(self, n: int) -> tuple[int, ...]:
        if n < 2 * self.m:
            raise ConfigError(
                f"population {n} cannot give every one of {self.m} groups at least 2 voters"
            )
        if n > POPULATION_GUARD:
            raise ResourceError(f"population {n} exceeds the overflow guard")
        quotas = np.asarray(self.proportions) * n
        base = np.floor(quotas).astype(int)
        remainder = int(n - base.sum())
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
        # repair the floor of 2; donors exist because n >= 2m
        while np.any(base < 2):
            short = int(np.argmin(base))
            base[int(np.argmax(base))] -= 1
            base[short] += 1
        return tuple(int(s) for s in base)


@dataclass(frozen=True)
class StaticSequence:
    """Collective-bias setting: one fixed symmetric mixing measure for every n."""

    base: BaseMeasure

    def __post_init__(self):
        if not self.base.is_symmetric:
            raise ConfigError("a static mixing measure must be symmetric")

    kind = "static"

    def validate(self, groups: GroupStructure, bias_map) -> None:
        _check_dim(self.base, groups)

    def mixing_measure(self, groups: GroupStructure, n: int) -> BaseMeasure:
        return self.base


@dataclass(frozen=True)
class ContractedSequence:
    """Mixing measures mu_n obtained by scaling a fixed base measure by eps_n."""

    base: BaseMeasure
    schedule: object

    kind = "contracted"

    def validate(self, groups: GroupStructure, bias_map) -> None:
        _check_dim(self.base, groups)
        if self.schedule.m != groups.m:
            raise ConfigError("schedule group count does not match the model")

    def mixing_measure(self, groups: GroupStructure, n: int) -> BaseMeasure:
        return self.base.contract(self.schedule.eps(n, groups.sizes(n)))


def _check_dim(base: BaseMeasure, groups: GroupStructure) -> None:
    if base.dim != groups.m:
        raise ConfigError(f"mixing measure dimension {base.dim} != group count {groups.m}")


class DeFinettiModel(_Immutable):
    """A complete voting model: groups, mixing sequence, and bias map.

    The sequence checks that it fits the groups and the bias map, and
    builds mu_n: anything with ``dim``, ``quad_nodes(level)``,
    ``marginal(coords)`` and ``sample(rng, count)``.  ``quad_nodes`` returns
    a tensor grid ``(axes, weights)``: ``dim`` 1-D arrays of node
    coordinates, and the weights of total mass 1 over their product in C
    order, as ``measures.BaseMeasure`` describes.

    The model is immutable, so it memoizes mu_n for one population, the
    last one asked: the exact law, its per-group laws, the 2^n oracle and
    the sampler at that n all read the same measure object.  A failed
    build is not memoized.
    """

    def __init__(self, groups: GroupStructure, sequence, bias_map):
        sequence.validate(groups, bias_map)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "bias_map", bias_map)
        object.__setattr__(self, "_mixing", (None, None))

    def mixing_measure(self, n: int):
        """The mixing measure mu_n at population n; built again only when n changes."""
        last, measure = self._mixing
        if last is None or last != n:
            measure = self.sequence.mixing_measure(self.groups, n)
            # one tuple swap, so a concurrent reader sees a matching (n, mu_n) pair
            object.__setattr__(self, "_mixing", (n, measure))
        return measure

    def normalization(self, n: int) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-group margin divisor gamma and regime tags.

        Fast/critical groups use sqrt(n_g); subcritical groups use eps * n_g,
        which is the divisor under which their margins keep a nondegenerate
        limit.  Static and mean-field models are reported in sqrt(n_g) units.
        """
        sizes = np.asarray(self.groups.sizes(n), dtype=float)
        seq = self.sequence
        if seq.kind == "contracted":
            regimes = seq.schedule.regimes
            eps = seq.schedule.eps(n, sizes)
            gamma = np.where(
                np.asarray(regimes) == "subcritical", eps * sizes, np.sqrt(sizes)
            )
            return gamma, regimes
        tag = "static" if seq.kind == "static" else "cwm"
        return np.sqrt(sizes), (tag,) * self.groups.m


# -- margin probability tables -------------------------------------------------

class MarginPmf:
    """Exact joint law of the group margins on their parity lattice.

    An array over count indices j: entry j is the probability of the
    margins k_g = 2 j_g - n_g.
    """

    def __init__(self, group_sizes, probs: np.ndarray):
        self.group_sizes = tuple(int(s) for s in group_sizes)
        expected = tuple(s + 1 for s in self.group_sizes)
        if probs.shape != expected:
            raise DataError(f"probs shape {probs.shape} != lattice shape {expected}")
        self.probs = probs

    @property
    def m(self) -> int:
        return len(self.group_sizes)

    def margin_axis(self, g: int) -> np.ndarray:
        n_g = self.group_sizes[g]
        return 2 * np.arange(n_g + 1) - n_g

    def total(self) -> float:
        return float(self.probs.sum())

    def reflected(self) -> "MarginPmf":
        """The law of -S; equals self when the model is sign-symmetric."""
        return MarginPmf(self.group_sizes, np.flip(self.probs))

    def max_abs_diff(self, other: "MarginPmf") -> float:
        if self.group_sizes != other.group_sizes:
            raise DataError("margin laws live on different lattices")
        return float(np.max(np.abs(self.probs - other.probs)))


def _binom_table(n_g: int, p: np.ndarray) -> np.ndarray:
    """Row q is the Binomial(n_g, p[q]) pmf over 0..n_g counts.

    Calls the Boost ufunc behind ``scipy.stats.binom.pmf`` directly, with the
    clip to [0, 1] that ``rv_discrete.pmf`` applies: the same bits, without
    its per-call argument handling or the import of ``scipy.stats`` (about a
    second).  Every count 0..n_g lies in the support and every p in [0, 1],
    so none of that handling applies here.  A scipy without the private
    ufunc gets the public call.
    """
    k = np.arange(n_g + 1)
    try:
        from scipy.special._ufuncs import _binom_pmf
    except ImportError:
        from scipy import stats

        return stats.binom.pmf(k, n_g, p[:, None])
    return np.clip(_binom_pmf(k, n_g, p[:, None]), 0.0, 1.0)


def _mix(table, sizes, p, weights: np.ndarray) -> np.ndarray:
    """sum over grid nodes of weight * prod_g table(n_g, p_g)[j_g], over (j_1, ..., j_M).

    ``p`` holds the success probabilities of each group's axis and
    ``weights`` the grid's weights in C order (or already shaped to the
    grid).  The weight array is contracted with one table per group, built
    once per axis value; against the per-node sum only the summation order
    changes.
    """
    rows = [s + 1 for s in sizes]
    dims = [len(axis) for axis in p]
    dense = np.reshape(weights, dims)
    arrays = [math.prod(dims[: g + 1] + rows[g + 1 :]) for g in range(len(dims))]
    if dense.size > 1 and max(arrays + [k * r for k, r in zip(dims, rows)]) > MIX_BUDGET:
        a = next(g for g, k in enumerate(dims) if k > 1)
        lo, hi = slice(None, dims[a] // 2), slice(dims[a] // 2, None)

        def half(part):
            axes = list(p)
            axes[a] = p[a][part]
            return _mix(table, sizes, axes, dense[(slice(None),) * a + (part,)])

        return half(lo) + half(hi)
    for g in reversed(range(len(sizes))):
        # the last grid axis contracts without a copy; count axes come out reversed
        dense = np.tensordot(dense, table(sizes[g], p[g]), axes=(g, 0))
    return np.ascontiguousarray(dense.transpose())


def _success_probability(bmap, m: np.ndarray) -> np.ndarray:
    """A voter's success probability (1 + b(m)) / 2 at each latent bias in ``m``."""
    return 0.5 * (1.0 + bmap(m))


def _guard_lattice(sizes) -> None:
    if math.prod(s + 1 for s in sizes) > LATTICE_GUARD:
        raise ResourceError(
            f"margin lattice with sizes {tuple(sizes)} exceeds {LATTICE_GUARD:g} entries"
        )


def _every_part(measure: BaseMeasure, test) -> bool:
    """True if ``test`` holds for every factor of a ``Product`` and every
    component of a ``Mixture`` in ``measure``, nested ones included."""
    if isinstance(measure, Product):
        return all(_every_part(f, test) for f in measure.factors)
    if isinstance(measure, Mixture):
        return all(_every_part(c, test) for c in measure.components)
    return test(measure)


def _is_atomic(measure: BaseMeasure) -> bool:
    return _every_part(measure, lambda part: isinstance(part, PointMassMixture))


def _is_clamp_polynomial(measure: BaseMeasure) -> bool:
    """True if every part of mu is a set of atoms or a ``UniformBox`` inside [-1, 1].

    ``CLAMP`` is the identity on [-1, 1], so under it a count table of n_g
    voters is a polynomial of degree n_g in each box coordinate, and atoms
    are summed exactly at any level.
    """

    def polynomial(part) -> bool:
        if isinstance(part, UniformBox):
            return bool(np.all(part.lower >= -1.0) and np.all(part.upper <= 1.0))
        return isinstance(part, PointMassMixture)

    return _every_part(measure, polynomial)


def _factorizes(measure: BaseMeasure) -> bool:
    """True if the measure's type makes its coordinates independent."""
    if isinstance(measure, (Product, UniformBox)):
        return True
    if isinstance(measure, Gaussian):
        cov = measure.covariance
        return not np.any(cov[~np.eye(measure.dim, dtype=bool)])
    return False


def _integrate(measure, integrand, polynomial: bool = False) -> np.ndarray:
    """``integrand(axes, weights)`` over mu's nodes; it must be linear in the weights.

    One pass at ``DEFAULT_START`` nodes sums an atomic measure, whose atoms
    ignore the level, and any measure whose integrand the caller knows to
    be a polynomial that this rule integrates exactly (``polynomial``,
    which only ``_mixed_law`` sets); any other is refined until stable
    (``refine_until_stable``).  Either way the sum is ``_node_sum``'s, so a
    mixture's components never share a grid.
    """
    if polynomial or _is_atomic(measure):
        return _node_sum(measure, integrand, DEFAULT_START)
    values, _ = refine_until_stable(lambda level: _node_sum(measure, integrand, level))
    return values


def _node_sum(measure, integrand, level: int) -> np.ndarray:
    """``integrand`` over mu's nodes at ``level``, which atoms ignore.

    A ``Mixture`` gives the weighted sum of its components' sums, nested
    mixtures included.  A set of atoms is binned onto the grid of its
    coordinates' distinct values; while that grid would exceed
    ``MIX_BUDGET`` cells the atoms are halved and the halves' sums added.
    Anything else is ``integrand`` on its own tensor grid.
    """
    if isinstance(measure, Mixture):
        return sum(w * _node_sum(c, integrand, level) for c, w in zip(measure.components, measure.weights))
    if not isinstance(measure, PointMassMixture):
        return integrand(*measure.quad_nodes(level))

    def halves(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        k, m = points.shape
        # k atoms have at most k**m cells, so few atoms skip counting them
        if k > 1 and k**m > MIX_BUDGET and math.prod(len(np.unique(c)) for c in points.T) > MIX_BUDGET:
            h = k // 2
            return halves(points[:h], weights[:h]) + halves(points[h:], weights[h:])
        return integrand(*binned_rule(points, weights))

    return halves(measure.locations, measure.weights)


def exact_margin_pmf(model: DeFinettiModel, n: int) -> MarginPmf:
    """Exact margin law: the conditional binomial law mixed over mu_n.

    One recursion (``_node_sum``) sums the mixed law over mu_n's nodes: a
    ``Mixture`` adds its components' sums, atoms are summed exactly, and
    Gauss-Legendre grids are doubled until no pmf entry moves by more than
    ``quadrature.DEFAULT_TOL`` (``_integrate``), except where the law is a
    polynomial the first rule integrates exactly: under ``CLAMP``, over
    atoms and boxes inside [-1, 1], with n_g <= 127, it is summed once at
    ``quadrature.DEFAULT_START`` nodes (``_mixed_law``).  When mu_n has
    independent coordinates (a ``Product``, a ``UniformBox`` or a diagonal
    ``Gaussian``), the bias map, which acts componentwise, keeps them
    independent: the law is the outer product of one 1-D mixed binomial law
    per group.  Any other measure, the mean-field density among them, is
    integrated on its joint grid.  Guarded by the lattice-size resource
    limit.
    """
    sizes = model.groups.sizes(n)
    _guard_lattice(sizes)
    measure = model.mixing_measure(n)
    if _factorizes(measure):
        laws = [group_margin_pmf(model, n, g).probs for g in range(len(sizes))]
        return MarginPmf(sizes, functools.reduce(np.multiply.outer, laws))
    return MarginPmf(sizes, _mixed_law(model, measure, sizes, _binom_table))


def group_margin_pmf(model: DeFinettiModel, n: int, g: int) -> MarginPmf:
    """Exact law of group g's margin alone, a one-group ``MarginPmf``.

    The bias map acts componentwise, so S_g depends on mu_n only through
    its coordinate-g marginal: the law is the 1-D mixed binomial law over
    ``mu_n.marginal([g])``, guarded by the lattice limit on n_g + 1 entries
    rather than on the whole joint lattice.
    """
    n_g = model.groups.sizes(n)[g]
    _guard_lattice((n_g,))
    measure = model.mixing_measure(n).marginal([g])
    return MarginPmf((n_g,), _mixed_law(model, measure, (n_g,), _binom_table))


def _mixed_law(model: DeFinettiModel, measure, sizes, table) -> np.ndarray:
    """Per-group count laws ``table(n_g, p)`` on the ``sizes`` lattice, mixed over ``measure``.

    Under ``CLAMP``, a measure of atoms and boxes inside [-1, 1]
    (``_is_clamp_polynomial``) with every n_g below 2 * ``DEFAULT_START``
    is summed once, at ``DEFAULT_START`` nodes (``_integrate``'s
    ``polynomial``): every entry is a polynomial of degree n_g in each box
    coordinate, and that rule is exact up to degree 2 * ``DEFAULT_START`` - 1.
    Every other law is refined until stable.
    """

    def integrand(axes, weights):
        p = [_success_probability(model.bias_map, axis) for axis in axes]
        return _mix(table, sizes, p, np.asarray(weights, dtype=float))

    polynomial = model.bias_map is CLAMP and max(sizes) < 2 * DEFAULT_START and _is_clamp_polynomial(measure)
    return _integrate(measure, integrand, polynomial)


def _vote_products(voters: int, p: np.ndarray) -> np.ndarray:
    """Row i is the probability of vote vector i of ``voters`` voters, for every p.

    Bit v of i is set when voter v votes +1.  Each row is built voter by
    voter as a product of factors p (a +1 vote) and 1 - p (a -1 vote):
    vectors h..2h-1 extend vectors 0..h-1 with a +1 vote of voter v, where
    h = 2^v, so each voter's extension is one contiguous block.
    """
    prob = np.empty((1 << voters, len(p)))
    prob[0] = 1.0
    for voter in range(voters):
        h = 1 << voter
        np.multiply(prob[:h], p, out=prob[h : 2 * h])
        prob[:h] *= 1.0 - p
    return prob


@functools.lru_cache(maxsize=BRUTE_FORCE_MAX_N // 2 + 1)
def _low_popcount_onehot(low: int) -> np.ndarray:
    """The read-only (low + 1, 2^low) one-hot of the +1 counts of ``low`` voters' vote vectors."""
    onehot = (np.arange(low + 1)[:, None] == np.bitwise_count(np.arange(1 << low))).astype(float)
    onehot.flags.writeable = False
    return onehot


def _enumerated_count_table(n_g: int, p: np.ndarray) -> np.ndarray:
    """Row q sums the probabilities of all 2^n_g vote vectors of one group by +1 count.

    Every vote vector's probability is formed as a product of per-voter
    factors p[q] (a +1 vote) and 1 - p[q] (a -1 vote), so the count
    distribution arises from enumeration alone, with no binomial coefficients.
    The voters are split into a low and a high half: vector i's probability
    is the product of its high bits' vector and its low bits' vector
    (``_vote_products``), and its +1 count is the sum of the halves'
    popcounts.  The high-half rows are taken in popcount order a, in blocks
    of one popcount each: a block's products ``high[h] * low`` go into one
    preallocated buffer of at most ``ORACLE_BLOCK`` elements (one high row
    alone when 2^(n_g // 2) * len(p) is more), are summed over the block's
    rows, and are binned by the cached (n_g // 2 + 1, 2^(n_g // 2)) one-hot
    of the low half's popcounts into rows a..a + n_g // 2 of the
    count-major table.
    """
    low = n_g // 2
    high_prob, low_prob = _vote_products(n_g - low, p), _vote_products(low, p)
    width = 1 << low
    onehot = _low_popcount_onehot(low)
    rows = max(1, ORACLE_BLOCK // (width * len(p)))
    products = np.empty((rows, width, len(p)))
    high_counts = np.bitwise_count(np.arange(len(high_prob)))
    table = np.zeros((n_g + 1, len(p)))
    for a in range(n_g - low + 1):
        members = high_prob[high_counts == a]
        for h in range(0, len(members), rows):
            high = members[h : h + rows, None]
            block = products[: len(high)]
            np.multiply(high, low_prob, out=block)
            table[a : a + low + 1] += onehot @ block.sum(axis=0)
    return table.T


def brute_force_pmf(model: DeFinettiModel, n: int) -> MarginPmf:
    """Independent oracle: enumerate every one of the 2^n vote configurations.

    Voters are independent given the bias vector, across groups as well as
    within them, so the 2^n configurations are enumerated group by group:
    at every joint quadrature node of mu_n, each of the 2^{n_g} vote
    vectors of group g gets the product of its per-voter factors
    p_g^plus (1 - p_g)^minus, and these are binned into a table over the
    group's +1 count.  The tables are multiplied across groups and summed
    with the node weights.  No binomial coefficients enter.

    Nodes on mu_n's grid share their tables along each axis, so one table
    is enumerated per axis value of p_g and the grid's weights are
    contracted with them: the binomial route's ``_mixed_law``, with this
    table in place of the binomial pmf, so a clamp-biased law over atoms
    and boxes inside [-1, 1] is summed once at ``quadrature.DEFAULT_START``
    nodes here too, and any other is refined.  Only repeats are skipped:
    every table still comes from all 2^{n_g} vote-vector products, so the
    oracle stays independent of the binomial route.  Each table bins its
    vote vectors by the popcounts of their two halves of voters
    (``_enumerated_count_table``), in blocks of at most ``ORACLE_BLOCK``
    products for grids of up to ``ORACLE_BLOCK / 2^(n_g // 2)`` nodes, so
    a law at the size guard needs a few MiB.  Intended to cross-check
    exact_margin_pmf on small instances.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ResourceError(f"brute force enumerates 2^n configurations; n={n} > {BRUTE_FORCE_MAX_N}")
    sizes = model.groups.sizes(n)
    return MarginPmf(sizes, _mixed_law(model, model.mixing_measure(n), sizes, _enumerated_count_table))


# -- sampling -------------------------------------------------------------------

@dataclass(frozen=True)
class MarginSample:
    """A seeded batch of margin vectors with their normalization metadata.

    ``raw`` is a (count, M) array stored group-major (Fortran order): each
    group's column ``raw[:, g]`` is contiguous, since every limit theorem,
    and so every check, reads one group at a time.  Element values do not
    depend on the layout; ``tobytes()`` still gives them sample-major.
    ``normalized`` is not stored: each read divides ``raw`` by ``gamma``.

    ``raw`` is int32 (4 bytes a margin) when every 2 * n_g fits in int32,
    so sums such as ``raw + n_g`` cannot overflow, and int64 (8 bytes)
    otherwise; compare ``raw.astype("<i8")`` to compare bytes across widths.
    Products are not covered: ``raw**2`` overflows int32 once |k| > 46 340
    (``subcritical_base`` has n = 10^6), so widen before multiplying.
    """

    n: int
    group_sizes: tuple[int, ...]
    raw: np.ndarray          # (count, M) int32 or int64 margins, group-major
    gamma: tuple[float, ...]
    regimes: tuple[str, ...]
    seed: int

    @property
    def normalized(self) -> np.ndarray:
        return np.divide(self.raw, self.gamma)  # group-major like raw

    @property
    def count(self) -> int:
        return self.raw.shape[0]

    def to_npy(self, path) -> None:
        """``raw`` as a ``.npy`` file, format 1.0: shape (count, M), its dtype little-endian.

        int32 or int64, in the order it is stored (group-major from
        ``sample_margins``), so the array goes to the file as it lies in
        memory, with no copy and no per-margin work.  Identical samples give
        identical bytes on any host, and ``np.load(path) / gamma`` is
        ``normalized`` bit for bit.
        """
        little = self.raw.astype(self.raw.dtype.newbyteorder("<"), copy=False)
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, little, version=(1, 0))

    def manifest(self) -> dict:
        return {
            "n": self.n,
            "group_sizes": list(self.group_sizes),
            "count": self.count,
            "seed": self.seed,
            "gamma": list(self.gamma),
            "regimes": list(self.regimes),
        }


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Generator for sample block ``block``: child ``(block,)`` of SeedSequence(seed)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def binomial_margins(
    rng: np.random.Generator, sizes: np.ndarray, p: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Margins 2*Binomial(n_g, p_g) - n_g, vectorized over rows of p, written into ``out``.

    The counts are drawn row by row as one broadcast call, as int64; each
    group's column of ``out`` (int32 or int64) is then written with its
    scalar n_g.
    """
    counts = rng.binomial(sizes[None, :], p)
    counts *= 2
    for g, n_g in enumerate(sizes):
        np.subtract(counts[:, g], n_g, out=out[:, g])
    return out


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sample_margins(
    model: DeFinettiModel, n: int, count: int, seed: int, workers: int | None = None
) -> MarginSample:
    """Seeded two-stage sampler: bias from mu_n, then binomial margins.

    Raw margins are stored as int32 when 2 * max(n_g) fits in it, else as
    int64 (see ``MarginSample``); the values do not depend on the width.
    Sampling is split into fixed blocks of ``SAMPLE_BLOCK`` samples whose RNG
    streams depend only on (seed, block index).  Each block draws its biases
    and margins and writes its raw margins into its own rows of one
    preallocated group-major array, one column at a time, so the result is
    bitwise identical for any worker count.  Blocks run on a
    thread pool of ``workers`` threads; by default one per CPU the process
    may use.  Either count is capped at the number of blocks, and a single
    worker runs the blocks with no pool.
    """
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    if workers is not None and workers < 1:
        raise ConfigError("workers must be at least 1")
    sizes = np.asarray(model.groups.sizes(n), dtype=np.int64)
    if count * sizes.size > SAMPLE_GUARD:
        raise ResourceError(f"{count} samples of {sizes.size} group margins exceed the {SAMPLE_GUARD:g}-margin budget")
    measure = model.mixing_measure(n)
    gamma, regimes = model.normalization(n)
    width = np.int32 if 2 * int(sizes.max()) <= np.iinfo(np.int32).max else np.int64
    raw = np.empty((count, sizes.size), dtype=width, order="F")

    def fill(block: int) -> None:
        rows = slice(block * SAMPLE_BLOCK, min((block + 1) * SAMPLE_BLOCK, count))
        rng = block_rng(seed, block)
        m_vals = measure.sample(rng, rows.stop - rows.start)
        p = _success_probability(model.bias_map, m_vals)
        binomial_margins(rng, sizes, p, out=raw[rows])

    blocks = range(-(-count // SAMPLE_BLOCK))
    workers = min(workers or _cpus(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    return MarginSample(
        n=n,
        group_sizes=tuple(int(s) for s in sizes),
        raw=raw,
        gamma=tuple(float(g) for g in gamma),
        regimes=regimes,
        seed=seed,
    )


# -- summary statistics ----------------------------------------------------------

@dataclass(frozen=True)
class AbsMarginEstimate:
    """Per-group expected per-capita absolute margin with an error bound."""

    per_capita: tuple[float, ...]
    standard_error: tuple[float, ...]


def expected_abs_margin(
    model: DeFinettiModel,
    n: int,
    mode: str = "exact",
    count: int | None = None,
    seed: int | None = None,
) -> AbsMarginEstimate:
    """E(|S_g| / n_g) per group, exactly or by seeded Monte Carlo.

    The exact mode sums each group's own law (``group_margin_pmf``), so it
    never builds the joint lattice.
    """
    sizes = model.groups.sizes(n)
    if mode == "exact":
        values = []
        for g, n_g in enumerate(sizes):
            law = group_margin_pmf(model, n, g)
            values.append(float(np.abs(law.margin_axis(0)) @ law.probs) / n_g)
        return AbsMarginEstimate(tuple(values), (0.0,) * len(sizes))
    if mode == "monte-carlo":
        if count is None or seed is None:
            raise ConfigError("monte-carlo mode needs count and seed")
        if count < 2:
            raise ConfigError(f"monte-carlo mode needs count >= 2 for a standard error, got {count}")
        sample = sample_margins(model, n, count, seed)
        means, ses = [], []
        for g, n_g in enumerate(sizes):
            per_cap = np.abs(sample.raw[:, g]) / float(n_g)
            means.append(float(per_cap.mean()))
            ses.append(float(per_cap.std(ddof=1)) / math.sqrt(count))
        return AbsMarginEstimate(tuple(means), tuple(ses))
    raise ConfigError(f"unknown mode {mode!r}; expected 'exact' or 'monte-carlo'")


def pair_correlation(model: DeFinettiModel, n: int) -> np.ndarray:
    """E[m_bar_g^2] per group, which equals the within-group pair correlation.

    Under the conditional product law, E X_g1 X_g2 = E[(E_m X)^2] = E[m_bar^2].
    The moment of group g depends only on coordinate g's marginal of mu_n,
    so it is integrated against that marginal for every measure.
    """
    measure = model.mixing_measure(n)

    def second_moment(axes, weights) -> np.ndarray:
        # a (K, 1) column, so the product is a (1,) array
        m_bar = model.bias_map(axes[0][:, None])
        return np.asarray(weights) @ (m_bar**2)

    return np.concatenate(
        [_integrate(measure.marginal([g]), second_moment) for g in range(measure.dim)]
    )
