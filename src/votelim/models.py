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
    apply_bias_map,
)
from .quadrature import refine_until_stable

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

#: samples per write in MarginSample.to_csv
CSV_CHUNK = 8192


class GroupStructure:
    """Fixed group count with proportions resolved to integer sizes.

    Sizes come from largest-remainder rounding of ``proportions * n`` with a
    floor of 2 per group (so pair correlations are always defined), repaired
    so that the sizes sum to n exactly.
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
        self.m = m
        self.proportions = tuple(float(p) for p in props)

    def sizes(self, n: int) -> tuple[int, ...]:
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


class DeFinettiModel:
    """A complete voting model: groups, mixing sequence, and bias map.

    The sequence checks that it fits the groups and the bias map, and
    builds mu_n: anything with ``dim``, ``quad_nodes(level)`` (weights of
    total mass 1), ``marginal(coords)`` and ``sample(rng, count)``.
    """

    def __init__(self, groups: GroupStructure, sequence, bias_map):
        sequence.validate(groups, bias_map)
        self.groups = groups
        self.sequence = sequence
        self.bias_map = bias_map

    def mixing_measure(self, n: int):
        """The mixing measure mu_n at population n."""
        return self.sequence.mixing_measure(self.groups, n)

    def normalization(self, n: int) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-group margin divisor gamma and regime tags.

        Fast/critical groups use sqrt(n_g); subcritical groups use eps * n_g,
        which is the divisor under which their margins keep a nondegenerate
        limit.  Static and mean-field models are reported in sqrt(n_g) units.
        """
        sizes = np.asarray(self.groups.sizes(n), dtype=float)
        seq = self.sequence
        if seq.kind == "contracted":
            regimes = seq.schedule.regimes()
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

    Internally an array over count indices j (margin k_g = 2 j_g - n_g);
    ``prob(k)`` takes an integer margin vector of length M and gives
    probability 0 off the lattice.  Any other ``k`` is a ConfigError.
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

    def prob(self, k) -> float:
        k = np.atleast_1d(np.asarray(k))
        if k.shape != (self.m,):
            raise ConfigError(f"margin vector must have length {self.m}, got shape {k.shape}")
        integral = k.dtype.kind in "iu" or (
            k.dtype.kind == "f" and bool(np.all(np.isfinite(k) & (k == np.floor(k))))
        )
        if not integral:
            raise ConfigError(f"margin vector entries must be integers, got {k.tolist()}")
        idx = []
        for g, n_g in enumerate(self.group_sizes):
            if abs(int(k[g])) > n_g or (int(k[g]) + n_g) % 2 != 0:
                return 0.0
            idx.append((int(k[g]) + n_g) // 2)
        return float(self.probs[tuple(idx)])

    def total(self) -> float:
        return float(self.probs.sum())

    def reflected(self) -> "MarginPmf":
        """The law of -S; equals self when the model is sign-symmetric."""
        return MarginPmf(self.group_sizes, np.flip(self.probs))

    def max_abs_diff(self, other: "MarginPmf") -> float:
        if self.group_sizes != other.group_sizes:
            raise DataError("margin laws live on different lattices")
        return float(np.max(np.abs(self.probs - other.probs)))

    def group_marginal(self, g: int) -> np.ndarray:
        axes = tuple(a for a in range(self.m) if a != g)
        return self.probs.sum(axis=axes) if axes else self.probs


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


#: most elements one exact-layer contraction may hold at once: its dense
#: weight array, a partial contraction or a group's table.  Larger node sets
#: are halved until each part fits; a single node always proceeds.
MIX_BUDGET = 2_000_000


def _mix(table, sizes, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_q weights[q] * prod_g table(n_g, p[q, g])[j_g], an array over (j_1, ..., j_M).

    Nodes that share every coordinate have equal table products, so their
    weights are binned first into a dense array over the distinct values of
    each coordinate (with M = 1 each node is its own cell).  That array is
    contracted with one table per group, built once per distinct value.
    Against the per-node sum only the summation order changes.
    """
    rows = [s + 1 for s in sizes]
    many = len(sizes) > 1
    cells = [np.unique(c, return_inverse=True) if many else (c, None) for c in p.T]
    dims = [len(values) for values, _ in cells]
    arrays = [math.prod(dims[: g + 1] + rows[g + 1 :]) for g in range(len(dims))]
    if len(weights) > 1 and max(arrays + [k * r for k, r in zip(dims, rows)]) > MIX_BUDGET:
        h = len(weights) // 2
        return _mix(table, sizes, p[:h], weights[:h]) + _mix(table, sizes, p[h:], weights[h:])
    dense = weights
    if many:
        index = np.ravel_multi_index([inverse for _, inverse in cells], dims)
        dense = np.bincount(index, weights=weights, minlength=math.prod(dims)).reshape(dims)
    for g in reversed(range(len(sizes))):
        # the last cell axis contracts without a copy; count axes come out reversed
        dense = np.tensordot(dense, table(sizes[g], cells[g][0]), axes=(g, 0))
    return np.ascontiguousarray(dense.transpose())


def _pmf_from_nodes(points, weights, sizes, bmap) -> np.ndarray:
    """Mix conditional binomial laws over weighted bias nodes."""
    p = 0.5 * (1.0 + apply_bias_map(bmap, points))
    return _mix(_binom_table, sizes, p, np.asarray(weights, dtype=float))


def conditional_margin_pmf(m, groups: GroupStructure, n: int) -> MarginPmf:
    """Joint margin law under the conditional product measure at bias m.

    ``m`` is the post-bias-map vector in [-1, 1]^M; per group the count of
    +1 votes is Binomial(n_g, (1 + m_g)/2) and the margin is 2*count - n_g.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.shape != (groups.m,):
        raise ConfigError(f"bias vector must have length {groups.m}")
    if np.any(np.abs(m) > 1.0):
        raise ConfigError("conditional bias must lie in [-1, 1] per component")
    sizes = groups.sizes(n)
    _guard_lattice(sizes)
    # CLAMP is the identity on the [-1, 1] checked above
    probs = _pmf_from_nodes(m[None, :], np.array([1.0]), sizes, CLAMP)
    return MarginPmf(sizes, probs)


def _guard_lattice(sizes) -> None:
    if math.prod(s + 1 for s in sizes) > LATTICE_GUARD:
        raise ResourceError(
            f"margin lattice with sizes {tuple(sizes)} exceeds {LATTICE_GUARD:g} entries"
        )


def _is_atomic(measure: BaseMeasure) -> bool:
    if isinstance(measure, PointMassMixture):
        return True
    if isinstance(measure, Product):
        return all(_is_atomic(f) for f in measure.factors)
    if isinstance(measure, Mixture):
        return all(_is_atomic(c) for c in measure.components)
    return False


def _factorizes(measure: BaseMeasure) -> bool:
    """True if the measure's type makes its coordinates independent."""
    if isinstance(measure, (Product, UniformBox)):
        return True
    if isinstance(measure, Gaussian):
        cov = measure.covariance
        return not np.any(cov[~np.eye(measure.dim, dtype=bool)])
    return False


def _integrate(measure, integrand) -> np.ndarray:
    """``integrand(points, weights)`` on mu's nodes: summed once if atomic, else refined."""
    if _is_atomic(measure):
        return integrand(*measure.quad_nodes(0))
    values, _ = refine_until_stable(lambda level: integrand(*measure.quad_nodes(level)))
    return values


def exact_margin_pmf(model: DeFinettiModel, n: int) -> MarginPmf:
    """Exact margin law: the conditional binomial law mixed over mu_n.

    Atomic mixing measures are summed exactly; continuous ones use
    Gauss-Legendre nodes doubled until no pmf entry moves by more than
    ``quadrature.DEFAULT_TOL``.  When mu_n has independent coordinates (a ``Product``, a
    ``UniformBox`` or a diagonal ``Gaussian``), the bias map, which acts
    componentwise, keeps them independent: the law is the outer product of
    one 1-D mixed binomial law per group.  Any other measure, the mean-field
    density among them, is integrated on its joint grid.  Guarded by the
    lattice-size resource limit.
    """
    sizes = model.groups.sizes(n)
    _guard_lattice(sizes)
    measure = model.mixing_measure(n)
    if _factorizes(measure):
        laws = [group_margin_pmf(model, n, g).probs for g in range(len(sizes))]
        return MarginPmf(sizes, functools.reduce(np.multiply.outer, laws))
    return MarginPmf(sizes, _mixed_law(model, measure, sizes))


def group_margin_pmf(model: DeFinettiModel, n: int, g: int) -> MarginPmf:
    """Exact law of group g's margin alone, a one-group ``MarginPmf``.

    The bias map acts componentwise, so S_g depends on mu_n only through
    its coordinate-g marginal: the law is the 1-D mixed binomial law over
    ``mu_n.marginal([g])``, guarded by the lattice limit on n_g + 1 entries
    rather than on the whole joint lattice.
    """
    n_g = model.groups.sizes(n)[g]
    _guard_lattice((n_g,))
    return MarginPmf((n_g,), _mixed_law(model, model.mixing_measure(n).marginal([g]), (n_g,)))


def _mixed_law(model: DeFinettiModel, measure, sizes) -> np.ndarray:
    """The conditional binomial law on the ``sizes`` lattice mixed over ``measure``."""

    def integrand(points, weights):
        return _pmf_from_nodes(points, weights, sizes, model.bias_map)

    return _integrate(measure, integrand)


def _enumerated_count_table(n_g: int, p: np.ndarray) -> np.ndarray:
    """Row q sums the probabilities of all 2^n_g vote vectors of one group by +1 count.

    Each vote vector's probability is built voter by voter as a product of
    factors p[q] (a +1 vote) and 1 - p[q] (a -1 vote), so the count
    distribution arises from enumeration alone, with no binomial coefficients.
    The working array is vote-vector-major, (2^n_g, a block of p) with at most
    4e6 elements, so each voter's extension is one contiguous block.  Bit v
    of a vector's index is set when voter v votes +1, so the vectors are
    binned by the popcount of their index, against a one-hot matrix built
    for at most 4e6 / (n_g + 1) vectors at a time.
    """
    block = max(1, 4_000_000 >> n_g)
    if len(p) > block:
        return np.vstack([_enumerated_count_table(n_g, p[i : i + block]) for i in range(0, len(p), block)])
    prob = np.empty((1 << n_g, len(p)))
    prob[0] = 1.0
    for voter in range(n_g):
        # vectors h..2h-1 extend vectors 0..h-1 with a +1 vote of this voter
        h = 1 << voter
        np.multiply(prob[:h], p, out=prob[h : 2 * h])
        prob[:h] *= 1.0 - p
    rows = max(1, 4_000_000 // (n_g + 1))
    table = 0.0
    for r in range(0, 1 << n_g, rows):
        plus = np.bitwise_count(np.arange(r, min(r + rows, 1 << n_g)))
        table = table + prob[r : r + rows].T @ (plus[:, None] == np.arange(n_g + 1)).astype(float)
    return table


def brute_force_pmf(model: DeFinettiModel, n: int) -> MarginPmf:
    """Independent oracle: enumerate every one of the 2^n vote configurations.

    Voters are independent given the bias vector, across groups as well as
    within them, so the 2^n configurations are enumerated group by group:
    at every joint quadrature node of mu_n, each of the 2^{n_g} vote
    vectors of group g gets the product of its per-voter factors
    p_g^plus (1 - p_g)^minus, and these are binned into a table over the
    group's +1 count.  The tables are multiplied across groups and summed
    with the node weights.  No binomial coefficients enter.

    Nodes that share every coordinate share every table, so their weights
    are binned first into a dense array over each group's distinct values
    of p_g, and that array is contracted with one table per group (the
    step the binomial route uses too).  Only repeats are skipped: every
    table still comes from all 2^{n_g} vote-vector products, so the oracle
    stays independent of the binomial route.  Intended to cross-check
    exact_margin_pmf on small instances.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ResourceError(f"brute force enumerates 2^n configurations; n={n} > {BRUTE_FORCE_MAX_N}")
    sizes = model.groups.sizes(n)

    def accumulate(points, weights) -> np.ndarray:
        p = 0.5 * (1.0 + apply_bias_map(model.bias_map, points))
        return _mix(_enumerated_count_table, sizes, p, np.asarray(weights, dtype=float))

    return MarginPmf(sizes, _integrate(model.mixing_measure(n), accumulate))


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

    def to_csv(self, path) -> None:
        """Columnar long-format CSV: sample_index, group, raw_margin, normalized_margin.

        One row per (sample, group), in sample-major order, with CRLF line
        ends and ``repr`` floats: the bytes of ``csv.writer``, so identical
        samples give identical files.  Written ``CSV_CHUNK`` samples at a
        time, so memory stays bounded, with no Python call per row.  A raw
        margin k of group g fixes the rest of its row, ``,g,k,k/gamma_g``,
        so within a chunk each group's column is reduced to its distinct
        margins (a chunk of a large group repeats few lattice values), each
        row tail is formatted once and scattered back beside the formatted
        sample indices, and the chunk is joined into one string.
        """
        m = len(self.group_sizes)
        with open(path, "w", newline="") as fh:
            fh.write("sample_index,group,raw_margin,normalized_margin\r\n")
            for start in range(0, self.count, CSV_CHUNK):
                stop = min(start + CSV_CHUNK, self.count)
                cells = np.empty((stop - start, m, 2), dtype=object)
                cells[:, :, 0] = np.fromiter(map(repr, range(start, stop)), object, stop - start)[:, None]
                for g, gamma_g in enumerate(self.gamma):
                    # int / float rounds as numpy's int64 -> float64 divide does
                    margins, inverse = np.unique(self.raw[start:stop, g], return_inverse=True)
                    tails = [f",{g},{k!r},{k / gamma_g!r}\r\n" for k in margins.tolist()]
                    cells[:, g, 1] = np.fromiter(tails, object, len(tails))[inverse]
                fh.write("".join(cells.reshape(-1).tolist()))

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
        p = 0.5 * (1.0 + apply_bias_map(model.bias_map, m_vals))
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
    mode: str


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
        return AbsMarginEstimate(tuple(values), (0.0,) * len(sizes), "exact")
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
        return AbsMarginEstimate(tuple(means), tuple(ses), "monte-carlo")
    raise ConfigError(f"unknown mode {mode!r}; expected 'exact' or 'monte-carlo'")


def pair_correlation(model: DeFinettiModel, n: int) -> np.ndarray:
    """E[m_bar_g^2] per group, which equals the within-group pair correlation.

    Under the conditional product law, E X_g1 X_g2 = E[(E_m X)^2] = E[m_bar^2].
    The moment of group g depends only on coordinate g's marginal of mu_n,
    so it is integrated against that marginal for every measure.
    """
    measure = model.mixing_measure(n)

    def second_moment(points, weights) -> np.ndarray:
        m_bar = apply_bias_map(model.bias_map, points)
        return np.asarray(weights) @ (m_bar**2)

    return np.concatenate(
        [_integrate(measure.marginal([g]), second_moment) for g in range(measure.dim)]
    )
