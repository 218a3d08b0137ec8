"""Multi-group voting models driven by mixing-measure sequences.

A model couples a group structure, a mixing-measure sequence (static,
contracted toward the origin, or a mean-field coupling), and a bias map.
Conditional on a latent bias vector m the voters flip independent coins
with success probability (1 + m_bar)/2 per group, so group margins are
binomial transforms.  This module provides the exact margin law (atomic
summation or adaptive quadrature), an independent brute-force enumeration
oracle, and a seeded block-parallel Monte Carlo sampler.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceError
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

    def _key(self):
        return ("groups", self.m, self.proportions)


@dataclass(frozen=True)
class StaticSequence:
    """Collective-bias setting: one fixed symmetric mixing measure for every n."""

    base: BaseMeasure

    def __post_init__(self):
        if not self.base.is_symmetric:
            raise ConfigError("a static mixing measure must be symmetric")

    kind = "static"

    def _key(self):
        return ("static", self.base._key())


@dataclass(frozen=True)
class ContractedSequence:
    """Mixing measures mu_n obtained by scaling a fixed base measure by eps_n."""

    base: BaseMeasure
    schedule: object

    kind = "contracted"

    def _key(self):
        return ("contracted", self.base._key(), self.schedule._key())


@dataclass(frozen=True)
class CurieWeissSequence:
    """Mean-field coupling; the mixing measure has density exp(-n F) (see cwm)."""

    coupling: object

    kind = "curie-weiss"

    def _key(self):
        return ("curie-weiss", self.coupling._key())


class DeFinettiModel:
    """A complete voting model: groups, mixing sequence, and bias map."""

    def __init__(self, groups: GroupStructure, sequence, bias_map):
        self.groups = groups
        self.sequence = sequence
        self.bias_map = bias_map
        kind = sequence.kind
        if kind in ("static", "contracted") and sequence.base.dim != groups.m:
            raise ConfigError(
                f"mixing measure dimension {sequence.base.dim} != group count {groups.m}"
            )
        if kind == "contracted" and sequence.schedule.m != groups.m:
            raise ConfigError("schedule group count does not match the model")
        if kind == "curie-weiss":
            if sequence.coupling.m != groups.m:
                raise ConfigError("coupling matrix size does not match the group count")
            if getattr(bias_map, "name", None) != "tanh":
                raise ConfigError("the mean-field model requires the tanh bias map")

    def mixing_measure(self, n: int) -> BaseMeasure:
        """The mixing measure mu_n (static and contracted sequences only)."""
        seq = self.sequence
        if seq.kind == "static":
            return seq.base
        if seq.kind == "contracted":
            sizes = self.groups.sizes(n)
            return seq.base.contract(seq.schedule.eps(n, sizes))
        raise ConfigError("the mean-field mixing measure is a density, not a BaseMeasure")

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

    def _key(self):
        return (self.groups._key(), self.sequence._key(), self.bias_map.name)


# -- margin probability tables -------------------------------------------------

class MarginPmf:
    """Exact joint law of the group margins on their parity lattice.

    Internally an array over count indices j (margin k_g = 2 j_g - n_g);
    ``prob(k)`` (or ``pmf[k]``) takes an integer margin vector of length M
    and gives probability 0 off the lattice.  Any other ``k`` is a
    ConfigError.
    """

    def __init__(self, group_sizes, probs: np.ndarray):
        self.group_sizes = tuple(int(s) for s in group_sizes)
        expected = tuple(s + 1 for s in self.group_sizes)
        if probs.shape != expected:
            raise ValueError(f"probs shape {probs.shape} != lattice shape {expected}")
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

    def __getitem__(self, k) -> float:
        return self.prob(k)

    def total(self) -> float:
        return float(self.probs.sum())

    def reflected(self) -> "MarginPmf":
        """The law of -S; equals self when the model is sign-symmetric."""
        return MarginPmf(self.group_sizes, np.flip(self.probs))

    def max_abs_diff(self, other: "MarginPmf") -> float:
        if self.group_sizes != other.group_sizes:
            raise ValueError("margin laws live on different lattices")
        return float(np.max(np.abs(self.probs - other.probs)))

    def group_marginal(self, g: int) -> np.ndarray:
        axes = tuple(a for a in range(self.m) if a != g)
        return self.probs.sum(axis=axes) if axes else self.probs


def _binom_table(n_g: int, p: np.ndarray) -> np.ndarray:
    """Row q is the Binomial(n_g, p[q]) pmf over 0..n_g counts."""
    from scipy import stats

    return stats.binom.pmf(np.arange(n_g + 1), n_g, p[:, None])


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


def _integrate(measure: BaseMeasure, integrand, tol: float) -> np.ndarray:
    """``integrand(points, weights)`` on mu's nodes: summed once if atomic, else refined."""
    if _is_atomic(measure):
        return integrand(*measure.quad_nodes(0))
    values, _ = refine_until_stable(lambda level: integrand(*measure.quad_nodes(level)), tol=tol)
    return values


def exact_margin_pmf(model: DeFinettiModel, n: int, tol: float = 1e-12) -> MarginPmf:
    """Exact margin law: the conditional binomial law mixed over mu_n.

    Atomic mixing measures are summed exactly; continuous ones use
    Gauss-Legendre nodes doubled until no pmf entry moves by more than
    ``tol``.  When mu_n has independent coordinates (a ``Product``, a
    ``UniformBox`` or a diagonal ``Gaussian``), the bias map, which acts
    componentwise, keeps them independent: the law is the outer product of
    one 1-D mixed binomial law per group.  Any other measure is integrated
    on its joint tensor grid.  Guarded by the lattice-size resource limit.
    """
    sizes = model.groups.sizes(n)
    _guard_lattice(sizes)
    if model.sequence.kind == "curie-weiss":
        from . import cwm

        return cwm.definetti_margin_pmf(model.sequence.coupling, model.groups, n, tol=tol)
    measure = model.mixing_measure(n)

    def mixed_law(mu: BaseMeasure, lattice) -> np.ndarray:
        def integrand(points, weights):
            return _pmf_from_nodes(points, weights, lattice, model.bias_map)

        return _integrate(mu, integrand, tol)

    if _factorizes(measure):
        laws = [mixed_law(measure.marginal([g]), (s,)) for g, s in enumerate(sizes)]
        return MarginPmf(sizes, functools.reduce(np.multiply.outer, laws))
    return MarginPmf(sizes, mixed_law(measure, sizes))


def _enumerated_count_table(n_g: int, p: np.ndarray) -> np.ndarray:
    """Row q sums the probabilities of all 2^n_g vote vectors of one group by +1 count.

    Each vote vector's probability is built voter by voter as a product of
    factors p[q] (a +1 vote) and 1 - p[q] (a -1 vote), so the count
    distribution arises from enumeration alone, with no binomial coefficients.
    The working array is vote-vector-major, (2^n_g, a block of p) with at most
    4e6 elements, so each voter's extension is one contiguous block.
    """
    block = max(1, 4_000_000 >> n_g)
    if len(p) > block:
        return np.vstack([_enumerated_count_table(n_g, p[i : i + block]) for i in range(0, len(p), block)])
    prob = np.empty((1 << n_g, len(p)))
    prob[0] = 1.0
    plus = np.zeros(1 << n_g, dtype=np.int64)
    for voter in range(n_g):
        # vectors h..2h-1 extend vectors 0..h-1 with a +1 vote of this voter
        h = 1 << voter
        np.multiply(prob[:h], p, out=prob[h : 2 * h])
        prob[:h] *= 1.0 - p
        plus[h : 2 * h] = plus[:h] + 1
    return prob.T @ (plus[:, None] == np.arange(n_g + 1)).astype(float)


def brute_force_pmf(model: DeFinettiModel, n: int, tol: float = 1e-12) -> MarginPmf:
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

    if model.sequence.kind == "curie-weiss":
        from . import cwm

        surface = cwm.free_energy_surface(model.sequence.coupling, model.groups, n)

        def at_level(level: int) -> np.ndarray:
            points, weights = surface.quad_nodes(level)
            return accumulate(points, weights / weights.sum())

        probs, _ = refine_until_stable(at_level, tol=tol)
        return MarginPmf(sizes, probs)

    return MarginPmf(sizes, _integrate(model.mixing_measure(n), accumulate, tol))


# -- sampling -------------------------------------------------------------------

@dataclass(frozen=True)
class MarginSample:
    """A seeded batch of margin vectors with their normalization metadata."""

    n: int
    group_sizes: tuple[int, ...]
    raw: np.ndarray          # (count, M) integer margins
    normalized: np.ndarray   # raw / gamma
    gamma: tuple[float, ...]
    regimes: tuple[str, ...]
    seed: int

    @property
    def count(self) -> int:
        return self.raw.shape[0]

    def to_csv(self, path) -> None:
        """Columnar long-format CSV: sample_index, group, raw_margin, normalized_margin.

        One row per (sample, group), in sample-major order, with CRLF line
        ends and ``repr`` floats (the bytes of ``csv.writer``); written
        ``CSV_CHUNK`` samples at a time so memory stays bounded.  Within a
        chunk each distinct float64 bit pattern of ``normalized`` is
        ``repr``-ed once: margins live on a lattice, so a chunk of a large
        group repeats few values.
        """
        m = len(self.group_sizes)
        with open(path, "w", newline="") as fh:
            fh.write("sample_index,group,raw_margin,normalized_margin\r\n")
            for start in range(0, self.count, CSV_CHUNK):
                stop = min(start + CSV_CHUNK, self.count)
                chunk = np.ascontiguousarray(self.normalized[start:stop], dtype=np.float64)
                keys, inverse = np.unique(chunk.reshape(-1).view(np.int64), return_inverse=True)
                texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
                fh.write("".join(map(
                    "{},{},{},{}\r\n".format,
                    np.repeat(np.arange(start, stop), m).tolist(),
                    np.tile(np.arange(m), stop - start).tolist(),
                    self.raw[start:stop].astype(np.int64).reshape(-1).tolist(),
                    texts[inverse].tolist(),
                )))

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


def _block_sizes(count: int) -> list[int]:
    full, rest = divmod(count, SAMPLE_BLOCK)
    return [SAMPLE_BLOCK] * full + ([rest] if rest else [])


def binomial_margins(rng: np.random.Generator, sizes: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Margins 2*Binomial(n_g, p_g) - n_g, vectorized over rows of p."""
    return 2 * rng.binomial(sizes[None, :], p) - sizes[None, :]


def _sample_blocks(draw, seed: int, count: int, workers: int) -> np.ndarray:
    """Stack ``draw(block_rng(seed, j), size_j)`` over the fixed blocks of ``count``.

    Blocks may run on a thread pool; each depends only on its own stream,
    so the stacked result is the same for every worker count.
    """

    def job(args) -> np.ndarray:
        block, block_count = args
        return draw(block_rng(seed, block), block_count)

    jobs = list(enumerate(_block_sizes(count)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.vstack(list(pool.map(job, jobs)))
    return np.vstack([job(j) for j in jobs])


def sample_margins(
    model: DeFinettiModel, n: int, count: int, seed: int, workers: int = 1
) -> MarginSample:
    """Seeded two-stage sampler: bias from mu_n, then binomial margins.

    Sampling is split into fixed-size blocks whose RNG streams depend only
    on (seed, block index), so the result is bitwise identical for any
    worker count.
    """
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    if model.sequence.kind == "curie-weiss":
        from . import cwm

        return cwm.sample_cwm_margins(
            model.sequence.coupling, model.groups, n, count, seed, workers=workers
        )
    sizes = np.asarray(model.groups.sizes(n), dtype=np.int64)
    measure = model.mixing_measure(n)

    def draw(rng, block_count) -> np.ndarray:
        m_vals = measure.sample(rng, block_count)
        p = 0.5 * (1.0 + apply_bias_map(model.bias_map, m_vals))
        return binomial_margins(rng, sizes, p)

    raw = _sample_blocks(draw, seed, count, workers)
    gamma, regimes = model.normalization(n)
    return MarginSample(
        n=n,
        group_sizes=tuple(int(s) for s in sizes),
        raw=raw,
        normalized=raw / gamma,
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
    """E(|S_g| / n_g) per group, exactly or by seeded Monte Carlo."""
    sizes = model.groups.sizes(n)
    if mode == "exact":
        pmf = exact_margin_pmf(model, n)
        values = []
        for g, n_g in enumerate(sizes):
            marg = pmf.group_marginal(g)
            values.append(float(np.abs(pmf.margin_axis(g)) @ marg) / n_g)
        return AbsMarginEstimate(tuple(values), (0.0,) * len(sizes), "exact")
    if mode == "monte-carlo":
        if count is None or seed is None:
            raise ConfigError("monte-carlo mode needs count and seed")
        sample = sample_margins(model, n, count, seed)
        per_cap = np.abs(sample.raw) / np.asarray(sizes, dtype=float)
        means = per_cap.mean(axis=0)
        ses = per_cap.std(axis=0, ddof=1) / math.sqrt(count)
        return AbsMarginEstimate(
            tuple(float(v) for v in means), tuple(float(s) for s in ses), "monte-carlo"
        )
    raise ConfigError(f"unknown mode {mode!r}; expected 'exact' or 'monte-carlo'")


def pair_correlation(model: DeFinettiModel, n: int, tol: float = 1e-12) -> np.ndarray:
    """E[m_bar_g^2] per group, which equals the within-group pair correlation.

    Under the conditional product law, E X_g1 X_g2 = E[(E_m X)^2] = E[m_bar^2].
    The moment of group g depends only on coordinate g's marginal of mu_n,
    so it is integrated in one dimension for every measure.
    """
    if model.sequence.kind == "curie-weiss":
        from . import cwm

        return cwm.pair_correlation(model.sequence.coupling, model.groups, n, tol=tol)
    measure = model.mixing_measure(n)

    def second_moment(points, weights) -> np.ndarray:
        m_bar = apply_bias_map(model.bias_map, points)
        return np.asarray(weights) @ (m_bar**2)

    return np.concatenate(
        [_integrate(measure.marginal([g]), second_moment, tol) for g in range(measure.dim)]
    )
