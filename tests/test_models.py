import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import sys
import tracemalloc
import types
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from votelim import (
    CLAMP,
    TANH,
    ConfigError,
    ContractedSequence,
    CouplingSpec,
    CurieWeissSequence,
    DataError,
    DeFinettiModel,
    ExplicitSchedule,
    Gaussian,
    GroupStructure,
    Mixture,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    ResourceError,
    StaticSequence,
    UniformBox,
    brute_force_pmf,
    conditional_margin_pmf,
    exact_margin_pmf,
    expected_abs_margin,
    group_margin_pmf,
    pair_correlation,
    sample_margins,
)
from votelim import models
from votelim.config import load_config
from votelim.measures import apply_bias_map
from votelim.models import CSV_CHUNK, SAMPLE_BLOCK, MarginPmf, MarginSample
from votelim.quadrature import refine_until_stable
from conftest import (
    GAUSS_1,
    GROUPS_1,
    GROUPS_2,
    UNIFORM_1,
    contracted,
    multinomial_tv_quantile,
    oracle_matrix,
    sample_tv,
    static_delta0,
    symmetric_gaussians_1d,
    symmetric_measures_1d,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# -- group structure -----------------------------------------------------------

def test_sizes_sum_to_n_and_respect_floor():
    groups = GroupStructure(3, [0.6, 0.3, 0.1])
    for n in (6, 7, 10, 23, 100, 101):
        sizes = groups.sizes(n)
        assert sum(sizes) == n
        assert all(s >= 2 for s in sizes)


def test_largest_remainder_example():
    groups = GroupStructure(2, [0.5, 0.5])
    assert groups.sizes(9) == (5, 4)  # tie broken toward the first group


def test_sizes_reject_tiny_populations():
    with pytest.raises(ConfigError):
        GroupStructure(3, [1 / 3] * 3).sizes(5)


def test_proportions_validated():
    with pytest.raises(ConfigError):
        GroupStructure(2, [0.7, 0.7])
    with pytest.raises(ConfigError):
        GroupStructure(2, [1.2, -0.2])


# -- conditional margin law ------------------------------------------------------

def enumerate_conditional_pmf(m, n):
    """Oracle: walk all 2^n vote vectors for one group at bias m."""
    p = (1.0 + m) / 2.0
    out = {}
    for votes in itertools.product([-1, 1], repeat=n):
        prob = math.prod(p if v == 1 else 1.0 - p for v in votes)
        k = sum(votes)
        out[k] = out.get(k, 0.0) + prob
    return out


def test_conditional_pmf_matches_enumeration():
    pmf = conditional_margin_pmf([0.5], GROUPS_1, 4)
    oracle = enumerate_conditional_pmf(0.5, 4)
    for k, prob in oracle.items():
        assert pmf.prob([k]) == pytest.approx(prob, abs=1e-14)
    assert pmf.prob([2]) == pytest.approx(27.0 / 64.0, abs=1e-14)


def test_conditional_pmf_fair_coins():
    assert conditional_margin_pmf([0.0], GROUPS_1, 2).prob([0]) == pytest.approx(0.5)


def test_conditional_pmf_degenerate_bias():
    assert conditional_margin_pmf([1.0], GROUPS_1, 10).prob([10]) == 1.0


def test_conditional_pmf_off_lattice_is_zero():
    pmf = conditional_margin_pmf([0.3], GROUPS_1, 4)
    assert pmf.prob([3]) == 0.0  # wrong parity
    assert pmf.prob([6]) == 0.0  # out of range


def test_conditional_pmf_sums_to_one():
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [[1, 1, 7], [1.5, 1], [1]], ids=["long", "fractional", "short"])
def test_margin_pmf_rejects_malformed_margin_vectors(k):
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    with pytest.raises(ConfigError):
        pmf.prob(k)


def test_margin_pmf_rejects_a_table_off_its_lattice():
    with pytest.raises(DataError, match="lattice shape"):
        MarginPmf((4, 2), np.zeros((5, 2)))


def test_margin_pmf_difference_needs_one_lattice():
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    with pytest.raises(DataError, match="different lattices"):
        pmf.max_abs_diff(conditional_margin_pmf([0.3, -0.6], GROUPS_2, 12))


def test_conditional_pmf_rejects_bias_outside_range():
    with pytest.raises(ConfigError):
        conditional_margin_pmf([1.5], GROUPS_1, 4)


BINOM_SIZES = [*range(41), 100, 5000, 10**4, 10**5]
BINOM_PS = np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, 1e-9, 0.3, 0.999])


@pytest.mark.parametrize("hide_ufunc", [False, True], ids=["ufunc", "stats-fallback"])
def test_binomial_table_equals_scipy_stats_bit_for_bit(monkeypatch, hide_ufunc):
    from scipy import stats

    expected = [stats.binom.pmf(np.arange(n + 1), n, BINOM_PS[:, None]) for n in BINOM_SIZES]
    if hide_ufunc:
        # a stand-in module: scipy.stats keeps its own reference to the real
        # one, which deleting the attribute would break as well
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", types.ModuleType("_ufuncs"))
        with pytest.raises(ImportError):
            from scipy.special._ufuncs import _binom_pmf  # noqa: F401
    for n, table in zip(BINOM_SIZES, expected):
        assert np.array_equal(models._binom_table(n, BINOM_PS), table), n


# -- exact margin law ----------------------------------------------------------------

def test_static_delta0_n2():
    pmf = exact_margin_pmf(static_delta0(), 2)
    assert pmf.prob([-2]) == pytest.approx(0.25, abs=1e-14)
    assert pmf.prob([0]) == pytest.approx(0.5, abs=1e-14)
    assert pmf.prob([2]) == pytest.approx(0.25, abs=1e-14)


def test_static_unit_atoms_are_unanimous():
    base = PointMassMixture([([-1.0], 0.5), ([1.0], 0.5)])
    model = DeFinettiModel(GROUPS_1, StaticSequence(base), CLAMP)
    pmf = exact_margin_pmf(model, 3)
    assert pmf.prob([-3]) == pytest.approx(0.5, abs=1e-14)
    assert pmf.prob([3]) == pytest.approx(0.5, abs=1e-14)
    assert pmf.prob([1]) == 0.0


def test_contracted_uniform_matches_brute_force_at_fixed_eps():
    schedule = ExplicitSchedule({4: [0.1]}, ["fast"])
    model = DeFinettiModel(GROUPS_1, ContractedSequence(UNIFORM_1, schedule), CLAMP)
    exact = exact_margin_pmf(model, 4)
    brute = brute_force_pmf(model, 4)
    assert exact.max_abs_diff(brute) < 1e-10


def test_static_sequence_requires_symmetric_base():
    with pytest.raises(ConfigError):
        StaticSequence(UniformBox([0.0], [1.0]))


def test_static_sequence_accepts_atoms_split_at_one_location():
    # the two atoms at -1 weigh as much as the one at +1, so the measure is symmetric
    base = PointMassMixture([([-1.0], 0.25), ([-1.0], 0.25), ([1.0], 0.5)])
    assert base.is_symmetric
    StaticSequence(base)


def test_static_sequence_accepts_products_and_mixtures_of_rounded_weights():
    # 0.1 + 0.2 sums to 0.30000000000000004, the weight of the image's atom at -1 is 0.3
    rounded = PointMassMixture([([-1.0], 0.1), ([-1.0], 0.2), ([1.0], 0.3), ([0.0], 0.4)])
    box = UniformBox([-1.0], [1.0])
    for base in (rounded, Product([rounded, box]), Mixture([(rounded, 0.5), (box, 0.5)])):
        assert base.is_symmetric
        StaticSequence(base)
    # a component split in two merges like an atom
    left, right = UniformBox([-1.0], [0.0]), UniformBox([0.0], [1.0])
    StaticSequence(Mixture([(left, 0.25), (left, 0.25), (right, 0.5)]))


def test_static_sequence_rejects_mixture_weights_apart_by_more_than_the_tolerance():
    lopsided = Mixture([(UniformBox([-1.0], [0.0]), 0.5 + 1e-9),
                        (UniformBox([0.0], [1.0]), 0.5 - 1e-9)])
    assert not lopsided.is_symmetric
    with pytest.raises(ConfigError, match="symmetric"):
        StaticSequence(lopsided)
    with pytest.raises(ConfigError, match="symmetric"):
        StaticSequence(Product([lopsided, UniformBox([-1.0], [1.0])]))


# -- brute force oracle -----------------------------------------------------------------

def test_brute_force_binomial_counts():
    pmf = brute_force_pmf(static_delta0(), 4)
    expected = {-4: 1 / 16, -2: 4 / 16, 0: 6 / 16, 2: 4 / 16, 4: 1 / 16}
    for k, prob in expected.items():
        assert pmf.prob([k]) == pytest.approx(prob, abs=1e-14)


def test_brute_force_gaussian_tanh_agrees_with_exact():
    model = contracted(GAUSS_1, 0.5, bias=TANH)
    assert exact_margin_pmf(model, 8).max_abs_diff(brute_force_pmf(model, 8)) < 1e-10


def test_brute_force_guard():
    with pytest.raises(ResourceError):
        brute_force_pmf(static_delta0(), 21)


def test_brute_force_at_the_size_guard_bins_within_the_block_budget():
    # one (2^20, 21) one-hot matrix for the count binning would take 176 MB;
    # only the brute force runs inside the trace; the exact law is its reference
    n = models.BRUTE_FORCE_MAX_N
    exact = exact_margin_pmf(static_delta0(), n)
    tracemalloc.start()
    try:
        brute = brute_force_pmf(static_delta0(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact.max_abs_diff(brute) < 1e-15
    assert peak < 64 * 2**20


def test_lattice_guard():
    groups = GroupStructure(2, [0.5, 0.5])
    base = PointMassMixture([([0.0, 0.0], 1.0)])
    model = DeFinettiModel(groups, StaticSequence(base), CLAMP)
    with pytest.raises(ResourceError):
        exact_margin_pmf(model, 10**4)  # (5001)^2 lattice entries


@given(symmetric_measures_1d(), st.integers(2, 10))
@settings(max_examples=25, deadline=None)
def test_sign_symmetry_of_margin_law(base, n):
    model = DeFinettiModel(GROUPS_1, StaticSequence(base), CLAMP)
    pmf = exact_margin_pmf(model, n)
    assert pmf.max_abs_diff(pmf.reflected()) < 1e-10
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)


@given(symmetric_gaussians_1d(), st.integers(2, 10))
@settings(max_examples=15, deadline=None)
def test_sign_symmetry_with_gaussian_base_and_tanh(base, n):
    model = DeFinettiModel(GROUPS_1, StaticSequence(base), TANH)
    pmf = exact_margin_pmf(model, n)
    assert pmf.max_abs_diff(pmf.reflected()) < 1e-10
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)


def test_two_group_symmetric_model_symmetry():
    model = contracted(UniformBox([-1, -1], [1, 1]), 0.5, groups=GROUPS_2)
    pmf = exact_margin_pmf(model, 12)
    assert pmf.max_abs_diff(pmf.reflected()) < 1e-10


# -- sampling ------------------------------------------------------------------------------

def test_sample_margins_deterministic_and_parity():
    model = static_delta0()
    a = sample_margins(model, 101, 4000, 42)
    b = sample_margins(model, 101, 4000, 42)
    assert np.array_equal(a.raw, b.raw)
    assert np.all((a.raw[:, 0] + 101) % 2 == 0)
    assert np.all(np.abs(a.raw[:, 0]) <= 101)


def test_sample_margins_worker_invariance():
    # blocks write disjoint rows of shared arrays: switch threads often, with
    # more threads than cores, so a block writing outside its rows would show
    model = contracted(UNIFORM_1, 0.75)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        default = sample_margins(model, 1000, 30000, 9)
        for workers in (1, 8):
            other = sample_margins(model, 1000, 30000, 9, workers=workers)
            assert np.array_equal(default.raw, other.raw)
            assert default.normalized.tobytes() == other.normalized.tobytes()
    finally:
        sys.setswitchinterval(interval)


#: sha256 of (raw.astype("<i8").tobytes(), normalized.tobytes()) of a
#: two-block sample at n = 2000, seed 11; tobytes() is sample-major whatever
#: the storage order, and the cast fixes the width raw is stored at, so these
#: pin every element and the RNG draw order of each model
_SAMPLE_PINS = {
    "box-m2": ("d6b29f9ff33477082a76a6d21bad4a864cda889b97e6b48c5a4d9247ebf6aa94",
               "8fbcaa9decca9413403b5fc4d90ea0e8e891b2ea2d2b4f6f13579b4714e62107"),
    "product-m3": ("0849653967772c2f2062947212600118a075773ec1248e5b1d963a6a33cb5832",
                   "5f1f954a12a32f26df2ff3603f781bcf96454cccac041d52de9ff15907fbd16c"),
}


def _layout_models():
    groups_3 = GroupStructure(3, [0.25, 0.25, 0.5])
    product = Product([UNIFORM_1, GAUSS_1, UniformBox([-0.5], [2.0])])
    return {
        "box-m1": contracted(UNIFORM_1, 0.15),
        "box-m2": contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75, groups=GROUPS_2),
        "product-m3": DeFinettiModel(groups_3, ContractedSequence(
            product, PowerLawSchedule([1.0, 1.0, 1.0], [0.75, 0.5, 0.15])), TANH),
        "gaussian-m2": contracted(Gaussian([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]]), 0.5, bias=TANH),
        "mean-field-m2": DeFinettiModel(
            GROUPS_2, CurieWeissSequence(CouplingSpec([[0.5, 0.2], [0.2, 0.5]])), TANH),
    }


@pytest.mark.parametrize("name", sorted(_SAMPLE_PINS))
def test_multi_group_sample_bytes_pinned(name):
    sample = sample_margins(_layout_models()[name], 2000, SAMPLE_BLOCK + 100, 11)
    arrays = (sample.raw.astype("<i8"), sample.normalized)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert digests == _SAMPLE_PINS[name]


def test_raw_margins_are_int32_while_twice_every_group_size_fits():
    # every population a shipped config samples
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = load_config(path)
        doc = cfg.raw
        for n in [doc["n"]] if "n" in doc else doc["n_grid"] + doc.get("concentration_grid", []):
            assert sample_margins(cfg.model, n, 2, 1).raw.dtype == np.int32, (path.name, n)
    # the widest int32 case: raw + n_g reaches 2 * n_g = 2^31 - 2 without wrapping
    n_g = 2**30 - 1
    edge = sample_margins(contracted(UNIFORM_1, 0.5), n_g, 1000, 4)
    assert edge.raw.dtype == np.int32
    index = (edge.raw[:, 0] + n_g) // 2
    assert np.all((index >= 0) & (index <= n_g))
    assert np.array_equal(index, (edge.raw[:, 0].astype(np.int64) + n_g) // 2)
    # from n_g = 2^30 on, 2 * n_g does not fit
    for n in (2**30, 2**31):
        wide = sample_margins(DeFinettiModel(GROUPS_1, StaticSequence(UNIFORM_1), CLAMP), n, 3, 4)
        assert wide.raw.dtype == np.int64
        assert np.all((np.abs(wide.raw) <= n) & ((wide.raw + n) % 2 == 0))


@pytest.mark.parametrize("name", sorted(_layout_models()))
def test_sample_margins_stores_each_group_contiguously(name):
    # every per-group pass (KS, E|S_g|/n_g, the CSV columns) reads one column
    sample = sample_margins(_layout_models()[name], 2000, SAMPLE_BLOCK + 100, 3, workers=2)
    for array in (sample.raw, sample.normalized):
        assert array.flags.f_contiguous
        for g in range(array.shape[1]):
            assert array[:, g].flags.c_contiguous


def test_one_block_sample_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-block sample started a thread pool")

    monkeypatch.setattr(models, "ThreadPoolExecutor", refuse)
    sample = sample_margins(contracted(UNIFORM_1, 0.75), 1000, SAMPLE_BLOCK, 9)
    assert sample.count == SAMPLE_BLOCK


def test_default_pool_has_one_thread_per_cpu_up_to_the_block_count(monkeypatch):
    pools = []

    class Recording(models.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(models, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(models, "_cpus", lambda: 3)
    model = contracted(UNIFORM_1, 0.75)
    for count in (2 * SAMPLE_BLOCK, 5 * SAMPLE_BLOCK):
        sample_margins(model, 1000, count, 9)
    assert pools == [2, 3]


def test_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(models.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(models.os, "cpu_count", lambda: 5)
    assert models._cpus() == 5
    monkeypatch.setattr(models.os, "cpu_count", lambda: None)
    assert models._cpus() == 1


@pytest.mark.parametrize("workers", [0, -3])
def test_sample_margins_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ConfigError, match="workers"):
        sample_margins(static_delta0(), 10, 100, 1, workers=workers)


def test_sample_margins_clt_moments():
    model = static_delta0()
    s = sample_margins(model, 100, 10**5, 42)
    z = s.normalized[:, 0]
    assert abs(z.mean()) < 3.0 / math.sqrt(10**5)  # Var(S/sqrt n) = 1 exactly
    var = z.var(ddof=1)
    se = math.sqrt((np.mean((z - z.mean()) ** 4) - var**2) / 10**5)
    assert abs(var - 1.0) < 3 * se


def test_normalization_per_regime():
    model = contracted(UNIFORM_1, 0.15)
    s = sample_margins(model, 10**4, 10, 3)
    assert s.regimes == ("subcritical",)
    assert s.gamma[0] == pytest.approx(10**4 * (10**4) ** -0.15)
    fast = contracted(UNIFORM_1, 0.75)
    assert sample_margins(fast, 10**4, 10, 3).gamma[0] == pytest.approx(100.0)


SAMPLER_MODELS = oracle_matrix() + [
    (
        "static-mixture-m2",
        DeFinettiModel(GROUPS_2, StaticSequence(Mixture([
            (UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.5),
            (PointMassMixture([([-0.5, -0.5], 0.5), ([0.5, 0.5], 0.5)]), 0.5),
        ])), CLAMP),
    ),
    (
        "static-gaussian-rho0.6-m2",
        DeFinettiModel(GROUPS_2, StaticSequence(Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])), TANH),
    ),
    (
        "product-mixed-regimes-m3",
        DeFinettiModel(
            GroupStructure(3, [1 / 3, 1 / 3, 1 / 3]),
            ContractedSequence(
                Product([UNIFORM_1, GAUSS_1, PointMassMixture([([-2.0], 0.5), ([2.0], 0.5)])]),
                PowerLawSchedule([1.0, 1.0, 1.0], [0.75, 0.5, 0.15]),
            ),
            TANH,
        ),
    ),
    (
        "curie-weiss-m1",
        DeFinettiModel(GROUPS_1, CurieWeissSequence(CouplingSpec.single_group(0.5)), TANH),
    ),
]


@pytest.mark.parametrize("model", [m for _, m in SAMPLER_MODELS], ids=[name for name, _ in SAMPLER_MODELS])
def test_sampler_matches_exact_law(model):
    # every sampler's joint margin histogram must sit as close to the exact
    # law as i.i.d. draws from that law do: above the band's 99.9% quantile
    # a sampler is biased or its draws are correlated
    n, count = 12, 200_000
    pmf = exact_margin_pmf(model, n)
    sample = sample_margins(model, n, count, 7)
    assert sample_tv(sample, pmf) < multinomial_tv_quantile(pmf, count, draws=300)


def test_monte_carlo_matches_exact_pmf():
    # seeded 1e6-sample check against the exact law, 4 sigma entrywise
    model = static_delta0()
    s = sample_margins(model, 14, 10**6, 11)
    pmf = exact_margin_pmf(model, 14)
    for j, k in enumerate(pmf.margin_axis(0)):
        p = pmf.probs[j]
        emp = np.mean(s.raw[:, 0] == k)
        assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / 10**6)


def test_margin_sample_csv_roundtrip(tmp_path):
    model = static_delta0()
    s = sample_margins(model, 10, 25, 5)
    path = tmp_path / "margins.csv"
    s.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_index,group,raw_margin,normalized_margin"
    assert len(lines) == 26
    idx, group, raw, norm = lines[1].split(",")
    assert (int(idx), int(group)) == (0, 0)
    assert float(norm) == pytest.approx(int(raw) / s.gamma[0])


def _reference_csv_bytes(sample) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sample_index", "group", "raw_margin", "normalized_margin"])
    normalized = sample.normalized  # one divide: each read of the property divides all of raw
    for i in range(sample.count):
        for g in range(len(sample.group_sizes)):
            writer.writerow([i, g, int(sample.raw[i, g]), repr(float(normalized[i, g]))])
    return buf.getvalue().encode()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("count", [37, CSV_CHUNK, 2 * CSV_CHUNK + 5])
def test_margin_sample_csv_bytes_match_csv_writer(tmp_path, m, count):
    # chunk edges: fewer samples than one chunk, exactly one, and a ragged tail
    groups = GroupStructure(m, [1.0 / m] * m)
    base = UniformBox([-1.0] * m, [1.0] * m)
    model = DeFinettiModel(groups, StaticSequence(base), CLAMP)
    sample = sample_margins(model, 30 * m, count, 11)
    assert (sample.normalized < 0).any() and (sample.normalized > 0).any()
    path = tmp_path / "margins.csv"
    sample.to_csv(path)
    assert path.read_bytes() == _reference_csv_bytes(sample)
    # hand-built: a sample-major ``raw`` with repeated values and divisors
    # whose quotients need all 17 digits
    rng = np.random.default_rng(count + m)
    raw = rng.integers(-1000, 1001, size=(count, m))
    built = MarginSample(30 * m, sample.group_sizes, raw, (3.0, 7.0, 0.1)[:m], sample.regimes, 11)
    built.to_csv(path)
    assert path.read_bytes() == _reference_csv_bytes(built)
    # one sample; every value of every chunk equal; int32 raw
    for raw_v in (raw[:1], np.full_like(raw, -7), raw.astype(np.int32)):
        edge = dataclasses.replace(built, raw=raw_v)
        edge.to_csv(path)
        assert path.read_bytes() == _reference_csv_bytes(edge)
    # margins near the population guard, where 64-bit text and quotients are widest
    huge = raw + np.where(raw < 0, -(10**12), 10**12)
    wide = dataclasses.replace(built, raw=huge, gamma=(0.1,) * m)
    wide.to_csv(path)
    assert path.read_bytes() == _reference_csv_bytes(wide)


# -- summary statistics --------------------------------------------------------------------

def test_expected_abs_margin_exact_small():
    est = expected_abs_margin(static_delta0(), 2)
    assert est.per_capita[0] == pytest.approx(0.5, abs=1e-14)


def test_expected_abs_margin_unanimous():
    base = PointMassMixture([([-1.0], 0.5), ([1.0], 0.5)])
    model = DeFinettiModel(GROUPS_1, StaticSequence(base), CLAMP)
    est = expected_abs_margin(model, 12)
    assert est.per_capita[0] == pytest.approx(1.0, abs=1e-12)


def test_expected_abs_margin_monte_carlo_half_normal():
    model = static_delta0()
    est = expected_abs_margin(model, 10**4, mode="monte-carlo", count=10**6, seed=21)
    expected = math.sqrt(2.0 / math.pi) / 100.0  # half-normal mean over sqrt(n)
    assert abs(est.per_capita[0] - expected) < 3 * est.standard_error[0] + 2e-6


def test_expected_abs_margin_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        expected_abs_margin(static_delta0(), 4, mode="guess")


def test_expected_abs_margin_monte_carlo_needs_two_samples():
    # one sample has no standard error
    with pytest.raises(ConfigError, match="count >= 2"):
        expected_abs_margin(static_delta0(), 100, mode="monte-carlo", count=1, seed=3)
    est = expected_abs_margin(static_delta0(), 100, mode="monte-carlo", count=2, seed=3)
    assert math.isfinite(est.standard_error[0])


def test_expected_abs_margin_exact_needs_only_per_group_lattices():
    # the joint (5001, 5001) lattice of fast_clt exceeds the lattice guard
    model = load_config(CONFIGS / "fast_clt.yaml").model
    with pytest.raises(ResourceError):
        exact_margin_pmf(model, 10**4)
    est = expected_abs_margin(model, 10**4)
    assert all(math.isfinite(v) and 0.0 < v < 1.0 for v in est.per_capita)


def test_group_margin_pmf_matches_the_joint_law_marginal():
    cases = [(model, n) for _, model in oracle_matrix() for n in range(2 * model.groups.m, 11)]
    # correlated groups whose laws differ, unlike those of the oracle matrix
    cases += [
        (contracted(Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 2.0]]), 0.5, bias=TANH), 8),
        (DeFinettiModel(GROUPS_2, CurieWeissSequence(CouplingSpec([[0.5, 0.2], [0.2, 0.3]])), TANH), 8),
    ]
    for model, n in cases:
        joint = exact_margin_pmf(model, n)
        est = expected_abs_margin(model, n)
        for g, n_g in enumerate(joint.group_sizes):
            law = group_margin_pmf(model, n, g)
            assert law.group_sizes == (n_g,)
            assert np.max(np.abs(law.probs - joint.group_marginal(g))) < 1e-12
            from_joint = float(np.abs(joint.margin_axis(g)) @ joint.group_marginal(g)) / n_g
            assert abs(est.per_capita[g] - from_joint) < 1e-12


def test_pair_correlation_static_delta0_is_zero():
    assert pair_correlation(static_delta0(), 50)[0] == pytest.approx(0.0, abs=1e-15)


def test_pair_correlation_contracted_uniform_closed_form():
    model = contracted(UNIFORM_1, 0.5)
    n = 10**4
    got = pair_correlation(model, n)[0]
    assert got == pytest.approx(1.0 / (3.0 * n), rel=1e-9)


def test_pair_correlation_decreases_toward_zero():
    model = contracted(UNIFORM_1, 0.5)
    values = [pair_correlation(model, n)[0] for n in (100, 1000, 10**4)]
    assert values[0] > values[1] > values[2] > 0.0


# -- mixed and multi-group edge paths -------------------------------------------------

def test_mixed_atomic_continuous_mixture_both_routes():
    mix = Mixture(
        [
            (PointMassMixture([([0.0], 1.0)]), 0.4),
            (UniformBox([-0.5], [0.5]), 0.6),
        ]
    )
    model = DeFinettiModel(GROUPS_1, StaticSequence(mix), CLAMP)
    assert exact_margin_pmf(model, 10).max_abs_diff(brute_force_pmf(model, 10)) < 1e-10


def test_two_group_conditional_pmf_matches_enumeration():
    m = [0.3, -0.6]
    pmf = conditional_margin_pmf(m, GROUPS_2, 6)
    oracle = {}
    for config in itertools.product([-1, 1], repeat=6):
        prob = 1.0
        for i, x in enumerate(config):
            bias = m[0] if i < 3 else m[1]
            prob *= (1 + bias) / 2 if x == 1 else (1 - bias) / 2
        key = (sum(config[:3]), sum(config[3:]))
        oracle[key] = oracle.get(key, 0.0) + prob
    worst = max(abs(pmf.prob(list(k)) - p) for k, p in oracle.items())
    assert worst < 1e-14


# -- group-factored exact layer ----------------------------------------------------------

GROUPS_3 = GroupStructure(3, [1 / 3, 1 / 3, 1 / 3])
MIXED_REGIMES = PowerLawSchedule([1.0, 1.0, 1.0], [0.75, 0.5, 0.15])


def _joint(model):
    """The same model with mu wrapped in a one-component Mixture, a type that
    never factorizes, so its law is integrated on the joint tensor grid."""
    seq = model.sequence
    wrapped = Mixture([(seq.base, 1.0)])
    if seq.kind == "static":
        return DeFinettiModel(model.groups, StaticSequence(wrapped), model.bias_map)
    return DeFinettiModel(
        model.groups, ContractedSequence(wrapped, seq.schedule), model.bias_map
    )


def _route_dims(monkeypatch, model, n):
    """Lattice dimensions of every binomial mixing pass exact_margin_pmf makes."""
    dims = []
    real = models._pmf_from_nodes

    def spy(points, weights, sizes, bmap):
        dims.append(len(sizes))
        return real(points, weights, sizes, bmap)

    monkeypatch.setattr(models, "_pmf_from_nodes", spy)
    pmf = exact_margin_pmf(model, n)
    monkeypatch.undo()
    return pmf, dims


PRODUCT_FORM_CASES = {
    "box-m2": (contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75), 10),
    "box-m3": (
        DeFinettiModel(
            GROUPS_3, ContractedSequence(UniformBox([-1.0] * 3, [1.0] * 3), MIXED_REGIMES), CLAMP
        ),
        7,
    ),
    "diag-gaussian-tanh": (
        contracted(Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]]), 0.5, bias=TANH),
        10,
    ),
    "mixed-product": (
        DeFinettiModel(
            GROUPS_3,
            ContractedSequence(
                Product([UNIFORM_1, GAUSS_1, PointMassMixture([([-0.8], 0.5), ([0.8], 0.5)])]),
                MIXED_REGIMES,
            ),
            TANH,
        ),
        8,
    ),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_FORM_CASES))
def test_product_form_law_matches_joint_tensor_route(monkeypatch, case):
    model, n = PRODUCT_FORM_CASES[case]
    pmf, dims = _route_dims(monkeypatch, model, n)
    assert dims and set(dims) == {1}
    joint, joint_dims = _route_dims(monkeypatch, _joint(model), n)
    assert set(joint_dims) == {model.groups.m}
    assert pmf.max_abs_diff(joint) < 1e-12
    assert abs(pmf.total() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "base, bias",
    [
        (PointMassMixture([([-2.0, -2.0], 0.5), ([2.0, 2.0], 0.5)]), CLAMP),
        (Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]]), TANH),
        (Mixture([(UniformBox([-1.0, -1.0], [1.0, 1.0]), 1.0)]), CLAMP),
    ],
    ids=["correlated-two-atom", "correlated-gaussian", "mixture"],
)
def test_dependent_measures_keep_the_joint_route(monkeypatch, base, bias):
    model = contracted(base, 0.5, bias=bias)
    pmf, dims = _route_dims(monkeypatch, model, 8)
    assert set(dims) == {2}
    assert pmf.max_abs_diff(brute_force_pmf(model, 8)) < 1e-10


def _literal_enumeration(model, n):
    """Sum the probability of each of the 2^n vote vectors, one at a time."""
    sizes = model.groups.sizes(n)
    points, weights = model.mixing_measure(n).quad_nodes(0)
    p = 0.5 * (1.0 + model.bias_map(points))
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    probs = np.zeros(tuple(s + 1 for s in sizes))
    for votes in itertools.product((0, 1), repeat=n):
        votes = np.array(votes)
        per_voter = np.where(votes == 1, p[:, group_of], 1.0 - p[:, group_of])
        counts = np.bincount(group_of, weights=votes, minlength=len(sizes)).astype(int)
        probs[tuple(counts)] += weights @ per_voter.prod(axis=1)
    return probs, p


BRUTE_FORCE_CASES = {
    "m1": (
        DeFinettiModel(
            GROUPS_1,
            StaticSequence(PointMassMixture([([-0.3], 0.3), ([0.3], 0.3), ([0.0], 0.4)])),
            CLAMP,
        ),
        7,
    ),
    "m2-unequal": (
        DeFinettiModel(
            GroupStructure(2, [0.3, 0.7]),
            StaticSequence(PointMassMixture([([-0.4, 0.7], 0.5), ([0.4, -0.7], 0.5)])),
            TANH,
        ),
        8,
    ),
    "m2-two-atom-clamped": (
        contracted(PointMassMixture([([-2.0, -2.0], 0.5), ([2.0, 2.0], 0.5)]), 0.15), 8
    ),
    # six atoms on a 3x2 grid: each coordinate value is shared by several atoms
    "m2-grid-unequal": (
        DeFinettiModel(
            GroupStructure(2, [0.4, 0.6]),
            StaticSequence(
                PointMassMixture(
                    [
                        ([-0.5, -0.3], 0.1),
                        ([0.5, 0.3], 0.1),
                        ([-0.5, 0.3], 0.15),
                        ([0.5, -0.3], 0.15),
                        ([0.0, -0.3], 0.25),
                        ([0.0, 0.3], 0.25),
                    ]
                )
            ),
            CLAMP,
        ),
        8,
    ),
    "m3-unequal-boundary": (
        DeFinettiModel(
            GroupStructure(3, [0.2, 0.3, 0.5]),
            StaticSequence(
                PointMassMixture(
                    [([0.2, -0.6, 1.0], 0.25), ([-0.2, 0.6, -1.0], 0.25), ([0.0, 0.0, 0.0], 0.5)]
                )
            ),
            CLAMP,
        ),
        8,
    ),
}


@pytest.mark.parametrize("case", sorted(BRUTE_FORCE_CASES))
def test_group_factored_brute_force_matches_literal_enumeration(case):
    model, n = BRUTE_FORCE_CASES[case]
    reference, p = _literal_enumeration(model, n)
    if case.endswith("boundary") or case.endswith("clamped"):
        assert np.any((p == 0.0) | (p == 1.0))
    if case.endswith("unequal") or case.endswith("boundary"):
        assert len(set(model.groups.sizes(n))) > 1
    if "grid" in case:
        assert all(len(np.unique(p[:, g])) < len(p) for g in range(p.shape[1]))
    pmf = brute_force_pmf(model, n)
    assert np.max(np.abs(pmf.probs - reference)) < 1e-15
    assert pmf.max_abs_diff(exact_margin_pmf(model, n)) < 1e-14


def test_tables_are_built_once_per_distinct_node_coordinate(monkeypatch):
    """On a level x level tensor grid each group's coordinate takes ``level``
    values, so no table call may see more rows than that."""
    model = contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75)
    levels, rows = [], []
    real_nodes = UniformBox.quad_nodes

    def nodes(self, level):
        levels.append(level)
        return real_nodes(self, level)

    def spy(real):
        def table(n_g, p):
            rows.append((levels[-1], len(p)))
            return real(n_g, p)

        return table

    monkeypatch.setattr(UniformBox, "quad_nodes", nodes)
    monkeypatch.setattr(models, "_binom_table", spy(models._binom_table))
    monkeypatch.setattr(models, "_enumerated_count_table", spy(models._enumerated_count_table))
    joint = exact_margin_pmf(_joint(model), 8)
    brute = brute_force_pmf(model, 8)
    monkeypatch.undo()
    assert len(rows) >= 8  # both groups, at least two levels, both routes
    assert all(count <= level for level, count in rows)
    assert joint.max_abs_diff(brute) < 1e-12


def _per_node_mix(table, sizes, p, weights):
    """The literal per-node sum: one table product per node, weighted and added."""
    out = np.zeros(tuple(s + 1 for s in sizes))
    for q, w in enumerate(weights):
        rows = [table(s, p[q : q + 1, g])[0] for g, s in enumerate(sizes)]
        out += w * functools.reduce(np.multiply.outer, rows)
    return out


_REPEATED_ATOMS = PointMassMixture(
    [([-0.5, 0.3], 0.1), ([0.5, -0.3], 0.1), ([-0.5, -2.0], 0.15), ([0.5, 2.0], 0.15),
     ([2.0, 0.3], 0.25), ([-2.0, -0.3], 0.25)]
)

MIX_CASES = {
    "grid-m1": (UniformBox([-1.0], [1.0]), 16, (9,)),
    "grid-m2": (UniformBox([-1.0, -0.5], [1.0, 0.5]), 8, (5, 7)),
    "grid-m3": (UniformBox([-1.0] * 3, [1.0] * 3), 6, (3, 4, 5)),
    # repeated coordinates, and clamped coordinates at p = 0 and p = 1
    "repeated-atoms-m2": (_REPEATED_ATOMS, 0, (6, 4)),
    "atoms-and-box-m2": (
        Mixture([(_REPEATED_ATOMS, 0.4), (UniformBox([-1.0] * 2, [1.0] * 2), 0.6)]), 8, (4, 6)
    ),
}


@pytest.mark.parametrize("budget", [models.MIX_BUDGET, 10], ids=["whole", "split"])
@pytest.mark.parametrize("case", sorted(MIX_CASES))
def test_contraction_matches_the_per_node_sum(monkeypatch, case, budget):
    """Binning the weights by distinct coordinates changes only the summation
    order, so both tables must match the literal per-node sum to 1e-15."""
    measure, level, sizes = MIX_CASES[case]
    points, weights = measure.quad_nodes(level)
    p = 0.5 * (1.0 + apply_bias_map(CLAMP, points))
    if "atoms" in case:
        assert np.any(p == 0.0) and np.any(p == 1.0)
        assert all(len(np.unique(p[:, g])) < len(p) for g in range(p.shape[1]))
    monkeypatch.setattr(models, "MIX_BUDGET", budget)
    calls = []
    real_mix = models._mix
    monkeypatch.setattr(models, "_mix", lambda *args: calls.append(1) or real_mix(*args))
    for table in (models._binom_table, models._enumerated_count_table):
        got = models._mix(table, sizes, p, weights)
        assert np.max(np.abs(got - _per_node_mix(table, sizes, p, weights))) < 1e-15
    assert (len(calls) > 2) == (budget == 10)


def test_scattered_atoms_are_split_to_fit_the_memory_budget():
    """600 scattered atoms in M = 3 have 600^3 distinct-coordinate cells; the
    halving keeps every dense array within the budget."""
    rng = np.random.default_rng(7)
    locations = rng.uniform(-1.0, 1.0, size=(300, 3))
    atoms = [(loc, 1.0 / 600) for loc in locations] + [(-loc, 1.0 / 600) for loc in locations]
    model = DeFinettiModel(
        GroupStructure(3, [1 / 3] * 3), StaticSequence(PointMassMixture(atoms)), CLAMP
    )
    tracemalloc.start()
    try:
        exact = exact_margin_pmf(model, 9)
        brute = brute_force_pmf(model, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact.max_abs_diff(brute) < 1e-14
    assert peak < 64 * 2**20


def test_pair_correlation_of_correlated_gaussian_matches_joint_route():
    model = contracted(Gaussian([0.0, 0.0], [[1.0, 0.7], [0.7, 2.0]]), 0.5, bias=TANH)
    n = 50
    measure = model.mixing_measure(n)

    def joint(level):
        points, weights = measure.quad_nodes(level)
        return weights @ np.tanh(points) ** 2

    reference, _ = refine_until_stable(joint)
    got = pair_correlation(model, n)
    assert got.shape == (2,)
    assert np.max(np.abs(got - reference)) < 1e-12


def test_correlated_four_group_gaussian_hits_the_node_budget():
    cov = 0.5 * np.eye(4) + 0.5
    groups = GroupStructure(4, [0.25] * 4)
    model = DeFinettiModel(groups, StaticSequence(Gaussian(np.zeros(4), cov)), TANH)
    with pytest.raises(ResourceError, match="budget"):
        exact_margin_pmf(model, 8)
