import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
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
    Gaussian,
    GroupStructure,
    PointMassMixture,
    PowerLawSchedule,
    Product,
    QuadratureError,
    ResourceError,
    StaticSequence,
    UniformBox,
    brute_force_pmf,
    exact_margin_pmf,
    expected_abs_margin,
    pair_correlation,
    sample_margins,
)
from votelim import models, quadrature
from votelim.config import load_config
from votelim.measures import ExplicitSchedule, Mixture, _Gridded
from votelim.models import SAMPLE_BLOCK, MarginPmf, MarginSample, group_margin_pmf
from votelim.cwm import FreeEnergySurface, MeanFieldMixing
from votelim.quadrature import binned_rule, grid_points, refine_until_stable
from conftest import (
    GAUSS_1,
    GROUPS_1,
    GROUPS_2,
    UNIFORM_1,
    contracted,
    margin_prob,
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


def test_group_structures_and_models_are_immutable():
    groups = GroupStructure(2, [0.5, 0.5])
    model = contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.5, groups=groups)
    for obj, names in [(groups, ("m", "proportions", "_sizes", "extra")),
                       (model, ("groups", "sequence", "bias_map", "_mixing", "extra"))]:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert groups.m == 2 and model.groups is groups


# -- the memo of mu_n and the group sizes -------------------------------------------

MEMO_MODELS = {
    "uniform-m2-factored": lambda: contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.5),
    "gaussian-m2-joint": lambda: contracted(Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 2.0]]), 0.5, bias=TANH),
    "cwm-m2": lambda: DeFinettiModel(
        GroupStructure(2, [0.5, 0.5]), CurieWeissSequence(CouplingSpec([[0.5, 0.2], [0.2, 0.3]])), TANH),
}


#: every per-population route that reads mu_n, each giving one array
MEMO_ROUTES = (
    lambda model, n: exact_margin_pmf(model, n).probs,
    lambda model, n: group_margin_pmf(model, n, 0).probs,
    lambda model, n: group_margin_pmf(model, n, 1).probs,
    lambda model, n: brute_force_pmf(model, n).probs,
    lambda model, n: np.array(expected_abs_margin(model, n).per_capita),
    lambda model, n: sample_margins(model, n, 500, seed=3, workers=1).raw,
)


def _count_builds(monkeypatch, model) -> list:
    calls = []
    build = type(model.sequence).mixing_measure

    def counted(self, groups, n):
        calls.append(n)
        return build(self, groups, n)

    monkeypatch.setattr(type(model.sequence), "mixing_measure", counted)
    return calls


@pytest.mark.parametrize("name", sorted(MEMO_MODELS))
def test_mixing_measure_is_built_once_per_population(monkeypatch, name):
    # each route on a freshly built model of its own
    alone = [route(MEMO_MODELS[name](), 8) for route in MEMO_ROUTES]

    model = MEMO_MODELS[name]()
    builds = _count_builds(monkeypatch, model)
    shared = [route(model, 8) for route in MEMO_ROUTES]
    assert builds == [8]
    for a, b in zip(shared, alone):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert model.mixing_measure(8) is model.mixing_measure(8)
    assert builds == [8]

    exact_margin_pmf(model, 9)
    assert builds == [8, 9]
    assert exact_margin_pmf(model, 8).probs.tobytes() == shared[0].tobytes()
    assert builds == [8, 9, 8]


def test_a_bad_population_raises_on_every_call_and_keeps_the_memo(monkeypatch):
    model = contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.5)
    builds = _count_builds(monkeypatch, model)
    measure = model.mixing_measure(8)
    for _ in range(2):
        for call in (lambda: model.mixing_measure(3), lambda: exact_margin_pmf(model, 3),
                     lambda: brute_force_pmf(model, 3), lambda: model.groups.sizes(3)):
            with pytest.raises(ConfigError):
                call()
    assert model.mixing_measure(8) is measure
    assert builds == [8, 3, 3]


def test_group_sizes_are_memoized_per_population():
    groups = GroupStructure(3, [0.6, 0.3, 0.1])
    first = groups.sizes(23)
    assert groups.sizes(23) is first
    assert groups.sizes(24) == GroupStructure(3, [0.6, 0.3, 0.1]).sizes(24)
    for _ in range(2):
        with pytest.raises(ResourceError):
            groups.sizes(10**13)


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


def conditional_margin_pmf(m, groups, n):
    """The joint margin law at one post-bias-map vector m in [-1, 1]^M: the
    mixed binomial law on a one-node grid, where CLAMP is the identity."""
    sizes = groups.sizes(n)
    nodes = tuple(np.asarray(m, dtype=float)[:, None])
    p = [models._success_probability(CLAMP, axis) for axis in nodes]
    return MarginPmf(sizes, models._mix(models._binom_table, sizes, p, np.array([1.0])))


def test_conditional_pmf_matches_enumeration():
    pmf = conditional_margin_pmf([0.5], GROUPS_1, 4)
    oracle = enumerate_conditional_pmf(0.5, 4)
    for k, prob in oracle.items():
        assert margin_prob(pmf, [k]) == pytest.approx(prob, abs=1e-14)
    assert margin_prob(pmf, [2]) == pytest.approx(27.0 / 64.0, abs=1e-14)


def test_conditional_pmf_fair_coins():
    assert margin_prob(conditional_margin_pmf([0.0], GROUPS_1, 2), [0]) == pytest.approx(0.5)


def test_conditional_pmf_degenerate_bias():
    assert margin_prob(conditional_margin_pmf([1.0], GROUPS_1, 10), [10]) == 1.0


def test_conditional_pmf_off_lattice_is_zero():
    pmf = conditional_margin_pmf([0.3], GROUPS_1, 4)
    assert margin_prob(pmf, [3]) == 0.0  # wrong parity
    assert margin_prob(pmf, [6]) == 0.0  # out of range


def test_conditional_pmf_sums_to_one():
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [[1, 1, 7], [1.5, 1], [1]], ids=["long", "fractional", "short"])
def test_margin_pmf_rejects_malformed_margin_vectors(k):
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    with pytest.raises(ConfigError):
        margin_prob(pmf, k)


def test_margin_pmf_rejects_a_table_off_its_lattice():
    with pytest.raises(DataError, match="lattice shape"):
        MarginPmf((4, 2), np.zeros((5, 2)))


def test_margin_pmf_difference_needs_one_lattice():
    pmf = conditional_margin_pmf([0.3, -0.6], GROUPS_2, 10)
    with pytest.raises(DataError, match="different lattices"):
        pmf.max_abs_diff(conditional_margin_pmf([0.3, -0.6], GROUPS_2, 12))


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
    assert margin_prob(pmf, [-2]) == pytest.approx(0.25, abs=1e-14)
    assert margin_prob(pmf, [0]) == pytest.approx(0.5, abs=1e-14)
    assert margin_prob(pmf, [2]) == pytest.approx(0.25, abs=1e-14)


def test_static_unit_atoms_are_unanimous():
    base = PointMassMixture([([-1.0], 0.5), ([1.0], 0.5)])
    model = DeFinettiModel(GROUPS_1, StaticSequence(base), CLAMP)
    pmf = exact_margin_pmf(model, 3)
    assert margin_prob(pmf, [-3]) == pytest.approx(0.5, abs=1e-14)
    assert margin_prob(pmf, [3]) == pytest.approx(0.5, abs=1e-14)
    assert margin_prob(pmf, [1]) == 0.0


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
        assert margin_prob(pmf, [k]) == pytest.approx(prob, abs=1e-14)


def test_brute_force_gaussian_tanh_agrees_with_exact():
    model = contracted(GAUSS_1, 0.5, bias=TANH)
    assert exact_margin_pmf(model, 8).max_abs_diff(brute_force_pmf(model, 8)) < 1e-10


def test_brute_force_guard():
    with pytest.raises(ResourceError):
        brute_force_pmf(static_delta0(), 21)


@pytest.mark.parametrize("model, n", [
    (static_delta0(), models.BRUTE_FORCE_MAX_N),              # one node
    (contracted(GAUSS_1, 0.15, bias=TANH), 16),               # grids of 64 to 256 nodes
], ids=["delta0-n20", "tanh-gaussian-n16"])
def test_brute_force_at_the_size_guard_bins_within_the_block_budget(model, n):
    # the (2^n, len(p)) products and a (n + 1, 2^n) one-hot matrix would take
    # tens of MiB; only the brute force runs inside the trace, the exact law
    # is its reference
    exact = exact_margin_pmf(model, n)
    tracemalloc.start()
    try:
        brute = brute_force_pmf(model, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact.max_abs_diff(brute) < 1e-15
    assert peak < 8 * 2**20


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


# -- the sample artifact ------------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 37, SAMPLE_BLOCK + 5])
@pytest.mark.parametrize("width", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_margin_sample_npy_roundtrip(tmp_path, m, width, count):
    # groups of 2^31 voters take margins past int32, so raw is int64
    groups = GroupStructure(m, [1.0 / m] * m)
    model = DeFinettiModel(groups, StaticSequence(UniformBox([-1.0] * m, [1.0] * m)), CLAMP)
    sample = sample_margins(model, (30 if width is np.int32 else 2**31) * m, count, 11)
    assert sample.raw.dtype == width
    path = tmp_path / "margins.npy"
    sample.to_npy(path)
    loaded = np.load(path)
    assert (loaded.dtype, loaded.shape, loaded.flags.f_contiguous) == (sample.raw.dtype, (count, m), True)
    assert np.array_equal(loaded, sample.raw)
    # the divide by the manifest's gamma rebuilds the normalized margins bit for bit
    gamma = json.loads(json.dumps(sample.manifest()))["gamma"]
    assert (loaded / gamma).tobytes() == sample.normalized.tobytes()


def _npy_parts(path):
    """A .npy file's format version, header, whether data starts 64-byte aligned, and data."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        header = np.lib.format.read_array_header_1_0(fh)
        return version, header, fh.tell() % 64 == 0, fh.read()


def test_margin_sample_npy_bytes_are_raw_as_stored_little_endian(tmp_path):
    groups = GroupStructure(2, [0.5, 0.5])
    model = DeFinettiModel(groups, StaticSequence(UniformBox([-1.0] * 2, [1.0] * 2)), CLAMP)
    sample = sample_margins(model, 60, 37, 11)
    path = tmp_path / "margins.npy"
    sample.to_npy(path)
    little = sample.raw.astype("<i4")
    assert _npy_parts(path) == ((1, 0), ((37, 2), True, np.dtype("<i4")), True, little.tobytes(order="F"))
    # raw as a big-endian host holds it writes the same bytes
    dataclasses.replace(sample, raw=sample.raw.astype(">i4")).to_npy(tmp_path / "swapped.npy")
    assert (tmp_path / "swapped.npy").read_bytes() == path.read_bytes()
    # a sample-major raw is written in its own order
    dataclasses.replace(sample, raw=np.ascontiguousarray(sample.raw)).to_npy(path)
    assert _npy_parts(path) == ((1, 0), ((37, 2), False, np.dtype("<i4")), True, little.tobytes(order="C"))


def test_margin_sample_npy_memory_does_not_grow_with_count(tmp_path):
    # the array goes to the file as it lies in memory: a sample 256 times
    # larger (8 MiB of margins) writes within 10% of the small one's peak
    def peak(count):
        raw = np.asfortranarray(np.arange(2 * count, dtype=np.int32).reshape(count, 2) - count)
        sample = MarginSample(10**6, (5 * 10**5,) * 2, raw, (7.0, 7.0), ("subcritical",) * 2, 1)
        tracemalloc.start()
        try:
            sample.to_npy(tmp_path / f"{count}.npy")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2**12)  # a first write may allocate once
    one = peak(2**12)
    assert peak(2**20) <= 1.1 * one
    assert one < 64 * 1024


def _reference_csv_bytes(sample) -> bytes:
    """The long-format CSV of ``sample`` as ``csv.writer`` writes it, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sample_index", "group", "raw_margin", "normalized_margin"])
    normalized = sample.normalized  # one divide: each read of the property divides all of raw
    for i in range(sample.count):
        for g in range(len(sample.group_sizes)):
            writer.writerow([i, g, int(sample.raw[i, g]), repr(float(normalized[i, g]))])
    return buf.getvalue().encode()


_README_CSV_LINES = (
    (Path(__file__).resolve().parents[1] / "README.md").read_text()
    .split("### Artifacts")[1].split("```python\n")[1].split("```")[0]
)


def _readme_csv_bytes(sample, directory, monkeypatch) -> bytes:
    """The bytes README's lines write from ``sample``'s ``margins.npy`` and manifest.

    Each call writes into a new directory: on some file systems, truncating
    a file just written takes up to a tenth of a second an open.
    """
    directory.mkdir()
    sample.to_npy(directory / "margins.npy")
    (directory / "manifest.json").write_text(json.dumps({"margins": sample.manifest()}))
    monkeypatch.chdir(directory)
    exec(_README_CSV_LINES, {})
    return (directory / "margins.csv").read_bytes()


def _margin_columns(rng, count, m, repeats):
    """(count, m) distinct margins in shuffled columns, each repeated ``repeats`` times.

    With repeats 2 a column of odd length gives its last margin a third row,
    so every margin still recurs.
    """
    values = np.minimum(np.arange(count) // repeats, max(count // repeats - 1, 0))
    return rng.permuted(np.tile(3 * values - count, (m, 1)), axis=1).T


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("count", [37, 8192, 16389])
def test_margin_sample_csv_bytes_match_csv_writer(tmp_path, monkeypatch, m, count):
    # README's lines rebuild, from margins.npy and the manifest's gamma, the
    # CSV that csv.writer gives the sample: the margins.csv an older
    # version wrote, byte for byte
    calls = itertools.count()

    def rebuilt(edge):
        return _readme_csv_bytes(edge, tmp_path / str(next(calls)), monkeypatch)

    groups = GroupStructure(m, [1.0 / m] * m)
    base = UniformBox([-1.0] * m, [1.0] * m)
    model = DeFinettiModel(groups, StaticSequence(base), CLAMP)
    sample = sample_margins(model, 30 * m, count, 11)
    assert (sample.normalized < 0).any() and (sample.normalized > 0).any()
    assert rebuilt(sample) == _reference_csv_bytes(sample)
    # hand-built: a sample-major ``raw`` with repeated values and divisors
    # whose quotients need all 17 digits
    rng = np.random.default_rng(count + m)
    raw = rng.integers(-1000, 1001, size=(count, m))
    built = MarginSample(30 * m, sample.group_sizes, raw, (3.0, 7.0, 0.1)[:m], sample.regimes, 11)
    assert rebuilt(built) == _reference_csv_bytes(built)
    # one sample; every value equal; int32 raw
    for raw_v in (raw[:1], np.full_like(raw, -7), raw.astype(np.int32)):
        edge = dataclasses.replace(built, raw=raw_v)
        assert rebuilt(edge) == _reference_csv_bytes(edge)
    # margins near the population guard, where 64-bit text and quotients are widest
    huge = raw + np.where(raw < 0, -(10**12), 10**12)
    wide = dataclasses.replace(built, raw=huge, gamma=(0.1,) * m)
    assert rebuilt(wide) == _reference_csv_bytes(wide)
    # every margin of a column recurs; no margin recurs
    recurring = _margin_columns(rng, count, m, 2)
    distinct = _margin_columns(rng, count, m, 1)
    assert np.unique(recurring[:, 0], return_counts=True)[1].min() >= 2
    assert np.unique(distinct[:, 0], return_counts=True)[1].max() == 1
    for raw_v in (recurring, distinct):
        edge = dataclasses.replace(built, raw=raw_v)
        assert rebuilt(edge) == _reference_csv_bytes(edge)


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
            marginal = joint.probs.sum(axis=tuple(a for a in range(joint.m) if a != g))
            assert np.max(np.abs(law.probs - marginal)) < 1e-12
            from_joint = float(np.abs(joint.margin_axis(g)) @ marginal) / n_g
            assert abs(est.per_capita[g] - from_joint) < 1e-12


def test_a_mean_field_marginal_sums_the_weight_grid_onto_its_axis(monkeypatch):
    """A one-group law reads level nodes on its own axis, not the level^2
    joint nodes, and agrees with the joint law's marginal."""
    model = DeFinettiModel(GROUPS_2, CurieWeissSequence(CouplingSpec([[0.5, 0.2], [0.2, 0.5]])), TANH)
    levels, tables = [], []
    surface_nodes, binom_table = FreeEnergySurface.quad_nodes, models._binom_table

    def nodes(self, level):
        levels.append(level)
        return surface_nodes(self, level)

    def table(n_g, p):
        tables.append((levels[-1], len(p)))
        return binom_table(n_g, p)

    monkeypatch.setattr(FreeEnergySurface, "quad_nodes", nodes)
    monkeypatch.setattr(models, "_binom_table", table)
    for n in (16, 400):
        laws = [group_margin_pmf(model, n, g).probs for g in range(2)]
        assert tables and all(rows <= level for level, rows in tables)
        tables.clear()
        joint = exact_margin_pmf(model, n).probs
        for g, law in enumerate(laws):
            assert np.max(np.abs(law - joint.sum(axis=1 - g))) < 1e-12


def test_pair_correlation_static_delta0_is_zero():
    assert pair_correlation(static_delta0(), 50)[0] == pytest.approx(0.0, abs=1e-15)


def test_pair_correlation_contracted_uniform_closed_form():
    model = contracted(UNIFORM_1, 0.5)
    n = 10**4
    got = pair_correlation(model, n)[0]
    assert got == pytest.approx(1.0 / (3.0 * n), rel=1e-9)


SECOND_MOMENT_MODELS = oracle_matrix() + [
    ("mean-field-m2", DeFinettiModel(GROUPS_2, CurieWeissSequence(CouplingSpec([[0.5, 0.2], [0.2, 0.5]])), TANH)),
]


@pytest.mark.parametrize("model", [m for _, m in SECOND_MOMENT_MODELS], ids=[name for name, _ in SECOND_MOMENT_MODELS])
@pytest.mark.parametrize("n", [8, 13, 200])
def test_second_moment_of_margin_law_matches_pair_correlation(model, n):
    # E[S_g^2] = n_g + n_g (n_g - 1) E[m_bar_g^2]: the exact law's second
    # moment against pair_correlation, two routes that share only mu_n
    rho = pair_correlation(model, n)
    for g, n_g in enumerate(model.groups.sizes(n)):
        law = group_margin_pmf(model, n, g)
        k = law.margin_axis(0).astype(float)
        assert law.probs @ k**2 == pytest.approx(n_g + n_g * (n_g - 1) * rho[g], rel=1e-12, abs=0)


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
    worst = max(abs(margin_prob(pmf, list(k)) - p) for k, p in oracle.items())
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
    real = models._mixed_law

    def spy(model, measure, sizes, table):
        dims.append(len(sizes))
        return real(model, measure, sizes, table)

    monkeypatch.setattr(models, "_mixed_law", spy)
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
    axes, weights = model.mixing_measure(n).quad_nodes(0)
    p = 0.5 * (1.0 + model.bias_map(grid_points(axes)))
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
    values, so no table call may see more rows than that.  The box is
    tanh-biased, so both routes refine through two levels or more."""
    model = contracted(UniformBox([-1.0, -1.0], [1.0, 1.0]), 0.75, bias=TANH)
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


def _spy_node_sums(monkeypatch):
    """Record every quadrature level a measure is read at, and the measure
    and integrand of every ``_node_sum`` call."""
    levels, sums = [], []
    real_nodes, real_sum = _Gridded.quad_nodes, models._node_sum

    def nodes(self, level):
        levels.append(level)
        return real_nodes(self, level)

    def node_sum(measure, integrand, level):
        sums.append((measure, integrand))
        return real_sum(measure, integrand, level)

    monkeypatch.setattr(_Gridded, "quad_nodes", nodes)
    monkeypatch.setattr(models, "_node_sum", node_sum)
    return levels, sums, real_sum


#: (model, n) for every box model of the oracle matrix at n = 2..13, and a
#: one-group box at n_g = 127, the largest size the 64-node rule is exact for
ONE_PASS_CASES = [
    pytest.param(model, n, id=f"{name}-n{n}")
    for name, model in oracle_matrix() if name.startswith("uniform")
    for n in range(max(2, 2 * model.groups.m), 14)
] + [pytest.param(contracted(UNIFORM_1, 0.5), 127, id="uniform-a0.5-m1-n127")]


@pytest.mark.parametrize("model, n", ONE_PASS_CASES)
def test_a_clamped_box_law_is_summed_once_at_the_first_level(monkeypatch, model, n):
    """A count table is a polynomial of degree n_g in each box coordinate
    under clamp, so the 64-node rule is exact while n_g <= 127: each law
    reads level 64 alone, and the refined sum of the same integrands moves
    it by rounding only."""
    levels, sums, real_sum = _spy_node_sums(monkeypatch)
    for law in (exact_margin_pmf, brute_force_pmf) if n <= 13 else (exact_margin_pmf,):
        levels.clear()
        sums.clear()
        got = law(model, n).probs
        assert set(levels) == {quadrature.DEFAULT_START} and sums
        # a factorized exact law is the outer product of its groups' laws
        refined = [refine_until_stable(lambda level: real_sum(mu, f, level))[0] for mu, f in list(sums)]
        assert np.max(np.abs(got - functools.reduce(np.multiply.outer, refined))) < 1e-14


def _uniform_product_with_gaussian():
    # the Gaussian's nodes stay inside (-1, 1), where the clamp has no kink
    base = Product([UniformBox([-1.0], [1.0]), Gaussian([0.0], [[0.04]])])
    return contracted(base, 0.5, groups=GROUPS_2)


#: laws the one-pass rule does not cover: a route and its (model, n)
REFINED_CASES = {
    "box-n128": (exact_margin_pmf, contracted(UNIFORM_1, 0.5), 128),
    "tanh-box-exact": (exact_margin_pmf, contracted(UNIFORM_1, 0.5, bias=TANH), 8),
    "tanh-box-brute": (brute_force_pmf, contracted(UNIFORM_1, 0.5, bias=TANH), 8),
    # eps_8 = 8^-0.15 leaves mu_8 = U[-0.37, 1.46], past the clamp's kink at 1
    "box-past-1-exact": (exact_margin_pmf, contracted(UniformBox([-0.5], [2.0]), 0.15), 8),
    "box-past-1-brute": (brute_force_pmf, contracted(UniformBox([-0.5], [2.0]), 0.15), 8),
    "gaussian-factor-joint": (exact_margin_pmf, _joint(_uniform_product_with_gaussian()), 8),
    "gaussian-factor-brute": (brute_force_pmf, _uniform_product_with_gaussian(), 8),
}


@pytest.mark.parametrize("case", sorted(REFINED_CASES))
def test_a_law_outside_the_one_pass_rule_still_refines(monkeypatch, case):
    law, model, n = REFINED_CASES[case]
    levels, _, _ = _spy_node_sums(monkeypatch)
    if "past-1" in case:
        # the kink inside mu_8 slows Gauss-Legendre to algebraic convergence,
        # so the refinement runs to the cap and gives up
        assert model.mixing_measure(n).upper[0] > 1.0
        with pytest.raises(QuadratureError, match="did not stabilize"):
            law(model, n)
        assert max(levels) == quadrature.DEFAULT_CAP
    else:
        law(model, n)
    assert len(set(levels)) >= 2


def test_an_oracle_table_whose_popcount_classes_span_several_blocks_matches_the_exact_route(monkeypatch):
    """At n_g = 18 on 64 nodes a block holds 2^18 / (2^9 * 64) = 8 high-half
    rows, while the high half's popcount classes hold up to C(9, 4) = 126."""
    model = contracted(UNIFORM_1, 0.5)
    assert models.ORACLE_BLOCK // (2**9 * 64) == 8 and math.comb(9, 4) == 126
    calls = []
    real = models._enumerated_count_table
    monkeypatch.setattr(models, "_enumerated_count_table",
                        lambda n_g, p: calls.append((n_g, len(p))) or real(n_g, p))
    brute = brute_force_pmf(model, 18)
    assert calls == [(18, 64)]
    assert brute.max_abs_diff(exact_margin_pmf(model, 18)) < 1e-13


def test_an_m1_oracle_op_builds_each_level_grid_once(monkeypatch):
    """The exact law reads mu_n itself as its one marginal, so the 2^n oracle
    after it finds every level's grid already built."""
    model = contracted(GAUSS_1, 0.5, bias=TANH)
    levels, real = [], Gaussian._grid

    def spy(self, level):
        levels.append(level)
        return real(self, level)

    monkeypatch.setattr(Gaussian, "_grid", spy)
    exact = exact_margin_pmf(model, 13)
    brute = brute_force_pmf(model, 13)
    assert len(levels) >= 2 and levels == sorted(set(levels))
    assert exact.max_abs_diff(brute) < 1e-14


def _per_node_mix(table, sizes, p, weights):
    """The literal per-node sum: one table product per node, weighted and added."""
    out = np.zeros(tuple(s + 1 for s in sizes))
    for q, w in enumerate(weights):
        rows = [table(s, p[q : q + 1, g])[0] for g, s in enumerate(sizes)]
        out += w * functools.reduce(np.multiply.outer, rows)
    return out


def _few_node_rule(n):
    """leggauss's n-point rule, for the grids of a few nodes that a per-node
    sum can afford; the package stores only rules of 64 nodes and more."""
    return np.polynomial.legendre.leggauss(n)


def _raw_nodes(measure, level):
    """Every node as its own point, repeats kept: the atoms as given, a grid
    expanded, a mixture's components concatenated with their weights."""
    if isinstance(measure, PointMassMixture):
        return measure.locations, measure.weights
    if isinstance(measure, Mixture):
        parts = [_raw_nodes(c, level) for c in measure.components]
        points = np.concatenate([q for q, _ in parts])
        return points, np.concatenate([w * q for (_, q), w in zip(parts, measure.weights)])
    axes, weights = measure.quad_nodes(level)
    return grid_points(axes), weights


_REPEATED_ATOMS = PointMassMixture(
    [([-0.5, 0.3], 0.1), ([0.5, -0.3], 0.1), ([-0.5, -2.0], 0.15), ([0.5, 2.0], 0.15),
     ([2.0, 0.3], 0.25), ([-2.0, -0.3], 0.25)]
)

MIX_CASES = {
    "grid-m1": (UniformBox([-1.0], [1.0]), CLAMP, 16, (9,)),
    "grid-m2": (UniformBox([-1.0, -0.5], [1.0, 0.5]), CLAMP, 8, (5, 7)),
    "grid-m3": (UniformBox([-1.0] * 3, [1.0] * 3), CLAMP, 6, (3, 4, 5)),
    "gaussian-correlated-m2": (Gaussian([0.1, -0.2], [[1.0, 0.6], [0.6, 2.0]]), TANH, 8, (5, 7)),
    "product-m3": (
        Product([UniformBox([-1.0], [1.0]), Gaussian([0.0], [[0.25]]), UniformBox([-0.5], [0.5])]),
        TANH,
        6,
        (3, 4, 5),
    ),
    "two-boxes-m2": (
        Mixture([(UniformBox([-1.0] * 2, [1.0] * 2), 0.5), (UniformBox([-0.5] * 2, [0.5] * 2), 0.5)]),
        CLAMP,
        8,
        (4, 6),
    ),
    "mean-field-m2": (
        MeanFieldMixing(FreeEnergySurface(CouplingSpec([[0.5, 0.2], [0.2, 0.4]]), GROUPS_2, 10)),
        TANH,
        9,  # an odd rule has a node at the mode; 8 nodes miss the peak the surface checks
        (5, 5),
    ),
    # repeated coordinates, and clamped coordinates at p = 0 and p = 1
    "repeated-atoms-m2": (_REPEATED_ATOMS, CLAMP, 0, (6, 4)),
    "atoms-and-box-m2": (
        Mixture([(_REPEATED_ATOMS, 0.4), (UniformBox([-1.0] * 2, [1.0] * 2), 0.6)]), CLAMP, 8, (4, 6)
    ),
}


@pytest.mark.parametrize("budget", [models.MIX_BUDGET, 10], ids=["whole", "split"])
@pytest.mark.parametrize("case", sorted(MIX_CASES))
def test_contraction_matches_the_per_node_sum(monkeypatch, case, budget):
    """The grid contraction changes only the summation order against the
    literal per-node sum over the raw nodes (every atom, repeats kept), so both
    tables must match it to 1e-15.  It must match bit for bit the
    explicit-point path: the bias map on every raw node's point, binned back
    onto a grid by its distinct coordinates."""
    measure, bmap, level, sizes = MIX_CASES[case]
    monkeypatch.setattr(quadrature, "legendre_rule", _few_node_rule)
    axes, weights = measure.quad_nodes(level)
    assert grid_points(axes).shape == (len(weights), len(sizes))
    points, point_weights = _raw_nodes(measure, level)
    p = models._success_probability(bmap, points)
    if "atoms" in case:
        assert np.any(p == 0.0) and np.any(p == 1.0)
        assert all(len(np.unique(p[:, g])) < len(p) for g in range(p.shape[1]))
    monkeypatch.setattr(models, "MIX_BUDGET", budget)
    calls = []
    real_mix = models._mix
    monkeypatch.setattr(models, "_mix", lambda *args: calls.append(1) or real_mix(*args))
    for table in (models._binom_table, models._enumerated_count_table):
        p_grid = [models._success_probability(bmap, axis) for axis in axes]
        got = models._mix(table, sizes, p_grid, weights)
        assert np.max(np.abs(got - _per_node_mix(table, sizes, p, point_weights))) < 1e-15
        p_axes, binned = binned_rule(p, point_weights)
        assert np.array_equal(got, models._mix(table, sizes, list(p_axes), binned))
    # four top-level calls; any more are the halves of a split
    assert (len(calls) > 4) == (budget == 10)


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


def test_a_mixture_of_two_boxes_in_m3_is_integrated_per_component():
    """Two boxes with different nodes would span a 256^3 joint grid at
    level 128, above the node budget; each component keeps its own 128^3
    rule, so the exact law and the 2^n oracle agree, also with the mixture
    nested in another beside a set of atoms."""
    measure = Mixture(
        [(UniformBox([-1.0] * 3, [1.0] * 3), 0.3), (UniformBox([-0.5, -0.8, -0.3], [0.5, 0.8, 0.3]), 0.7)]
    )
    atoms = PointMassMixture([([0.3, -0.2, 0.9], 0.5), ([-0.3, 0.2, -0.9], 0.5)])
    for mu in (measure, Mixture([(measure, 0.6), (atoms, 0.4)])):
        model = DeFinettiModel(GroupStructure(3, [1 / 3] * 3), StaticSequence(mu), CLAMP)
        exact = exact_margin_pmf(model, 6)
        brute = brute_force_pmf(model, 6)
        assert abs(exact.probs.sum() - 1.0) < 1e-12
        assert exact.max_abs_diff(brute) < 1e-13


def test_a_nested_mixture_of_atoms_a_box_and_a_gaussian_matches_brute_force():
    atoms = PointMassMixture([([0.8, -0.3], 0.25), ([-0.8, 0.3], 0.25), ([1.5, 1.5], 0.25), ([-1.5, -1.5], 0.25)])
    smooth = Mixture([(UniformBox([-1.0, -0.5], [1.0, 0.5]), 0.4), (Gaussian([0.0, 0.0], [[1.0, 0.6], [0.6, 2.0]]), 0.6)])
    measure = Mixture([(atoms, 0.3), (smooth, 0.7)])
    model = DeFinettiModel(GROUPS_2, StaticSequence(measure), TANH)
    exact = exact_margin_pmf(model, 8)
    assert abs(exact.total() - 1.0) < 1e-12
    assert exact.max_abs_diff(brute_force_pmf(model, 8)) < 1e-10


def test_an_atomic_mixture_calls_the_integrand_once_per_atom_half_at_any_level():
    """200 atoms in 3-D span 200^3 cells, above MIX_BUDGET, so they are
    summed in two halves; the other two atomic components are one grid each."""
    rng = np.random.default_rng(7)
    many = PointMassMixture([(x, 1 / 200) for x in rng.uniform(-1.0, 1.0, size=(200, 3))])
    few = PointMassMixture([([0.5, 0.5, 0.5], 0.5), ([-0.5, -0.5, -0.5], 0.5)])
    grid = Product([PointMassMixture([([-1.0], 0.5), ([1.0], 0.5)])] * 3)
    measure = Mixture([(many, 0.5), (Mixture([(few, 0.5), (grid, 0.5)]), 0.5)])
    calls = []

    def mass(axes, weights):
        calls.append(len(weights))
        return np.array([weights.sum()])

    for level in (0, 64, 4096):
        calls.clear()
        assert abs(models._node_sum(measure, mass, level)[0] - 1.0) < 1e-12
        assert len(calls) == 4 and max(calls) <= models.MIX_BUDGET
    calls.clear()
    assert abs(models._integrate(measure, mass)[0] - 1.0) < 1e-12
    assert len(calls) == 4


def test_pair_correlation_of_correlated_gaussian_matches_joint_route():
    model = contracted(Gaussian([0.0, 0.0], [[1.0, 0.7], [0.7, 2.0]]), 0.5, bias=TANH)
    n = 50
    measure = model.mixing_measure(n)

    def joint(level):
        axes, weights = measure.quad_nodes(level)
        return weights @ np.tanh(grid_points(axes)) ** 2

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
