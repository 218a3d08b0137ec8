from pathlib import Path

import numpy as np
import pytest

from votelim import QuadratureError, ResourceError, quadrature
from votelim.quadrature import (
    DEFAULT_CAP,
    DEFAULT_START,
    DEFAULT_TOL,
    NODE_GUARD,
    RULE_LEVELS,
    RULES_FILE,
    binned_rule,
    grid_points,
    legendre_rule,
    refine_until_stable,
    tensor_rule,
)


def test_tensor_rule_refuses_rules_above_the_node_budget():
    assert 256**2 <= NODE_GUARD < 64**4
    axes, weights = tensor_rule([-1.0, -1.0], [1.0, 1.0], 256)
    assert grid_points(axes).shape == (256**2, 2) and weights.sum() == pytest.approx(4.0)
    with pytest.raises(ResourceError, match="budget"):
        tensor_rule(-np.ones(4), np.ones(4), 64)


def test_binned_rule_sums_repeated_nodes_onto_a_grid():
    points = np.array([[0.5, 1.0], [-0.5, 1.0], [0.5, 1.0]])
    weights = np.array([0.25, 0.25, 0.5])
    axes, binned = binned_rule(points, weights)
    assert [a.tolist() for a in axes] == [[-0.5, 0.5], [1.0]]
    assert binned.tolist() == [0.25, 0.75]
    # one coordinate keeps its nodes in order, repeats included
    axes, binned = binned_rule(points[:, :1], weights)
    assert axes[0].tolist() == [0.5, -0.5, 0.5] and binned.tolist() == weights.tolist()
    k = 2100
    assert k * k > NODE_GUARD
    diagonal = np.repeat(np.arange(k, dtype=float)[:, None], 2, axis=1)
    with pytest.raises(ResourceError, match="budget"):
        binned_rule(diagonal, np.full(k, 1.0 / k))


def test_relative_tolerance_accepts_tiny_stable_values():
    # relative change 1e-12 / level, absolute change far above 1e-300
    def evaluate(level):
        return np.array([1e-200 * (1.0 + 1e-12 / level)])

    with pytest.raises(QuadratureError):
        refine_until_stable(evaluate, tol=1e-300)
    value, delta = refine_until_stable(evaluate, tol=1e-300, rtol=1e-9)
    assert value[0] == evaluate(128)[0]
    assert 0.0 < delta <= 1e-9 * value[0]


def test_absolute_tolerance_is_the_default_rule():
    levels = []

    def evaluate(level):
        levels.append(level)
        return np.array([1.0, 2.0 ** -level])

    value, delta = refine_until_stable(evaluate, tol=1e-12)
    assert delta <= 1e-12
    assert levels == [64, 128]
    assert value[0] == 1.0


def test_refinement_runs_from_the_default_start_to_the_default_cap():
    levels = []

    def evaluate(level):
        levels.append(level)
        return np.array([float(level)])

    with pytest.raises(QuadratureError, match=f"{DEFAULT_CAP} nodes/dim"):
        refine_until_stable(evaluate)
    assert levels[0] == DEFAULT_START and levels[-1] == DEFAULT_CAP
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
    # a rule is stored for every level the refinement asks for, and no other
    assert tuple(levels) == RULE_LEVELS
    assert np.load(RULES_FILE).shape == (2, sum(RULE_LEVELS) // 2)


@pytest.mark.parametrize("n", [n for n in RULE_LEVELS if n <= 1024])
def test_stored_rules_are_leggauss_bit_for_bit(n):
    nodes, weights = legendre_rule(n)
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == expected_nodes.tobytes()
    assert weights.tobytes() == expected_weights.tobytes()


@pytest.mark.parametrize("n", RULE_LEVELS)
def test_stored_rules_are_symmetric_and_integrate_even_powers(n):
    nodes, weights = legendre_rule(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert abs(weights.sum() - 2.0) <= 1e-14
    # leggauss's own weights at 2048 and 4096 nodes miss these moments by up
    # to 3.0e-13 and 5.5e-13 (in long double too), so the stored copies get
    # the refinement's tolerance there
    bound = 1e-13 if n <= 1024 else DEFAULT_TOL
    for k in range(1, 21):
        assert abs(weights @ nodes ** (2 * k) - 2.0 / (2 * k + 1)) <= bound


def test_stored_rules_are_read_only_and_other_levels_are_refused():
    nodes, weights = legendre_rule(DEFAULT_START)
    assert legendre_rule(DEFAULT_START)[0] is nodes
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    for n in (1, DEFAULT_START - 1, 3 * DEFAULT_START, 2 * DEFAULT_CAP):
        with pytest.raises(QuadratureError, match=f"no stored Gauss-Legendre rule has {n} nodes"):
            legendre_rule(n)


def test_the_rule_table_is_read_only_in_the_format_the_script_writes(tmp_path, monkeypatch):
    stored = np.load(RULES_FILE)
    path = tmp_path / "legendre_rules.npy"
    monkeypatch.setattr(quadrature, "RULES_FILE", str(path))
    read = quadrature._stored_halves.__wrapped__
    np.save(path, stored)
    assert np.array_equal(read(), stored)
    for wrong in (stored[:, :-1], stored.astype(np.float32), np.asfortranarray(stored)):
        np.save(path, wrong)
        with pytest.raises(QuadratureError, match="does not hold the stored"):
            read()
    path.write_bytes(Path(RULES_FILE).read_bytes()[:-8])
    with pytest.raises(QuadratureError, match="does not hold the stored"):
        read()
