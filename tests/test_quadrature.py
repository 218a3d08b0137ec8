import numpy as np
import pytest

from votelim import QuadratureError, ResourceError
from votelim.quadrature import (
    DEFAULT_CAP,
    DEFAULT_START,
    NODE_GUARD,
    refine_until_stable,
    tensor_rule,
)


def test_tensor_rule_refuses_rules_above_the_node_budget():
    assert 256**2 <= NODE_GUARD < 64**4
    points, weights = tensor_rule([-1.0, -1.0], [1.0, 1.0], 256)
    assert points.shape == (256**2, 2) and weights.sum() == pytest.approx(4.0)
    with pytest.raises(ResourceError, match="budget"):
        tensor_rule(-np.ones(4), np.ones(4), 64)


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
