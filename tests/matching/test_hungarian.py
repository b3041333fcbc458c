"""Hungarian solver: optimality vs independent oracles, padding modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.check.flow import min_cost_flow_assignment
from repro.matching import (
    assert_valid_matching,
    greedy_assignment,
    hungarian,
    solve_assignment,
)


def test_square_minimization_matches_scipy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        cost = rng.normal(size=(n, n))
        col_of_row = hungarian(cost)
        ours = cost[np.arange(n), col_of_row].sum()
        rows, cols = linear_sum_assignment(cost)
        assert ours == pytest.approx(cost[rows, cols].sum())


def test_rectangular_requires_rows_leq_cols(rng):
    with pytest.raises(ValueError):
        hungarian(rng.normal(size=(5, 3)))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_empty_matrix():
    assert hungarian(np.zeros((0, 0))).size == 0
    result = solve_assignment(np.zeros((0, 5)))
    assert result.pairs == [] and result.total_weight == 0.0


def test_known_instance():
    # Classic 3x3 assignment with a unique optimum.
    weights = np.array(
        [
            [0.9, 0.1, 0.1],
            [0.1, 0.8, 0.2],
            [0.2, 0.3, 0.7],
        ]
    )
    result = solve_assignment(weights)
    assert result.pairs == [(0, 0), (1, 1), (2, 2)]
    assert result.total_weight == pytest.approx(2.4)


def test_unmatched_preferred_over_negative_edge():
    weights = np.array([[-1.0, -2.0], [0.5, -3.0]])
    result = solve_assignment(weights)
    assert result.pairs == [(1, 0)]
    assert result.total_weight == pytest.approx(0.5)


def test_transposed_orientation(rng):
    weights = rng.uniform(0, 1, size=(8, 3))
    result = solve_assignment(weights)
    assert_valid_matching(result, weights)
    flipped = solve_assignment(weights.T)
    assert result.total_weight == pytest.approx(flipped.total_weight)


def test_minimize_rectangular_rejected(rng):
    with pytest.raises(ValueError):
        solve_assignment(rng.uniform(size=(2, 5)), maximize=False)


def test_unknown_backend(rng):
    with pytest.raises(ValueError):
        solve_assignment(rng.uniform(size=(2, 2)), backend="torch")


@pytest.mark.parametrize("backend", ["repro", "scipy"])
def test_backends_agree(rng, backend):
    for _ in range(15):
        r, c = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        weights = rng.uniform(0, 1, size=(r, c))
        reference = solve_assignment(weights, backend="scipy")
        result = solve_assignment(weights, backend=backend)
        assert result.total_weight == pytest.approx(reference.total_weight)
        assert_valid_matching(result, weights)


def test_pad_square_equivalent(rng):
    for shape in [(3, 20), (10, 10), (7, 40)]:
        weights = rng.uniform(0, 1, size=shape)
        rect = solve_assignment(weights)
        square = solve_assignment(weights, pad_square=True)
        assert square.total_weight == pytest.approx(rect.total_weight)
        assert_valid_matching(square, weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10_000))
def test_optimality_against_min_cost_flow(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
    ours = solve_assignment(weights)
    flow = min_cost_flow_assignment(weights)
    assert ours.total_weight == pytest.approx(flow.total_weight)
    assert_valid_matching(ours, weights)
    greedy = greedy_assignment(weights)
    assert greedy.total_weight <= ours.total_weight + 1e-9


# ----------------------------------------------------------------------
# Regression: zero-weight matched pairs must not be dropped
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["repro", "scipy"])
def test_zero_weight_pair_is_reported(backend):
    """A genuine zero-utility edge the solver selects is a real match.

    The dummy-padding filter used to discard any pair with weight 0, which
    silently unmatched requests whose best broker had exactly zero utility.
    Dummy columns are now recognised by column index, not by weight.
    """
    result = solve_assignment(np.array([[0.0]]), backend=backend)
    assert result.pairs == [(0, 0)]
    assert result.total_weight == 0.0


@pytest.mark.parametrize("backend", ["repro", "scipy"])
def test_zero_weight_pair_survives_alongside_negative_column(backend):
    # The optimum matches row 0 to the zero column (0.0 > -2.0); that pair
    # must be reported even though its weight equals the dummy padding value.
    result = solve_assignment(np.array([[0.0, -2.0]]), backend=backend)
    assert result.pairs == [(0, 0)]
    assert result.total_weight == 0.0


def test_zero_weight_pair_reported_with_pad_square():
    result = solve_assignment(np.array([[0.0]]), pad_square=True)
    assert result.pairs == [(0, 0)]
