"""Greedy matcher: validity, approximation guarantee, edge filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import assert_valid_matching, greedy_assignment, solve_assignment


def test_takes_heaviest_edges_first():
    weights = np.array([[0.9, 0.5], [0.8, 0.1]])
    result = greedy_assignment(weights)
    # 0.9 first, blocking (1, 0); then (1, 1) at 0.1.
    assert dict(result.pairs) == {0: 0, 1: 1}
    assert result.total_weight == pytest.approx(1.0)


def test_min_weight_filters_edges():
    weights = np.array([[0.9, 0.5], [0.8, 0.1]])
    result = greedy_assignment(weights, min_weight=0.2)
    assert dict(result.pairs) == {0: 0}


def test_skips_nonpositive_edges():
    weights = np.array([[0.0, -0.5]])
    assert greedy_assignment(weights).pairs == []


def test_rejects_non_matrix():
    with pytest.raises(ValueError):
        greedy_assignment(np.zeros(4))


def test_ties_resolve_to_smallest_row_col():
    # Regression: reversing an ascending argsort resolved equal weights to
    # the *largest* flat index, so an all-tie row matched its last column.
    result = greedy_assignment(np.array([[0.5, 0.5, 0.5]]))
    assert result.pairs == [(0, 0)]
    # Ties across rows likewise fill in ascending (row, col) order.
    square = greedy_assignment(np.full((2, 2), 0.7))
    assert square.pairs == [(0, 0), (1, 1)]


def test_tie_order_matches_exact_backends_on_uniform_matrix():
    weights = np.full((3, 5), 0.3)
    greedy = greedy_assignment(weights)
    exact = solve_assignment(weights)
    assert greedy.pairs == exact.pairs


def test_negative_min_weight_is_rejected():
    # Regression: a negative floor used to be silently overridden by the
    # nonpositive-edge cutoff; the contract is now pinned as an error.
    with pytest.raises(ValueError, match="min_weight"):
        greedy_assignment(np.array([[0.5, -0.2]]), min_weight=-1.0)


def test_zero_min_weight_still_skips_nonpositive_edges():
    result = greedy_assignment(np.array([[0.0, -0.5, 0.4]]), min_weight=0.0)
    assert result.pairs == [(0, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_half_approximation_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 1.0, size=(rows, cols))
    greedy = greedy_assignment(weights)
    optimal = solve_assignment(weights)
    assert_valid_matching(greedy, weights)
    assert greedy.total_weight >= 0.5 * optimal.total_weight - 1e-9
    assert greedy.total_weight <= optimal.total_weight + 1e-9
