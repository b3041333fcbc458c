"""Candidate Broker Selection (Alg. 3) and the Theorem 2 property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import quickselect_union
from repro.core import candidate_broker_selection, select_candidate_brokers
from repro.core.selection import topk_selection_mask
from repro.matching import solve_assignment


def test_k_geq_size_returns_all(rng):
    utilities = rng.uniform(size=6)
    chosen = candidate_broker_selection(utilities, 10, rng)
    np.testing.assert_array_equal(np.sort(chosen), np.arange(6))


def test_k_zero_empty(rng):
    assert candidate_broker_selection(rng.uniform(size=5), 0, rng).size == 0


def test_rejects_matrix_input(rng):
    with pytest.raises(ValueError):
        candidate_broker_selection(rng.uniform(size=(2, 3)), 1, rng)


def test_handles_all_equal_values(rng):
    utilities = np.full(20, 0.5)
    chosen = candidate_broker_selection(utilities, 7, rng)
    assert chosen.size == 7
    assert np.unique(chosen).size == 7


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 15), st.integers(0, 10_000))
def test_quickselect_matches_argpartition(size, k, seed):
    """CBS returns exactly a top-k index set (values match a sorted oracle)."""
    rng = np.random.default_rng(seed)
    utilities = rng.uniform(0, 1, size=size)
    chosen = candidate_broker_selection(utilities, k, rng)
    expected_k = min(k, size)
    assert chosen.size == expected_k
    assert np.unique(chosen).size == expected_k
    oracle = np.sort(utilities)[::-1][:expected_k]
    np.testing.assert_allclose(np.sort(utilities[chosen])[::-1], oracle)


def test_union_selection_shape(rng):
    utilities = rng.uniform(size=(4, 30))
    chosen = select_candidate_brokers(utilities, 4, rng)
    assert chosen.size >= 4  # each request contributes its own top-4
    assert chosen.size <= 16
    assert np.all(np.diff(chosen) > 0)  # sorted unique


def test_rejects_vector_for_union(rng):
    with pytest.raises(ValueError):
        select_candidate_brokers(rng.uniform(size=5), 2, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(8, 40), st.integers(0, 10_000))
def test_theorem2_cbs_preserves_optimal_value(n_requests, n_brokers, seed):
    """Corollary 1: matching on the CBS-pruned graph loses no utility."""
    rng = np.random.default_rng(seed)
    utilities = rng.uniform(0.0, 1.0, size=(n_requests, n_brokers))
    full = solve_assignment(utilities)
    chosen = select_candidate_brokers(utilities, n_requests, rng)
    pruned = solve_assignment(utilities[:, chosen])
    assert pruned.total_weight == pytest.approx(full.total_weight)


# ----------------------------------------------------------------------
# Regression: non-finite utilities must raise, not loop forever
# ----------------------------------------------------------------------
def test_nan_utilities_raise(rng):
    """A NaN pivot makes every quickselect partition empty, so the
    recursion used to spin forever; non-finite input is now rejected."""
    utilities = np.array([0.3, np.nan, 0.7])
    with pytest.raises(ValueError, match="finite"):
        candidate_broker_selection(utilities, 2, rng)


def test_infinite_utilities_raise(rng):
    with pytest.raises(ValueError, match="finite"):
        candidate_broker_selection(np.array([0.3, np.inf]), 1, rng)


def test_nan_utilities_raise_for_union(rng):
    with pytest.raises(ValueError, match="finite"):
        select_candidate_brokers(np.array([[0.1, np.nan], [0.2, 0.3]]), 1, rng)


# ----------------------------------------------------------------------
# The argpartition fast kernel vs the quickselect reference
# ----------------------------------------------------------------------
def test_topk_mask_counts_and_membership(rng):
    utilities = rng.uniform(size=(5, 30))
    mask = topk_selection_mask(utilities, 7)
    assert mask.shape == utilities.shape
    np.testing.assert_array_equal(mask.sum(axis=1), np.full(5, 7))


def test_topk_mask_edge_sizes(rng):
    utilities = rng.uniform(size=(3, 8))
    assert topk_selection_mask(utilities, 0).sum() == 0
    assert topk_selection_mask(utilities, 8).all()
    assert topk_selection_mask(utilities, 99).all()
    assert topk_selection_mask(np.empty((0, 8)), 3).shape == (0, 8)
    assert topk_selection_mask(np.empty((4, 0)), 3).shape == (4, 0)


def test_topk_mask_breaks_ties_by_lowest_index():
    # Boundary value 1.0 is triple-tied; quickselect keeps the
    # lowest-indexed ties, so the mask must do the same.
    utilities = np.array([[1.0, 2.0, 1.0, 1.0, 0.5]])
    mask = topk_selection_mask(utilities, 3)
    np.testing.assert_array_equal(np.flatnonzero(mask[0]), [0, 1, 2])


def test_topk_mask_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        topk_selection_mask(np.array([[0.1, np.nan]]), 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 12), st.integers(0, 10_000))
def test_fast_union_matches_quickselect_union(n_rows, n_cols, k, seed):
    """select_candidate_brokers returns the quickselect oracle's union exactly."""
    case_rng = np.random.default_rng(seed)
    # Coarse quantization forces heavy boundary ties, the adversarial case.
    utilities = case_rng.integers(0, 4, size=(n_rows, n_cols)).astype(float)
    fast = select_candidate_brokers(utilities, k, case_rng)
    reference = quickselect_union(utilities, k)
    np.testing.assert_array_equal(fast, reference)


def test_union_selection_consumes_no_caller_randomness(rng):
    """Batch pruning must not advance the engine's shared generator.

    Seeded-run bit-identity against the oracles rests on this: the
    argpartition kernel draws nothing at all, and the quickselect oracle
    takes its pivots from a private stream (the output is
    pivot-independent).
    """
    utilities = np.random.default_rng(0).uniform(size=(4, 20))
    for select in (select_candidate_brokers, quickselect_union):
        caller = np.random.default_rng(99)
        select(utilities, 4, caller)
        untouched = np.random.default_rng(99)
        assert caller.integers(1 << 30) == untouched.integers(1 << 30)
