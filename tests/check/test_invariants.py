"""repro.check.invariants: each invariant fires on bad input, not on good."""

import numpy as np
import pytest

from repro.check import invariants
from repro.core.types import AssignedPair, Assignment
from repro.matching.bipartite import MatchResult


def _assignment(pairs):
    return Assignment(day=0, batch=0, pairs=[AssignedPair(*p) for p in pairs])


@pytest.fixture
def utilities():
    return np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


# ----------------------------------------------------------------------
# check_batch_assignment
# ----------------------------------------------------------------------
def test_valid_batch_passes(utilities):
    assignment = _assignment([(10, 2, 3.0), (11, 1, 5.0)])
    assert invariants.check_batch_assignment(
        assignment, np.array([10, 11]), utilities, one_to_one=True
    ) == []


def test_unknown_request_detected(utilities):
    assignment = _assignment([(99, 0, 1.0)])
    found = invariants.check_batch_assignment(assignment, np.array([10, 11]), utilities)
    assert [v.invariant for v in found] == ["batch.unknown_request"]


def test_duplicate_request_detected(utilities):
    assignment = _assignment([(10, 0, 1.0), (10, 1, 2.0)])
    found = invariants.check_batch_assignment(assignment, np.array([10, 11]), utilities)
    assert "batch.duplicate_request" in [v.invariant for v in found]


def test_out_of_range_broker_detected(utilities):
    assignment = _assignment([(10, 7, 1.0)])
    found = invariants.check_batch_assignment(assignment, np.array([10, 11]), utilities)
    assert [v.invariant for v in found] == ["batch.unknown_broker"]


def test_duplicate_broker_only_for_one_to_one(utilities):
    assignment = _assignment([(10, 1, 2.0), (11, 1, 5.0)])
    ids = np.array([10, 11])
    relaxed = invariants.check_batch_assignment(assignment, ids, utilities)
    assert relaxed == []  # recommenders may share a broker within a batch
    strict = invariants.check_batch_assignment(
        assignment, ids, utilities, one_to_one=True
    )
    assert [v.invariant for v in strict] == ["batch.duplicate_broker"]


def test_utility_mismatch_detected(utilities):
    assignment = _assignment([(10, 1, 2.5)])
    found = invariants.check_batch_assignment(assignment, np.array([10, 11]), utilities)
    assert [v.invariant for v in found] == ["batch.utility_mismatch"]


def test_violations_carry_location(utilities):
    assignment = Assignment(day=3, batch=2, pairs=[AssignedPair(99, 0, 1.0)])
    (violation,) = invariants.check_batch_assignment(
        assignment, np.array([10]), utilities[:1], algorithm="KM"
    )
    assert (violation.day, violation.batch, violation.algorithm) == (3, 2, "KM")


# ----------------------------------------------------------------------
# check_capacity_feasibility
# ----------------------------------------------------------------------
def test_capacity_respected_passes():
    assignment = _assignment([(10, 0, 1.0), (11, 0, 1.0)])
    found = invariants.check_capacity_feasibility(
        assignment, capacities=np.array([2.0, 1.0]), booked_before=np.zeros(2, int)
    )
    assert found == []


def test_capacity_exceeded_detected():
    # Broker 0 has capacity 1; the second pair matches it at workload 1.
    assignment = _assignment([(10, 0, 1.0), (11, 0, 1.0)])
    found = invariants.check_capacity_feasibility(
        assignment, capacities=np.array([1.0, 1.0]), booked_before=np.zeros(2, int)
    )
    assert [v.invariant for v in found] == ["capacity.exceeded"]


def test_broker_outside_b_plus_detected():
    # Broker already at capacity before the batch: not in B+.
    assignment = _assignment([(10, 0, 1.0)])
    found = invariants.check_capacity_feasibility(
        assignment, capacities=np.array([2.0]), booked_before=np.array([2])
    )
    assert [v.invariant for v in found] == ["capacity.exceeded"]


def test_booked_before_is_not_mutated():
    booked = np.zeros(2, int)
    invariants.check_capacity_feasibility(
        _assignment([(10, 0, 1.0)]), np.array([5.0, 5.0]), booked
    )
    assert booked.tolist() == [0, 0]


# ----------------------------------------------------------------------
# check_day_accounting
# ----------------------------------------------------------------------
def test_day_accounting_consistent_passes():
    booked = np.array([2, 0, 1])
    assert invariants.check_day_accounting(0, booked, booked.copy(), booked.copy()) == []


def test_day_accounting_outcome_mismatch():
    found = invariants.check_day_accounting(
        0, np.array([2, 0]), outcome_workloads=np.array([1, 0])
    )
    assert [v.invariant for v in found] == ["day.outcome_workload_mismatch"]


def test_day_accounting_assigner_mismatch():
    found = invariants.check_day_accounting(
        0, np.array([2, 0]), assigner_workloads=np.array([2, 1])
    )
    assert [v.invariant for v in found] == ["day.assigner_workload_mismatch"]


def test_day_accounting_skips_none_sources():
    assert invariants.check_day_accounting(0, np.array([3])) == []


# ----------------------------------------------------------------------
# check_km_optimality
# ----------------------------------------------------------------------
def test_optimal_matching_passes():
    weights = np.array([[2.0, 1.0], [1.0, 3.0]])
    match = MatchResult(pairs=[(0, 0), (1, 1)], total_weight=5.0)
    assert invariants.check_km_optimality(weights, match) == []


def test_suboptimal_matching_detected():
    weights = np.array([[2.0, 1.0], [1.0, 3.0]])
    match = MatchResult(pairs=[(0, 1), (1, 0)], total_weight=2.0)
    found = invariants.check_km_optimality(weights, match)
    assert [v.invariant for v in found] == ["solver.suboptimal"]


def test_wrong_total_detected():
    weights = np.array([[2.0, 1.0], [1.0, 3.0]])
    match = MatchResult(pairs=[(0, 0), (1, 1)], total_weight=7.0)
    found = invariants.check_km_optimality(weights, match)
    assert "solver.total_mismatch" in [v.invariant for v in found]


def test_invalid_structure_detected():
    weights = np.array([[2.0, 1.0]])
    match = MatchResult(pairs=[(0, 0), (0, 1)], total_weight=3.0)
    found = invariants.check_km_optimality(weights, match)
    assert [v.invariant for v in found] == ["solver.invalid_matching"]


def test_oracle_uses_partial_matching_semantics():
    # The forced-full-matching optimum is 2.5 (cross pairing), but leaving
    # row 1 unmatched yields 3.0 — the oracle must know rows may stay
    # unmatched at zero gain, so the 2.5 matching is flagged suboptimal
    # while the partial 3.0 one passes.
    weights = np.array([[3.0, 2.0], [0.5, -1.0]])
    full = MatchResult(pairs=[(0, 1), (1, 0)], total_weight=2.5)
    found = invariants.check_km_optimality(weights, full)
    assert [v.invariant for v in found] == ["solver.suboptimal"]
    partial = MatchResult(pairs=[(0, 0)], total_weight=3.0)
    assert invariants.check_km_optimality(weights, partial) == []


def test_empty_matching_on_empty_matrix_passes():
    assert invariants.check_km_optimality(np.zeros((0, 3)), MatchResult()) == []


# ----------------------------------------------------------------------
# oracle_assignment (the SciPy oracle)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 5)])
def test_oracle_assignment_matches_km_under_zero_dummy_convention(shape):
    from repro.matching import assert_valid_matching, solve_assignment

    weights = np.random.default_rng(2).uniform(-1.0, 1.0, size=shape)
    oracle = invariants.oracle_assignment(weights)
    assert isinstance(oracle, MatchResult)
    assert_valid_matching(oracle, weights)
    # Negative edges are never forced: an unmatched row gains zero.
    assert all(weights[row, col] >= 0.0 for row, col in oracle.pairs)
    assert oracle.total_weight == invariants.oracle_optimum(weights)
    assert oracle.total_weight == pytest.approx(solve_assignment(weights).total_weight)


def test_oracle_assignment_on_empty_matrix():
    assert invariants.oracle_assignment(np.zeros((0, 4))) == MatchResult()


def test_oracle_assignment_exported_lazily_from_repro_check():
    import repro.check

    assert repro.check.oracle_assignment is invariants.oracle_assignment
    assert not hasattr(invariants, "_oracle_optimum")


# ----------------------------------------------------------------------
# check_cbs_preservation
# ----------------------------------------------------------------------
def test_cbs_preserving_columns_pass():
    weights = np.array([[5.0, 1.0, 4.0], [2.0, 0.5, 3.0]])
    assert invariants.check_cbs_preservation(weights, np.array([0, 2])) == []


def test_cbs_losing_columns_detected():
    weights = np.array([[5.0, 1.0, 4.0], [2.0, 0.5, 3.0]])
    found = invariants.check_cbs_preservation(weights, np.array([1]))
    assert [v.invariant for v in found] == ["cbs.weight_not_preserved"]
