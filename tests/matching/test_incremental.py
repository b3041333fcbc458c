"""Incremental KM solver: bit-identity with the cold reference in every mode."""

import numpy as np
import pytest

from repro.matching import solve_assignment
from repro.matching.incremental import IncrementalKMSolver
from repro.matching.validation import assert_valid_matching
from repro.state.protocol import StateError


def cold(weights):
    return solve_assignment(weights)


def assert_bit_identical(warm, weights):
    reference = cold(weights)
    assert warm.pairs == reference.pairs
    assert warm.total_weight == reference.total_weight  # bitwise, not approx
    assert_valid_matching(warm, weights)


def test_first_solve_is_cold_and_exact():
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.0, 5.0, size=(6, 10))
    solver = IncrementalKMSolver()
    assert_bit_identical(solver.solve(weights), weights)
    assert solver.stats["cold"] == 1
    assert solver.stats["hit"] == solver.stats["warm"] == 0


def test_identical_resolve_is_a_hit():
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.0, 5.0, size=(5, 8))
    solver = IncrementalKMSolver()
    first = solver.solve(weights)
    second = solver.solve(weights.copy())
    assert solver.stats["hit"] == 1
    assert second.pairs == first.pairs
    assert second.total_weight == first.total_weight
    # The hit returns a fresh result object, not an alias into the solver.
    second.pairs.append((99, 99))
    assert solver.solve(weights).pairs == first.pairs


def test_tail_row_delta_reinserts_only_the_tail():
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.0, 5.0, size=(8, 12))
    solver = IncrementalKMSolver()
    solver.solve(weights)
    perturbed = weights.copy()
    perturbed[6:] = rng.uniform(0.0, 5.0, size=(2, 12))
    before = solver.stats["rows_reinserted"]
    assert_bit_identical(solver.solve(perturbed), perturbed)
    assert solver.stats["warm"] == 1
    assert solver.stats["rows_reinserted"] - before == 2


def test_interior_delta_can_fast_forward():
    rng = np.random.default_rng(3)
    weights = rng.uniform(0.0, 5.0, size=(10, 30))
    solver = IncrementalKMSolver()
    solver.solve(weights)
    perturbed = weights.copy()
    # Make row 2's change value-irrelevant-looking but still a new value:
    # the solver must re-insert from row 3 (1-based) and may reconverge.
    perturbed[2] = rng.uniform(0.0, 5.0, size=30)
    assert_bit_identical(solver.solve(perturbed), perturbed)
    assert solver.stats["warm"] == 1
    # Fast-forward is opportunistic; when it fires, rows are skipped but
    # the result above already proved bit-identity either way.
    if solver.stats["fast_forward"]:
        assert solver.stats["rows_skipped"] > 0


def test_full_redraw_falls_back_to_cold():
    rng = np.random.default_rng(4)
    solver = IncrementalKMSolver()
    solver.solve(rng.uniform(0.0, 5.0, size=(6, 9)))
    redrawn = rng.uniform(0.0, 5.0, size=(6, 9))
    assert_bit_identical(solver.solve(redrawn), redrawn)
    assert solver.stats["cold"] == 2


def test_shape_change_falls_back_to_cold():
    rng = np.random.default_rng(5)
    solver = IncrementalKMSolver()
    solver.solve(rng.uniform(0.0, 5.0, size=(6, 9)))
    grown = rng.uniform(0.0, 5.0, size=(7, 11))
    assert_bit_identical(solver.solve(grown), grown)
    assert solver.stats["cold"] == 2


def test_tie_storm_matches_reference_tie_resolution():
    solver = IncrementalKMSolver()
    weights = np.full((5, 7), 2.0)
    assert_bit_identical(solver.solve(weights), weights)
    weights2 = weights.copy()
    weights2[4] = 1.0  # tail delta over a fully tied prefix
    assert_bit_identical(solver.solve(weights2), weights2)
    assert solver.stats["warm"] == 1


def test_transposed_orientation_with_broker_side_delta():
    # Tall matrix (requests > brokers): the oriented working matrix is the
    # transpose, so perturbing trailing *columns* (brokers) of the original
    # is the warm case, while perturbing trailing requests touches every
    # oriented row and goes cold.  Both must stay bit-identical.
    rng = np.random.default_rng(6)
    weights = rng.uniform(0.0, 5.0, size=(9, 4))
    solver = IncrementalKMSolver()
    assert_bit_identical(solver.solve(weights), weights)
    broker_delta = weights.copy()
    broker_delta[:, 3] = rng.uniform(0.0, 5.0, size=9)
    assert_bit_identical(solver.solve(broker_delta), broker_delta)
    assert solver.stats["warm"] == 1
    request_delta = broker_delta.copy()
    request_delta[8] = rng.uniform(0.0, 5.0, size=4)
    assert_bit_identical(solver.solve(request_delta), request_delta)
    assert solver.stats["cold"] == 2


def test_column_ids_change_forces_cold_solve():
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.0, 5.0, size=(4, 6))
    solver = IncrementalKMSolver()
    solver.solve(weights, column_ids=np.array([1, 2, 3, 5, 8, 13]))
    # Same values, different column identities: no reuse.
    assert_bit_identical(
        solver.solve(weights, column_ids=np.array([1, 2, 3, 5, 8, 21])), weights
    )
    assert solver.stats["cold"] == 2
    # Same identities again: full hit.
    solver.solve(weights, column_ids=np.array([1, 2, 3, 5, 8, 21]))
    assert solver.stats["hit"] == 1


def test_degenerate_shapes():
    solver = IncrementalKMSolver()
    assert solver.solve(np.zeros((0, 5))).pairs == []
    assert solver.solve(np.zeros((3, 0))).pairs == []
    single = np.array([[4.0]])
    assert_bit_identical(solver.solve(single), single)


def test_input_validation():
    solver = IncrementalKMSolver()
    with pytest.raises(ValueError):
        solver.solve(np.ones((2, 2)), maximize=False)
    with pytest.raises(ValueError):
        solver.solve(np.ones(3))
    with pytest.raises(ValueError):
        solver.solve(np.array([[1.0, np.nan]]))


def test_reset_forgets_the_trajectory():
    rng = np.random.default_rng(8)
    weights = rng.uniform(0.0, 5.0, size=(4, 6))
    solver = IncrementalKMSolver()
    solver.solve(weights)
    solver.reset()
    assert_bit_identical(solver.solve(weights), weights)
    assert solver.stats["cold"] == 2
    assert solver.stats["hit"] == 0


def test_snapshot_roundtrip_preserves_warm_behavior():
    rng = np.random.default_rng(9)
    weights = rng.uniform(0.0, 5.0, size=(6, 9))
    solver = IncrementalKMSolver()
    solver.solve(weights)
    snap = solver.snapshot()

    twin = IncrementalKMSolver()
    twin.restore(snap)
    assert twin.stats == solver.stats

    perturbed = weights.copy()
    perturbed[5] = rng.uniform(0.0, 5.0, size=9)
    from_twin = twin.solve(perturbed)
    from_original = solver.solve(perturbed)
    assert from_twin.pairs == from_original.pairs
    assert from_twin.total_weight == from_original.total_weight
    assert twin.stats == solver.stats
    assert twin.stats["warm"] == 1


def test_snapshot_before_any_solve_roundtrips():
    solver = IncrementalKMSolver()
    twin = IncrementalKMSolver()
    twin.restore(solver.snapshot())
    rng = np.random.default_rng(10)
    weights = rng.uniform(0.0, 5.0, size=(3, 5))
    assert_bit_identical(twin.solve(weights), weights)


def test_restore_rejects_inconsistent_snapshot():
    rng = np.random.default_rng(11)
    solver = IncrementalKMSolver()
    solver.solve(rng.uniform(0.0, 5.0, size=(3, 5)))
    snap = solver.snapshot()
    snap["payload"]["pairs"] = None  # trajectory present, result missing
    with pytest.raises(StateError):
        IncrementalKMSolver().restore(snap)


def test_long_mixed_sequence_stays_exact():
    rng = np.random.default_rng(12)
    solver = IncrementalKMSolver()
    current = rng.uniform(0.0, 5.0, size=(7, 11))
    for step in range(40):
        draw = step % 5
        if draw == 0:
            current = current.copy()
        elif draw == 4:
            current = rng.uniform(0.0, 5.0, size=(7, 11))
        else:
            current = current.copy()
            k = int(rng.integers(1, 4))
            current[7 - k:] = rng.uniform(0.0, 5.0, size=(k, 11))
        assert_bit_identical(solver.solve(current), current)
    assert solver.stats["hit"] > 0
    assert solver.stats["warm"] > 0
    assert solver.stats["cold"] > 0
