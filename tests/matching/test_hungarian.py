"""Hungarian solver: optimality vs independent oracles, padding modes.

Small instances solve on Python lists, larger ones on NumPy arrays
(``SMALL_KM_COLS``).  The shapes here mostly fall below that limit,
so the default solve runs the list path and ``repro-arrays`` forces the
array path on the same instances.
"""

import importlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.check.flow import min_cost_flow_assignment
from repro.check.property import contested_utilities
from repro.check.invariants import oracle_assignment
from repro.matching import (
    assert_valid_matching,
    greedy_assignment,
    hungarian,
    solve_assignment,
)
from repro.matching.hungarian import _hungarian_arrays, _hungarian_lists

#: The module, not the same-named function re-exported by repro.matching.
KM = importlib.import_module("repro.matching.hungarian")


def _array_path_solve(weights, pad_square=False):
    """``solve_assignment`` with every KM solve on the NumPy array path."""
    limit = KM.SMALL_KM_COLS
    KM.SMALL_KM_COLS = 0
    try:
        return solve_assignment(weights, pad_square)
    finally:
        KM.SMALL_KM_COLS = limit


#: The production KM solve (default dispatch, and forced onto the array
#: path) and the SciPy oracle, which follows the same zero-dummy convention.
SOLVERS = {
    "repro": solve_assignment,
    "repro-arrays": _array_path_solve,
    "scipy": oracle_assignment,
}


def test_square_minimization_matches_scipy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        cost = rng.normal(size=(n, n))
        col_of_row = hungarian(cost)
        ours = cost[np.arange(n), col_of_row].sum()
        rows, cols = linear_sum_assignment(cost)
        assert ours == pytest.approx(cost[rows, cols].sum())
        np.testing.assert_array_equal(_hungarian_lists(cost), _hungarian_arrays(cost))


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
    # Minimization goes through hungarian(), which needs rows <= columns;
    # solve_assignment only maximizes.
    with pytest.raises(ValueError):
        hungarian(rng.uniform(size=(5, 2)))
    with pytest.raises(TypeError):
        solve_assignment(rng.uniform(size=(2, 5)), maximize=False)


def test_unknown_backend(rng):
    # KM is the only solve path: there is no solver-selection argument.
    assert list(inspect.signature(solve_assignment).parameters) == ["weights", "pad_square"]
    with pytest.raises(TypeError):
        solve_assignment(rng.uniform(size=(2, 2)), backend="scipy")


@pytest.mark.parametrize("backend", sorted(SOLVERS))
def test_backends_agree(rng, backend):
    for _ in range(15):
        r, c = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        weights = rng.uniform(-0.5, 1, size=(r, c))
        reference = oracle_assignment(weights)
        result = SOLVERS[backend](weights)
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
    assert _array_path_solve(weights) == ours
    greedy = greedy_assignment(weights)
    assert greedy.total_weight <= ours.total_weight + 1e-9


# ----------------------------------------------------------------------
# Regression: zero-weight matched pairs must not be dropped
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(SOLVERS))
def test_zero_weight_pair_is_reported(backend):
    """A genuine zero-utility edge the solver selects is a real match.

    The dummy-padding filter used to discard any pair with weight 0, which
    silently unmatched requests whose best broker had exactly zero utility.
    Dummy columns are now recognised by column index, not by weight.
    """
    result = SOLVERS[backend](np.array([[0.0]]))
    assert result.pairs == [(0, 0)]
    assert result.total_weight == 0.0


@pytest.mark.parametrize("backend", sorted(SOLVERS))
def test_zero_weight_pair_survives_alongside_negative_column(backend):
    # The optimum matches row 0 to the zero column (0.0 > -2.0); that pair
    # must be reported even though its weight equals the dummy padding value.
    result = SOLVERS[backend](np.array([[0.0, -2.0]]))
    assert result.pairs == [(0, 0)]
    assert result.total_weight == 0.0


def test_zero_weight_pair_reported_with_pad_square():
    result = solve_assignment(np.array([[0.0]]), pad_square=True)
    assert result.pairs == [(0, 0)]


# ----------------------------------------------------------------------
# The array-path row insertion leaves the oracle's potentials, bit for bit
# ----------------------------------------------------------------------
def _wide_tied_weights(seed, shape):
    """Tied utilities with a few hot columns every row wants, so row
    insertions run past their first step."""
    return contested_utilities(np.random.default_rng(seed), shape)


@pytest.mark.parametrize("shape", [(30, 160), (10, 500), (12, 120)])
def test_array_path_potentials_match_the_oracle_bitwise(shape, monkeypatch):
    from repro.check.differential import reference_hungarian, reference_km_state

    weights = _wide_tied_weights(1, shape)
    cost = KM._padded_cost(weights, pad_square=False)
    assert cost.shape[1] > KM.SMALL_KM_COLS
    seen = []
    insert = KM._km_insert_row

    def spy(cost, u, v, row_of_col, way, row):
        seen.append((u, v, row_of_col))
        insert(cost, u, v, row_of_col, way, row)

    monkeypatch.setattr(KM, "_km_insert_row", spy)
    col_of_row = _hungarian_arrays(cost)
    u, v, row_of_col = seen[-1]
    ref_u, ref_v, ref_row_of_col = reference_km_state(cost)
    assert u.view(np.int64).tolist() == ref_u.view(np.int64).tolist()
    assert v.view(np.int64).tolist() == ref_v.view(np.int64).tolist()
    np.testing.assert_array_equal(row_of_col, ref_row_of_col)
    np.testing.assert_array_equal(col_of_row, reference_hungarian(cost))


def test_incremental_warm_equals_cold_on_wide_tied_instances():
    from repro.matching.incremental import IncrementalKMSolver

    rng = np.random.default_rng(4)
    weights = _wide_tied_weights(2, (30, 160))
    solver = IncrementalKMSolver()
    for step in range(6):
        result = solver.solve(weights)
        reference = solve_assignment(weights)
        assert result.pairs == reference.pairs
        assert result.total_weight == reference.total_weight  # bitwise
        # Redraw a trailing block of rows: the next solve resumes mid-way.
        first = int(rng.integers(1, weights.shape[0]))
        weights = weights.copy()
        weights[first:] = _wide_tied_weights(10 + step, (30 - first, 160))
    assert solver.stats["warm"] == 5
