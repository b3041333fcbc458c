"""Auction oracle: exactness vs Hungarian, validation, not a backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.auction import auction_assignment
from repro.matching import assert_valid_matching, solve_assignment


def test_parameter_validation(rng):
    with pytest.raises(ValueError):
        auction_assignment(np.zeros(3))
    with pytest.raises(ValueError):
        auction_assignment(np.array([[1.0, -0.2]]))
    with pytest.raises(ValueError):
        auction_assignment(np.ones((2, 2)), scaling_factor=1.0)


def test_empty_and_zero():
    assert auction_assignment(np.zeros((0, 3))).pairs == []
    result = auction_assignment(np.zeros((3, 3)))
    assert result.pairs == [] and result.total_weight == 0.0


def test_known_instance():
    weights = np.array(
        [
            [0.9, 0.1, 0.1],
            [0.1, 0.8, 0.2],
            [0.2, 0.3, 0.7],
        ]
    )
    result = auction_assignment(weights)
    assert result.pairs == [(0, 0), (1, 1), (2, 2)]
    assert result.total_weight == pytest.approx(2.4)


def test_tall_matrix(rng):
    weights = rng.uniform(0.05, 1.0, size=(9, 4))
    result = auction_assignment(weights)
    assert_valid_matching(result, weights)
    reference = solve_assignment(weights)
    assert result.total_weight == pytest.approx(reference.total_weight, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10_000))
def test_matches_hungarian_property(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
    result = auction_assignment(weights)
    reference = solve_assignment(weights)
    assert_valid_matching(result, weights)
    assert result.total_weight == pytest.approx(reference.total_weight, abs=1e-6)


def test_not_a_production_backend(rng):
    with pytest.raises(ValueError, match="unknown backend"):
        solve_assignment(rng.uniform(size=(3, 3)), backend="auction")
