"""Bipartite helpers: padding, match-result accessors, submatrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import MatchResult, pad_to_square


def test_pad_wider(rng):
    weights = rng.uniform(size=(2, 5))
    padded = pad_to_square(weights)
    assert padded.shape == (5, 5)
    np.testing.assert_array_equal(padded[:2, :], weights)
    assert np.all(padded[2:, :] == 0.0)


def test_pad_taller_with_fill(rng):
    weights = rng.uniform(size=(4, 2))
    padded = pad_to_square(weights, fill=-1.0)
    assert padded.shape == (4, 4)
    np.testing.assert_array_equal(padded[:, :2], weights)
    assert np.all(padded[:, 2:] == -1.0)


def test_pad_square_returns_copy(rng):
    weights = rng.uniform(size=(3, 3))
    padded = pad_to_square(weights)
    padded[0, 0] += 1.0
    assert weights[0, 0] != padded[0, 0]


def test_pad_rejects_non_matrix():
    with pytest.raises(ValueError):
        pad_to_square(np.zeros(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_pad_shape_property(rows, cols):
    padded = pad_to_square(np.ones((rows, cols)))
    side = max(rows, cols)
    assert padded.shape == (side, side)
    assert padded.sum() == rows * cols  # fill contributes nothing


def test_match_result_accessors():
    result = MatchResult(pairs=[(0, 3), (2, 1)], total_weight=1.5)
    assert len(result) == 2
    assert len(MatchResult()) == 0
