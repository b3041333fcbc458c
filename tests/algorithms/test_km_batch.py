"""Per-batch KM: optimality within a batch, capacity obliviousness."""

import numpy as np
import pytest

from repro.algorithms import BatchKMMatcher
from repro.matching import solve_assignment


def test_batch_is_optimal(rng):
    matcher = BatchKMMatcher()
    utilities = rng.uniform(0.05, 1.0, size=(5, 12))
    assignment = matcher.assign_batch(0, 0, np.arange(5), utilities)
    optimal = solve_assignment(utilities)
    assert assignment.predicted_utility == pytest.approx(optimal.total_weight)


def test_one_request_per_broker_within_batch(rng):
    matcher = BatchKMMatcher()
    utilities = rng.uniform(0.05, 1.0, size=(6, 10))
    assignment = matcher.assign_batch(0, 0, np.arange(6), utilities)
    brokers = [pair.broker_id for pair in assignment.pairs]
    assert len(brokers) == len(set(brokers))


def test_no_memory_across_batches(rng):
    """KM is capacity-oblivious: the same broker can win every batch."""
    matcher = BatchKMMatcher()
    utilities = np.zeros((1, 4))
    utilities[0, 2] = 0.9
    matcher.begin_day(0, np.zeros((4, 2)))
    winners = []
    for batch in range(5):
        assignment = matcher.assign_batch(0, batch, np.array([batch]), utilities)
        winners.append(assignment.pairs[0].broker_id)
    assert winners == [2] * 5


def test_pad_square_same_result(rng):
    # The matcher's rectangular solve reaches the optimum of the paper's
    # square-padded |B| x |B| formulation (Sec. VI-B).
    utilities = rng.uniform(0.05, 1.0, size=(3, 15))
    fast = BatchKMMatcher().assign_batch(0, 0, np.arange(3), utilities)
    square = solve_assignment(utilities, pad_square=True)
    assert fast.predicted_utility == pytest.approx(square.total_weight)


def test_empty_batch():
    matcher = BatchKMMatcher()
    assignment = matcher.assign_batch(0, 0, np.array([], dtype=int), np.zeros((0, 4)))
    assert len(assignment) == 0
