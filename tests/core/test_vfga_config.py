"""Assignment-module configuration plumbing (backends, padding, CBS)."""

import numpy as np
import pytest

from repro.core import AssignmentConfig, ValueFunctionGuidedAssigner


def _assign_once(config, rng, num_brokers=20, batch=4):
    assigner = ValueFunctionGuidedAssigner(
        num_brokers, config, rng, batches_per_day=3
    )
    assigner.begin_day(np.full(num_brokers, 10.0))
    utilities = rng.uniform(0.05, 1.0, size=(batch, num_brokers))
    return assigner.assign_batch(0, 0, np.arange(batch), utilities), utilities


@pytest.mark.parametrize("backend", ["repro", "scipy"])
def test_backends_produce_equal_value(backend):
    rng = np.random.default_rng(4)
    utilities = rng.uniform(0.05, 1.0, size=(4, 20))
    results = {}
    for name in ("repro", backend):
        assigner = ValueFunctionGuidedAssigner(
            20,
            AssignmentConfig(use_value_function=False, matching_backend=name),
            np.random.default_rng(1),
            batches_per_day=3,
        )
        assigner.begin_day(np.full(20, 10.0))
        results[name] = assigner.assign_batch(0, 0, np.arange(4), utilities)
    assert results[backend].predicted_utility == pytest.approx(
        results["repro"].predicted_utility
    )


def test_pad_square_config_equivalent():
    rng = np.random.default_rng(4)
    utilities = rng.uniform(0.05, 1.0, size=(3, 15))
    values = {}
    for pad in (False, True):
        assigner = ValueFunctionGuidedAssigner(
            15,
            AssignmentConfig(use_value_function=False, matching_pad_square=pad),
            np.random.default_rng(1),
            batches_per_day=3,
        )
        assigner.begin_day(np.full(15, 10.0))
        values[pad] = assigner.assign_batch(0, 0, np.arange(3), utilities).predicted_utility
    assert values[True] == pytest.approx(values[False])


def test_cbs_reduces_candidate_pool(rng):
    config = AssignmentConfig(use_cbs=True, use_value_function=False)
    assignment, utilities = _assign_once(config, rng, num_brokers=40, batch=3)
    # All matched brokers must belong to some request's top-3 set
    # (the CBS guarantee), and the value equals the unpruned optimum.
    from repro.matching import solve_assignment

    full = solve_assignment(utilities)
    assert assignment.predicted_utility == pytest.approx(full.total_weight)
    top_sets = set()
    for row in range(3):
        top_sets.update(np.argsort(utilities[row])[-3:].tolist())
    for pair in assignment.pairs:
        assert pair.broker_id in top_sets
