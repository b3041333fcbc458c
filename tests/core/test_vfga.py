"""Value Function Guided Assignment (Alg. 2): capacity caps, CBS, bookkeeping."""

import numpy as np
import pytest

from repro.core import AssignmentConfig, ValueFunctionGuidedAssigner


def _assigner(num_brokers=6, **config_overrides):
    config = AssignmentConfig(**config_overrides)
    return ValueFunctionGuidedAssigner(num_brokers, config, batches_per_day=4)


def test_begin_day_validates_shape():
    assigner = _assigner()
    with pytest.raises(ValueError):
        assigner.begin_day(np.ones(3))


def test_capacity_cap_enforced_within_day(rng):
    assigner = _assigner(num_brokers=3)
    assigner.begin_day(np.array([1.0, 1.0, 10.0]))
    # Broker 2 is best for everyone; brokers 0/1 have capacity 1 each.
    utilities = np.array([[0.5, 0.4, 0.9]])
    served = []
    for batch in range(4):
        assignment = assigner.assign_batch(0, batch, np.array([batch]), utilities)
        served.extend(pair.broker_id for pair in assignment.pairs)
    # Broker 2 can serve all four batches; nobody exceeds their cap.
    assert assigner.workloads[0] <= 1
    assert assigner.workloads[1] <= 1
    assert assigner.workloads[2] <= 10


def test_no_available_brokers_returns_empty(rng):
    assigner = _assigner(num_brokers=2)
    assigner.begin_day(np.array([0.0, 0.0]))
    assignment = assigner.assign_batch(0, 0, np.array([0]), np.ones((1, 2)))
    assert len(assignment) == 0


def test_empty_batch(rng):
    assigner = _assigner()
    assigner.begin_day(np.full(6, 5.0))
    assignment = assigner.assign_batch(0, 0, np.array([], dtype=int), np.zeros((0, 6)))
    assert len(assignment) == 0


def test_utilities_shape_validated(rng):
    assigner = _assigner()
    assigner.begin_day(np.full(6, 5.0))
    with pytest.raises(ValueError):
        assigner.assign_batch(0, 0, np.array([1, 2]), np.ones((2, 5)))


def test_one_request_per_broker_per_batch(rng):
    assigner = _assigner(num_brokers=4)
    assigner.begin_day(np.full(4, 10.0))
    utilities = rng.uniform(0.1, 1.0, size=(3, 4))
    assignment = assigner.assign_batch(0, 0, np.arange(3), utilities)
    brokers = [pair.broker_id for pair in assignment.pairs]
    assert len(brokers) == len(set(brokers))
    assert len(assignment) == 3


def test_capacity_hit_frequency(rng):
    assigner = _assigner(num_brokers=2)
    assigner.begin_day(np.array([1.0, 5.0]))
    assigner.assign_batch(0, 0, np.array([0]), np.array([[0.9, 0.1]]))
    assigner.end_day()
    frequency = assigner.capacity_hit_frequency
    assert frequency[0] == pytest.approx(1.0)
    assert frequency[1] == pytest.approx(0.0)


def test_cbs_preserves_batch_utility(rng):
    base = _assigner(num_brokers=30, use_cbs=False,
                     use_value_function=False)
    pruned = _assigner(num_brokers=30, use_cbs=True,
                       use_value_function=False)
    utilities = rng.uniform(0.05, 1.0, size=(4, 30))
    base.begin_day(np.full(30, 10.0))
    pruned.begin_day(np.full(30, 10.0))
    a = base.assign_batch(0, 0, np.arange(4), utilities)
    b = pruned.assign_batch(0, 0, np.arange(4), utilities)
    assert a.predicted_utility == pytest.approx(b.predicted_utility)


def test_value_function_updates_on_assignment(rng):
    assigner = _assigner(use_value_function=True)
    assigner.begin_day(np.full(6, 5.0))
    before = assigner.value_function.num_updates
    assigner.assign_batch(0, 0, np.arange(2), rng.uniform(0.1, 1, size=(2, 6)))
    assert assigner.value_function.num_updates > before


def test_refinement_waits_for_frequency_history(rng):
    assigner = _assigner(num_brokers=2, use_value_function=True)
    assigner.begin_day(np.array([5.0, 5.0]))
    utilities = np.array([[0.5, 0.4]])
    refined = assigner._refine(utilities, np.array([0, 1]), time_fraction=0.0)
    np.testing.assert_array_equal(refined, utilities)  # too few days seen


def test_time_fraction_is_batch_over_batches_per_day(rng):
    assigner = _assigner(num_brokers=3)
    assert assigner._time_fraction(0) == 0.0
    assert assigner._time_fraction(2) == 0.5
    assert assigner._time_fraction(4) == 1.0


@pytest.mark.parametrize("batches_per_day", [None, 0])
def test_batches_per_day_is_required(batches_per_day):
    with pytest.raises((TypeError, ValueError)):
        ValueFunctionGuidedAssigner(3, AssignmentConfig(), batches_per_day=batches_per_day)
    with pytest.raises(TypeError):
        ValueFunctionGuidedAssigner(3, AssignmentConfig())


def test_retired_time_axis_state_not_snapshotted():
    snapshot = _assigner().snapshot()["payload"]
    assert not {"max_batch_seen", "frozen_batches", "pending_td"} & set(snapshot)


def test_assigner_draws_no_randomness():
    # CBS is deterministic, so the assigner holds no generator to snapshot.
    assigner = _assigner(use_cbs=True)
    assert not hasattr(assigner, "rng")
    assert "rng" not in assigner.snapshot()["payload"]


def test_explicit_batches_per_day_updates_immediately(rng):
    assigner = _assigner(num_brokers=2, use_value_function=True)
    assigner.begin_day(np.full(2, 5.0))
    before = assigner.value_function.num_updates
    assigner.assign_batch(0, 0, np.array([0]), rng.uniform(0.1, 1.0, size=(1, 2)))
    assert assigner.value_function.num_updates > before
