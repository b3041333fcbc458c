"""Assignment-module configuration plumbing (fields, CBS)."""

import dataclasses

import numpy as np
import pytest

from repro.core import AssignmentConfig, ValueFunctionGuidedAssigner


def _assign_once(config, rng, num_brokers=20, batch=4):
    assigner = ValueFunctionGuidedAssigner(num_brokers, config, batches_per_day=3)
    assigner.begin_day(np.full(num_brokers, 10.0))
    utilities = rng.uniform(0.05, 1.0, size=(batch, num_brokers))
    return assigner.assign_batch(0, 0, np.arange(batch), utilities), utilities


@pytest.mark.parametrize("backend", ["repro", "scipy"])
def test_backends_produce_equal_value(backend):
    # KM is the only solve path; its assignment must reach the optimum that
    # both the solver itself and the independent SciPy oracle report.
    from repro.check.invariants import oracle_assignment
    from repro.matching import solve_assignment

    reference = {"repro": solve_assignment, "scipy": oracle_assignment}[backend]
    rng = np.random.default_rng(4)
    utilities = rng.uniform(0.05, 1.0, size=(4, 20))
    assigner = ValueFunctionGuidedAssigner(
        20,
        AssignmentConfig(use_value_function=False),
        batches_per_day=3,
    )
    assigner.begin_day(np.full(20, 10.0))
    assignment = assigner.assign_batch(0, 0, np.arange(4), utilities)
    assert assignment.predicted_utility == pytest.approx(reference(utilities).total_weight)


def test_config_fields_are_the_paper_hyperparameters():
    # beta, gamma, delta and the two ablation switches; no solver options.
    assert [f.name for f in dataclasses.fields(AssignmentConfig)] == [
        "learning_rate",
        "discount",
        "threshold",
        "use_value_function",
        "use_cbs",
    ]


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
