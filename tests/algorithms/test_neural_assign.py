"""AN baseline: bandit-driven capacities + capacity-capped KM."""

import numpy as np

from repro.algorithms import NeuralUCBAssignment
from repro.core.config import BanditConfig
from repro.core.types import DayOutcome


def _matcher(rng, num_brokers=6, context_dim=4):
    config = BanditConfig(
        candidate_capacities=np.array([5.0, 10.0, 20.0]),
        hidden_sizes=(8,),
        min_arm_pulls=1,
    )
    return NeuralUCBAssignment(
        context_dim, num_brokers, rng, bandit_config=config, batches_per_day=3
    )


def test_begin_day_installs_capacities(rng):
    matcher = _matcher(rng)
    matcher.begin_day(0, rng.normal(size=(6, 4)))
    capacities = matcher.assigner.capacities
    assert capacities.shape == (6,)
    assert all(c in matcher.bandit.capacities for c in capacities)


def test_assignment_respects_estimated_capacity(rng):
    matcher = _matcher(rng)
    matcher.begin_day(0, rng.normal(size=(6, 4)))
    utilities = rng.uniform(0.1, 1.0, size=(3, 6))
    for batch in range(30):
        matcher.assign_batch(0, batch, np.arange(3) + 3 * batch, utilities)
    assert np.all(matcher.assigner.workloads <= matcher.assigner.capacities)


def test_no_value_function_or_cbs(rng):
    matcher = _matcher(rng)
    assert matcher.assigner.config.use_value_function is False
    assert matcher.assigner.config.use_cbs is False


def test_end_day_feeds_bandit(rng):
    matcher = _matcher(rng)
    contexts = rng.normal(size=(6, 4))
    matcher.begin_day(0, contexts)
    outcome = DayOutcome(
        day=0,
        workloads=np.array([3, 0, 1, 0, 0, 2]),
        signup_rates=np.array([0.2, 0.0, 0.1, 0.0, 0.0, 0.3]),
        realized_utility=np.array([0.5, 0.0, 0.1, 0.0, 0.0, 0.6]),
    )
    before = matcher.bandit.num_updates
    matcher.end_day(0, outcome, contexts)
    assert matcher.bandit.num_updates == before + 3  # served brokers only
