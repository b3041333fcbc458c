"""AN baseline: the registry's LACB configuration with one shared bandit and
capacity-capped KM (no personalization, no value function, no CBS)."""

import numpy as np
import pytest

from repro.algorithms import LACBMatcher, make_matcher
from repro.bandits import NNUCBBandit
from repro.core.types import DayOutcome


@pytest.fixture
def matcher(tiny_platform):
    return make_matcher("AN", tiny_platform, seed=3)


def test_begin_day_installs_capacities(matcher, tiny_platform, rng):
    contexts = rng.normal(size=(tiny_platform.num_brokers, tiny_platform.context_dim))
    matcher.begin_day(0, contexts)
    capacities = matcher.assigner.capacities
    assert capacities.shape == (tiny_platform.num_brokers,)
    assert all(c in matcher.estimator.capacities for c in capacities)


def test_assignment_respects_estimated_capacity(matcher, tiny_platform, rng):
    num_brokers = tiny_platform.num_brokers
    matcher.begin_day(0, rng.normal(size=(num_brokers, tiny_platform.context_dim)))
    utilities = rng.uniform(0.1, 1.0, size=(3, num_brokers))
    for batch in range(30):
        matcher.assign_batch(0, batch, np.arange(3) + 3 * batch, utilities)
    assert np.all(matcher.assigner.workloads <= matcher.assigner.capacities)


def test_no_value_function_or_cbs(matcher):
    assert isinstance(matcher, LACBMatcher)
    assert matcher.name == "AN"
    assert matcher.config.personalize is False
    assert type(matcher.estimator) is NNUCBBandit  # one shared bandit
    assert matcher.assigner.config.use_value_function is False
    assert matcher.assigner.config.use_cbs is False


def test_end_day_feeds_bandit(matcher, tiny_platform, rng):
    num_brokers = tiny_platform.num_brokers
    contexts = rng.normal(size=(num_brokers, tiny_platform.context_dim))
    matcher.begin_day(0, contexts)
    workloads = np.zeros(num_brokers, dtype=int)
    workloads[[0, 2, 5]] = [3, 1, 2]
    outcome = DayOutcome(
        day=0,
        workloads=workloads,
        signup_rates=np.where(workloads > 0, 0.2, 0.0),
        realized_utility=np.where(workloads > 0, 0.5, 0.0),
    )
    before = matcher.estimator.num_updates
    matcher.end_day(0, outcome, contexts)
    assert matcher.estimator.num_updates == before + 3  # served brokers only
