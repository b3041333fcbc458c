"""LACB matcher: wiring of estimation, assignment and feedback."""

import numpy as np

from repro.algorithms import LACBMatcher
from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
from repro.core.config import AssignmentConfig, BanditConfig, LACBConfig
from repro.core.types import DayOutcome


def _config(**assignment_overrides):
    return LACBConfig(
        bandit=BanditConfig(
            candidate_capacities=np.array([5.0, 10.0, 20.0]),
            hidden_sizes=(8,),
            min_arm_pulls=1,
        ),
        assignment=AssignmentConfig(**assignment_overrides),
        warmup_days=1,
    )


def test_name_reflects_cbs(rng):
    plain = LACBMatcher(4, 6, rng, _config(use_cbs=False), batches_per_day=3)
    opt = LACBMatcher(4, 6, np.random.default_rng(0), _config(use_cbs=True), batches_per_day=3)
    assert plain.name == "LACB"
    assert opt.name == "LACB-Opt"


def test_personalization_toggle(rng):
    personalized = LACBMatcher(4, 6, rng, _config(), batches_per_day=3)
    assert isinstance(personalized.estimator, PersonalizedCapacityEstimator)
    config = _config()
    config.personalize = False
    generic = LACBMatcher(4, 6, np.random.default_rng(0), config, batches_per_day=3)
    assert isinstance(generic.estimator, NNUCBBandit)


def test_day_cycle_updates_state(rng):
    matcher = LACBMatcher(4, 6, rng, _config(), batches_per_day=3)
    contexts = rng.normal(size=(6, 4))
    matcher.begin_day(0, contexts)
    assert matcher.estimated_capacities.shape == (6,)
    utilities = rng.uniform(0.1, 1.0, size=(2, 6))
    assignment = matcher.assign_batch(0, 0, np.array([0, 1]), utilities)
    assert len(assignment) == 2
    outcome = DayOutcome(
        day=0,
        workloads=np.array([1, 1, 0, 0, 0, 0]),
        signup_rates=np.array([0.2, 0.1, 0, 0, 0, 0]),
        realized_utility=np.array([0.3, 0.2, 0, 0, 0, 0]),
    )
    base = matcher.estimator.base
    before = base.num_updates
    matcher.end_day(0, outcome, contexts)
    assert base.num_updates == before + 2


def test_personalization_waits_for_warmup(rng):
    matcher = LACBMatcher(4, 6, rng, _config(), batches_per_day=3)
    contexts = rng.normal(size=(6, 4))
    outcome = DayOutcome(
        day=0,
        workloads=np.array([2, 0, 0, 0, 0, 0]),
        signup_rates=np.array([0.2, 0, 0, 0, 0, 0]),
        realized_utility=np.array([0.4, 0, 0, 0, 0, 0]),
    )
    matcher.begin_day(0, contexts)
    matcher.end_day(0, outcome, contexts)  # day 0 < warmup_days=1
    assert not matcher.estimator._history
    matcher.begin_day(1, contexts)
    outcome1 = DayOutcome(
        day=1,
        workloads=outcome.workloads,
        signup_rates=outcome.signup_rates,
        realized_utility=outcome.realized_utility,
    )
    matcher.end_day(1, outcome1, contexts)
    assert 0 in matcher.estimator._history


def test_bandit_reward_is_signup_rate(rng):
    matcher = LACBMatcher(4, 2, rng, _config(), batches_per_day=2)
    contexts = rng.normal(size=(2, 4))
    matcher.begin_day(0, contexts)
    outcome = DayOutcome(
        day=0,
        workloads=np.array([4, 0]),
        signup_rates=np.array([0.37, 0.0]),
        realized_utility=np.array([1.5, 0.0]),
    )
    matcher.end_day(0, outcome, contexts)
    stored = matcher.estimator.base._buffer[-1]
    assert stored.reward == 0.37
