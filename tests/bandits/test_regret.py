"""Regret accounting and the Theorem 1 bound."""

import numpy as np
import pytest

from repro.bandits import NNUCBBandit, RegretTracker, theorem1_bound
from repro.core.config import BanditConfig


def test_bound_formula():
    # n |C| xi^L / pi^(L-1)
    assert theorem1_bound(10, 4, 1, 2.0) == pytest.approx(10 * 4 * 2.0)
    assert theorem1_bound(10, 4, 3, 2.0) == pytest.approx(10 * 4 * 8.0 / np.pi**2)


def test_bound_validation():
    with pytest.raises(ValueError):
        theorem1_bound(0, 4, 3, 2.0)
    with pytest.raises(ValueError):
        theorem1_bound(10, 4, 3, -1.0)


def test_tracker_records():
    tracker = RegretTracker()
    assert tracker.num_trials == 0
    regret = tracker.record(0.2, np.array([0.1, 0.5]))
    assert regret == pytest.approx(0.3)
    tracker.record(0.5, np.array([0.1, 0.5]))
    assert tracker.num_trials == 2
    assert tracker.cumulative_regret == pytest.approx(0.3)


def test_tracker_rejects_empty_oracle():
    with pytest.raises(ValueError):
        RegretTracker().record(0.1, np.array([]))


def test_empirical_regret_under_theorem1_bound(rng):
    """Run the NN-UCB bandit and confirm the bound dominates its regret."""
    caps = np.array([10.0, 20.0, 30.0])
    bandit = NNUCBBandit(
        2,
        BanditConfig(
            candidate_capacities=caps,
            hidden_sizes=(8,),
            min_arm_pulls=1,
            epsilon=0.1,
            batch_size=8,
        ),
        rng,
    )
    tracker = RegretTracker()

    def reward_curve(context):
        best = 20.0 if context[0] > 0 else 30.0
        return np.array([0.3 - 0.02 * abs(c - best) / 10.0 for c in caps])

    for _ in range(200):
        context = rng.normal(size=2)
        rewards = reward_curve(context)
        capacity = bandit.estimate(context)
        arm = int(np.nonzero(caps == capacity)[0][0])
        observed = rewards[arm] + rng.normal(0, 0.01)
        bandit.update(context, capacity, observed, capacity=capacity)
        tracker.record(rewards[arm], rewards)

    depth, num_arms, xi = bandit.theorem1_parameters()
    bound = theorem1_bound(tracker.num_trials, num_arms, depth, xi)
    assert tracker.cumulative_regret <= bound
    # The bound should not be vacuously tight: regret per trial is small.
    assert tracker.cumulative_regret / tracker.num_trials < 0.05
