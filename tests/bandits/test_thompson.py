"""Neural Thompson sampling: stochastic scores, learning behaviour."""

import numpy as np

from repro.bandits import NeuralThompsonBandit, make_thompson_bandit
from repro.core.config import BanditConfig


def _bandit(rng, **overrides):
    defaults = dict(
        candidate_capacities=np.array([10.0, 20.0, 30.0]),
        hidden_sizes=(16, 8),
        min_arm_pulls=1,
        epsilon=0.05,
        alpha=0.05,
    )
    defaults.update(overrides)
    return NeuralThompsonBandit(3, BanditConfig(**defaults), rng)


def test_scores_are_stochastic(rng):
    bandit = _bandit(rng)
    context = rng.normal(size=3)
    first = bandit.ucb_scores(context)
    second = bandit.ucb_scores(context)
    assert not np.allclose(first, second)


def test_posterior_mean_deterministic(rng):
    """The posterior means (the noise-free part of the Thompson score)."""
    bandit = _bandit(rng)
    context = rng.normal(size=3)
    np.testing.assert_array_equal(bandit.arm_parts(context)[0], bandit.arm_parts(context)[0])


def test_estimate_returns_candidate(rng):
    bandit = _bandit(rng)
    assert bandit.estimate(rng.normal(size=3)) in bandit.capacities


def test_convenience_constructor(rng):
    bandit = make_thompson_bandit(5, rng)
    assert bandit.capacities.size > 0
    assert bandit.network.input_dim == 5 + 1 + bandit.capacities.size


def test_learns_best_arm(rng):
    """Regret shrinks as the posterior concentrates (same env as UCB test)."""
    bandit = _bandit(rng, epsilon=0.1, batch_size=8, train_epochs=3)
    caps = bandit.capacities

    def true_reward(context, capacity):
        best = 20.0 if context[0] > 0 else 30.0
        return 0.3 - 0.01 * abs(capacity - best) / 5.0

    regrets = []
    for _ in range(600):
        context = rng.normal(size=3)
        capacity = bandit.estimate(context)
        reward = true_reward(context, capacity) + rng.normal(0, 0.01)
        bandit.update(context, capacity, reward, capacity=capacity)
        oracle = max(true_reward(context, c) for c in caps)
        regrets.append(oracle - true_reward(context, capacity))
    assert np.mean(regrets[-150:]) < np.mean(regrets[:150])


def test_shares_training_machinery(rng):
    """TS inherits the replay / stratified training of the UCB base."""
    bandit = _bandit(rng, batch_size=4)
    context = rng.normal(size=3)
    for _ in range(4):
        bandit.update(context, 10, 0.2)
    assert bandit.num_train_steps > 0
    assert not bandit._buffer
