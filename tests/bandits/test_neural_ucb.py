"""NN-enhanced UCB: Alg. 1 mechanics and best-arm learning."""

import numpy as np
import pytest

from repro.bandits import NNUCBBandit
from repro.check import differential
from repro.core.config import BanditConfig


def _bandit(rng, **overrides):
    defaults = dict(
        candidate_capacities=np.array([10.0, 20.0, 30.0, 40.0]),
        hidden_sizes=(16, 8),
        min_arm_pulls=1,
        epsilon=0.05,
    )
    defaults.update(overrides)
    return NNUCBBandit(3, BanditConfig(**defaults), rng)


def test_rejects_bad_context_dim(rng):
    with pytest.raises(ValueError):
        NNUCBBandit(0, BanditConfig(), rng)


def test_input_includes_onehot_arms(rng):
    bandit = _bandit(rng)
    # context(3) + scalar capacity + one-hot(4 arms)
    assert bandit.network.input_dim == 3 + 1 + 4


def test_estimate_returns_candidate_and_updates_covariance(rng):
    bandit = _bandit(rng)
    before = bandit._d_diag.copy()
    capacity = bandit.estimate(rng.normal(size=3))
    assert capacity in bandit.capacities
    assert np.any(bandit._d_diag > before)


def test_forced_coverage_pulls_every_arm(rng):
    bandit = _bandit(rng, min_arm_pulls=2, epsilon=0.0)
    for _ in range(8):
        bandit.estimate(rng.normal(size=3))
    assert bandit._arm_pulls.min() >= 2


def test_buffer_trains_at_batch_size(rng):
    bandit = _bandit(rng, batch_size=4)
    context = rng.normal(size=3)
    for _ in range(3):
        bandit.update(context, 10, 0.2)
    assert bandit.num_train_steps == 0
    bandit.update(context, 10, 0.2)
    assert bandit.num_train_steps > 0
    assert not bandit._buffer


def test_flush_trains_partial_buffer(rng):
    bandit = _bandit(rng, batch_size=16)
    bandit.update(rng.normal(size=3), 10, 0.2)
    bandit.flush()
    assert bandit.num_train_steps > 0


def test_train_on_capacity_stores_arm(rng):
    bandit = _bandit(rng, batch_size=100, train_on="capacity")
    bandit.update(rng.normal(size=3), workload=3, reward=0.1, capacity=30.0)
    assert bandit._buffer[-1].workload == 30
    bandit_w = _bandit(rng, batch_size=100, train_on="workload")
    bandit_w.update(rng.normal(size=3), workload=3, reward=0.1, capacity=30.0)
    assert bandit_w._buffer[-1].workload == 3


def test_exploration_bonus_shrinks_with_data(rng):
    bandit = _bandit(rng)
    context = rng.normal(size=3)
    gradient = bandit.network.param_gradient(bandit._features(context, 10.0))
    before = bandit.exploration_bonus(gradient)
    for _ in range(30):
        bandit.estimate(context)
    after = bandit.exploration_bonus(gradient)
    assert after < before


def test_full_covariance_mode(rng):
    bandit = _bandit(rng, covariance="full", hidden_sizes=(4,))
    context = rng.normal(size=3)
    capacity = bandit.estimate(context)
    assert capacity in bandit.capacities
    gradient = bandit.network.param_gradient(bandit._features(context, capacity))
    assert bandit.exploration_bonus(gradient) >= 0.0


def test_full_covariance_matches_sherman_morrison(rng):
    bandit = _bandit(rng, covariance="full", hidden_sizes=(4,))
    dim = bandit.network.num_params
    explicit = np.eye(dim) * bandit.config.lam
    for _ in range(5):
        gradient = rng.normal(size=dim)
        bandit._update_covariance(gradient)
        explicit += np.outer(gradient, gradient)
    np.testing.assert_allclose(bandit._d_inv, np.linalg.inv(explicit), atol=1e-8)


def test_learns_context_dependent_best_arm(rng):
    """The core Alg. 1 claim: regret shrinks as the bandit learns."""
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
    early = np.mean(regrets[:150])
    late = np.mean(regrets[-150:])
    assert late < early


def test_theorem1_parameters(rng):
    bandit = _bandit(rng)
    depth, num_arms, xi = bandit.theorem1_parameters()
    assert depth == 3  # two hidden layers + output
    assert num_arms == 4
    assert xi > 0


# ----------------------------------------------------------------------
# Regression: tie-break must pick the smallest capacity *value*
# ----------------------------------------------------------------------
def test_tiebreak_prefers_smallest_capacity_on_unsorted_grid(rng):
    """`_pick` used to take the lowest *index* within the tolerance band,
    which silently assumed an ascending capacity grid — on an unsorted
    grid the "conservative indifference" rule handed out the wrong arm."""
    bandit = _bandit(
        rng,
        candidate_capacities=np.array([40.0, 8.0, 16.0]),
        min_arm_pulls=0,
        epsilon=0.0,
    )
    flat_scores = lambda context: np.zeros(bandit.capacities.size)
    chosen = bandit._pick(flat_scores, rng.normal(size=3))
    assert bandit.capacities[chosen] == 8.0


def test_tiebreak_unchanged_on_sorted_grid(rng):
    bandit = _bandit(rng, min_arm_pulls=0, epsilon=0.0)
    flat_scores = lambda context: np.ones(bandit.capacities.size)
    chosen = bandit._pick(flat_scores, rng.normal(size=3))
    assert chosen == 0  # grid [10, 20, 30, 40]: smallest value is index 0


def test_tiebreak_ignores_arms_outside_tolerance(rng):
    bandit = _bandit(
        rng,
        candidate_capacities=np.array([40.0, 8.0, 16.0]),
        min_arm_pulls=0,
        epsilon=0.0,
        tie_tolerance=0.05,
    )
    # Arm 2 is clearly best; arm 1 (capacity 8) is far below the band.
    scores = lambda context: np.array([0.96, 0.1, 1.0])
    chosen = bandit._pick(scores, rng.normal(size=3))
    assert chosen == 2


# ----------------------------------------------------------------------
# Regression: replay arms must bucket identically on both train_on paths
# ----------------------------------------------------------------------
def test_workload_replay_buckets_by_rounding(rng):
    """`int(workload)` truncated, so workloads 4.9 and 5.0 landed in two
    different stratified-sample strata despite being one arm bucket."""
    bandit = _bandit(rng, batch_size=64, train_on="workload")
    context = rng.normal(size=3)
    for workload in (4.9, 5.0, 5.2, 4.6):
        bandit.update(context, workload, 0.3)
    arms = {triple.workload for triple in bandit._buffer}
    assert arms == {5}


def test_stratified_sample_sees_one_stratum_for_tied_workloads(rng):
    bandit = _bandit(rng, batch_size=2, train_on="workload", replay_sample=8)
    context = rng.normal(size=3)
    bandit.update(context, 4.9, 0.3)
    bandit.update(context, 5.0, 0.4)  # triggers training; replay now holds both
    arms = np.unique([triple.workload for triple in bandit._replay])
    assert arms.size == 1
    picked = bandit._stratified_sample()
    assert picked.size == min(2, bandit.config.replay_sample)


def test_capacity_and_workload_paths_bucket_identically(rng):
    capacity_bandit = _bandit(rng, batch_size=64, train_on="capacity")
    workload_bandit = _bandit(rng, batch_size=64, train_on="workload")
    context = rng.normal(size=3)
    capacity_bandit.update(context, 4.9, 0.3, capacity=4.9)
    workload_bandit.update(context, 4.9, 0.3)
    assert capacity_bandit._buffer[0].workload == workload_bandit._buffer[0].workload


# ----------------------------------------------------------------------
# Batched (fast) vs per-sample (reference) scoring
# ----------------------------------------------------------------------
def test_fast_and_reference_scores_agree(rng, monkeypatch):
    bandit = _bandit(rng, min_arm_pulls=0, epsilon=0.0)
    # A little training so the network and covariance are non-trivial.
    for _ in range(20):
        context = rng.normal(size=3)
        capacity = bandit.estimate(context)
        bandit.update(context, capacity, float(rng.uniform()), capacity=capacity)
    bandit.flush()
    for _ in range(5):
        context = rng.normal(size=3)
        fast = bandit.ucb_scores(context)
        fast_arm = bandit._pick(bandit.ucb_scores, context)
        with monkeypatch.context() as patch:
            patch.setattr(NNUCBBandit, "arm_bonuses", differential.reference_arm_bonuses)
            reference = bandit.ucb_scores(context)
            reference_arm = bandit._pick(bandit.ucb_scores, context)
        np.testing.assert_allclose(fast, reference, rtol=1e-9, atol=1e-12)
        assert fast_arm == reference_arm


def test_exploration_bonuses_matches_scalar_loop_diagonal(rng):
    bandit = _bandit(rng)
    gradients = rng.normal(size=(6, bandit.network.num_params))
    batched = differential.exploration_bonuses(bandit, gradients)
    scalar = np.array([bandit.exploration_bonus(g) for g in gradients])
    np.testing.assert_array_equal(batched, scalar)


def test_exploration_bonuses_matches_scalar_loop_full(rng):
    bandit = _bandit(rng, covariance="full", hidden_sizes=(6,))
    gradients = rng.normal(size=(4, bandit.network.num_params))
    batched = differential.exploration_bonuses(bandit, gradients)
    scalar = np.array([bandit.exploration_bonus(g) for g in gradients])
    np.testing.assert_array_equal(batched, scalar)


def test_arm_feature_rows_matches_per_arm_features(rng):
    bandit = _bandit(rng)
    context = rng.normal(size=3)
    rows = bandit.arm_feature_rows(context)
    reference = np.stack([bandit._features(context, c) for c in bandit.capacities])
    np.testing.assert_array_equal(rows, reference)
