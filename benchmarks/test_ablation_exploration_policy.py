"""Ablation — exploration principle: optimism (UCB) vs posterior sampling.

The paper picks the UCB principle for its capacity bandit (Sec. V-C);
Thompson sampling is the other standard choice in the cited literature.
Both share the identical network, covariance and training machinery here
(see ``repro.bandits.thompson``), so this bench isolates the exploration
rule in the clean bandit environment and end-to-end through AN-style
assignment.
"""

import numpy as np

from repro.algorithms import make_matcher
from repro.bandits import NeuralThompsonBandit, NNUCBBandit, RegretTracker
from repro.core.config import BanditConfig
from repro.experiments import format_table, run_algorithm
from repro.simulation import SyntheticConfig, generate_city

TRIALS = 400
CONFIG = SyntheticConfig(
    num_brokers=150, num_requests=4500, num_days=10, imbalance=0.015, seed=1
)


def _bandit_regret(cls, rng):
    caps = np.array([10.0, 20.0, 30.0])
    bandit = cls(
        3,
        BanditConfig(
            candidate_capacities=caps,
            hidden_sizes=(16, 8),
            min_arm_pulls=1,
            epsilon=0.05,
            alpha=0.05,
            batch_size=8,
        ),
        rng,
    )
    tracker = RegretTracker()
    for _ in range(TRIALS):
        context = rng.normal(size=3)
        best = 20.0 if context[0] > 0 else 30.0
        rewards = np.array([0.3 - 0.02 * abs(c - best) / 10.0 for c in caps])
        capacity = bandit.estimate(context)
        arm = int(np.nonzero(caps == capacity)[0][0])
        bandit.update(context, capacity, rewards[arm] + rng.normal(0, 0.01), capacity=capacity)
        tracker.record(rewards[arm], rewards)
    return tracker.cumulative_regret


def _end_to_end(cls, platform, seed):
    matcher = make_matcher("AN", platform, seed=seed)
    if cls is NeuralThompsonBandit:
        matcher.estimator = NeuralThompsonBandit(
            platform.context_dim, matcher.estimator.config, np.random.default_rng(seed)
        )
        matcher.name = "AN-TS"
    return run_algorithm(platform, matcher).total_realized_utility


def test_ablation_exploration_policy(benchmark):
    platform = generate_city(CONFIG)

    def run():
        outcomes = {}
        for label, cls in (("UCB", NNUCBBandit), ("Thompson", NeuralThompsonBandit)):
            regret = _bandit_regret(cls, np.random.default_rng(11))
            utilities = [_end_to_end(cls, platform, seed) for seed in (7, 17)]
            outcomes[label] = (regret, float(np.mean(utilities)))
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (label, regret, utility) for label, (regret, utility) in outcomes.items()
    ]
    print()
    print(
        format_table(
            ["exploration", f"bandit regret ({TRIALS} trials)", "end-to-end utility"],
            rows,
            title="Ablation: optimism (UCB) vs posterior sampling (Thompson)",
        )
    )
    # Both principles must work; neither collapses (the paper's choice of
    # UCB is a design preference, not a hard requirement).
    for label, (regret, utility) in outcomes.items():
        assert regret < 0.5 * (0.04 * TRIALS), label
        assert utility > 0, label
    ucb, ts = outcomes["UCB"][1], outcomes["Thompson"][1]
    assert min(ucb, ts) > 0.75 * max(ucb, ts)
