"""Ablation — linear vs neural reward model (the Sec. V-C motivation).

The paper replaces LinUCB's linear reward model because the sign-up-rate /
working-status relation is non-linear (Sec. II-A).  This bench runs the
same capacity-capped assignment with capacities chosen by (a) LinUCB
(Eq. 3) and (b) NN-enhanced UCB (Eq. 5) on a synthetic environment whose
reward structure is context-dependent, and compares total utility.
"""

import numpy as np

from repro.algorithms import make_matcher
from repro.bandits import LinUCBBandit
from repro.core.config import BanditConfig
from repro.experiments import format_table, run_algorithm
from repro.simulation import SyntheticConfig, generate_city

CONFIG = SyntheticConfig(
    num_brokers=150, num_requests=4500, num_days=10, imbalance=0.015, seed=1
)
SEEDS = (7, 17)


def _linucb_assignment(platform, seed):
    """AN with the neural reward model swapped for LinUCB."""
    matcher = make_matcher("AN", platform, seed=seed)
    matcher.estimator = LinUCBBandit(
        platform.context_dim, BanditConfig().candidate_capacities, alpha=0.1
    )
    matcher.name = "LinUCB+KM"
    return matcher


def test_ablation_linear_vs_neural_reward_model(benchmark):
    platform = generate_city(CONFIG)

    def run():
        linear = [
            run_algorithm(platform, _linucb_assignment(platform, seed)).total_realized_utility
            for seed in SEEDS
        ]
        neural = [
            run_algorithm(platform, make_matcher("AN", platform, seed=seed)).total_realized_utility
            for seed in SEEDS
        ]
        return np.mean(linear), np.mean(neural)

    linear, neural = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["reward model", "mean total utility"],
            [("LinUCB (Eq. 3)", linear), ("NN-enhanced UCB (Eq. 5)", neural)],
            title="Ablation: linear vs neural reward model",
        )
    )
    # The neural model captures the non-linear, context-dependent capacity
    # structure; the linear model cannot rank arms per broker.
    assert neural > linear
