"""Diagnostic — how much of the oracle skyline does learned estimation reach?

The oracle matcher runs the same assignment module with the ground-truth
effective capacities the simulator hides from every real algorithm; the
gap between LACB and the oracle is the price of *learning* capacities
online (Challenge 1 of the paper).  The bench reports the fraction of the
skyline each estimator attains and asserts the learned schemes recover a
substantial share while the capacity-unaware baselines do not.
"""

import numpy as np

from repro.algorithms import make_matcher
from repro.algorithms.oracle import OracleCapacityMatcher
from repro.experiments import format_table, run_algorithm
from repro.simulation import SyntheticConfig, generate_city

CONFIG = SyntheticConfig(
    num_brokers=150, num_requests=4500, num_days=12, imbalance=0.015, seed=1
)
SEEDS = (7, 17)


def test_capacity_estimation_gap(benchmark):
    platform = generate_city(CONFIG)

    def run():
        # The oracle draws no randomness: one run stands for every seed.
        oracle = run_algorithm(platform, OracleCapacityMatcher(platform)).total_realized_utility
        attained = {}
        for name in ("Top-3", "CTop-3", "AN", "LACB"):
            utilities = [
                run_algorithm(
                    platform, make_matcher(name, platform, seed=seed)
                ).total_realized_utility
                for seed in SEEDS
            ]
            attained[name] = float(np.mean(utilities) / oracle)
        return oracle, attained

    oracle, attained = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("Oracle (ground-truth capacities)", 1.0)]
    rows += [(name, fraction) for name, fraction in attained.items()]
    print()
    print(
        format_table(
            ["capacity source", "fraction of skyline utility"],
            rows,
            title=f"Capacity-estimation gap (oracle = {oracle:.1f})",
        )
    )
    # Learned estimation recovers a substantial share of the skyline...
    assert attained["LACB"] > 0.6
    assert attained["AN"] > 0.5
    # ...which capacity-ignorance cannot.
    assert attained["Top-3"] < attained["LACB"]
    assert attained["CTop-3"] < attained["LACB"] + 0.15
