"""Ablation — CBS candidate-set size (Corollary 1 tightness).

Corollary 1 proves k = |R| candidates per request suffice for optimality.
This bench sweeps k below and above |R| on random batch instances and
measures (a) the retained fraction of the optimal matching value and
(b) the pruned-solve time: k < |R| starts losing utility, k = |R| is
exactly lossless, larger k only costs time.
"""

import time

import numpy as np

from repro.core.selection import select_candidate_brokers
from repro.experiments import format_table
from repro.matching import solve_assignment

NUM_BROKERS = 400
BATCH_SIZE = 8
TRIALS = 20


def _retention(k, rng):
    kept, durations = [], []
    for _ in range(TRIALS):
        utilities = rng.uniform(0.0, 1.0, size=(BATCH_SIZE, NUM_BROKERS))
        full = solve_assignment(utilities).total_weight
        tick = time.perf_counter()
        chosen = select_candidate_brokers(utilities, k)
        pruned = solve_assignment(utilities[:, chosen]).total_weight
        durations.append(time.perf_counter() - tick)
        kept.append(pruned / full)
    return float(np.mean(kept)), float(np.mean(durations))


def test_ablation_cbs_candidate_size(benchmark):
    rng = np.random.default_rng(3)
    sizes = [1, 2, 4, BATCH_SIZE, 2 * BATCH_SIZE]
    results = benchmark.pedantic(
        lambda: {k: _retention(k, rng) for k in sizes}, rounds=1, iterations=1
    )
    rows = [(k, kept, seconds) for k, (kept, seconds) in results.items()]
    print()
    print(
        format_table(
            ["candidates per request k", "retained optimal value", "prune+solve s"],
            rows,
            title=f"Ablation: CBS candidate size (|R| = {BATCH_SIZE}, |B| = {NUM_BROKERS})",
        )
    )
    # Corollary 1: k = |R| is lossless; k > |R| adds nothing.
    assert results[BATCH_SIZE][0] >= 1.0 - 1e-9
    assert results[2 * BATCH_SIZE][0] >= 1.0 - 1e-9
    # Under-pruning loses utility monotonically as k shrinks.
    assert results[1][0] < results[4][0] <= results[BATCH_SIZE][0] + 1e-9
