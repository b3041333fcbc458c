"""Regret accounting and the Theorem 1 bound (Sec. V-E).

The regret of the capacity estimator is the gap between the sign-up rates
an oracle choosing the best candidate capacity would have collected and
those the learned policy actually collected (Eq. 7).  Theorem 1 bounds it
by ``n |C| xi^L / pi^(L-1)`` where ``xi`` is the largest singular value
among the reward network's weight matrices.
"""

from __future__ import annotations

import numpy as np


def theorem1_bound(num_batches: int, num_arms: int, depth: int, xi: float) -> float:
    """The Theorem 1 regret bound ``n |C| xi^L / pi^(L-1)``.

    Args:
        num_batches: number of trials ``n``.
        num_arms: number of candidate capacities ``|C|``.
        depth: network depth ``L``.
        xi: maximum singular value over the network's weight matrices.
    """
    if min(num_batches, num_arms, depth) <= 0:
        raise ValueError("num_batches, num_arms and depth must be positive")
    if xi < 0:
        raise ValueError(f"xi must be non-negative, got {xi}")
    return num_batches * num_arms * xi**depth / np.pi ** (depth - 1)


class RegretTracker:
    """Accumulates per-trial regret against an oracle's best arm.

    Usage: at each trial, report the reward actually obtained and the
    vector of (ground-truth expected) rewards of every candidate arm.
    """

    def __init__(self) -> None:
        self._instantaneous: list[float] = []

    def record(self, obtained_reward: float, oracle_rewards: np.ndarray) -> float:
        """Record one trial; returns the instantaneous regret.

        Args:
            obtained_reward: the reward the policy actually collected.
            oracle_rewards: expected reward of every candidate capacity
                under the trial's context (ground truth).
        """
        oracle_rewards = np.asarray(oracle_rewards, dtype=float)
        if oracle_rewards.size == 0:
            raise ValueError("oracle_rewards must be non-empty")
        regret = float(oracle_rewards.max() - obtained_reward)
        self._instantaneous.append(regret)
        return regret

    @property
    def num_trials(self) -> int:
        """Number of recorded trials ``n``."""
        return len(self._instantaneous)

    @property
    def cumulative_regret(self) -> float:
        """Total regret over all recorded trials (Eq. 7)."""
        return float(np.sum(self._instantaneous))
