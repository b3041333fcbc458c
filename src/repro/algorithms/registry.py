"""Factory for the compared algorithms, keyed by the paper's names."""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Matcher
from repro.algorithms.ctopk import ConstrainedTopKRecommender
from repro.algorithms.greedy_batch import GreedyBatchMatcher
from repro.algorithms.km_batch import BatchKMMatcher
from repro.algorithms.lacb import LACBMatcher
from repro.algorithms.random_rec import RandomizedRecommender
from repro.algorithms.topk import TopKRecommender
from repro.core.config import AssignmentConfig, LACBConfig
from repro.simulation.platform import RealEstatePlatform

#: Names accepted by :func:`make_matcher`, in the paper's reporting order
#: ("Greedy" is an extra baseline from the online-assignment literature).
ALGORITHM_NAMES = (
    "Top-1",
    "Top-3",
    "RR",
    "Greedy",
    "KM",
    "CTop-1",
    "CTop-3",
    "AN",
    "LACB",
    "LACB-Opt",
)

#: Default city-level empirical capacity for CTop-K on synthetic datasets
#: (the real-like cities override it with their Table IV values 45/55/40).
#: Chosen the way the paper describes — from the knee of the city-level
#: sign-up-vs-workload curve of the synthetic population (Fig. 2 analogue).
DEFAULT_EMPIRICAL_CAPACITY = 28.0


def make_matcher(
    name: str,
    platform: RealEstatePlatform,
    seed: int = 0,
    empirical_capacity: float | None = None,
) -> Matcher:
    """Build a compared algorithm with paper-default settings.

    Args:
        name: one of :data:`ALGORITHM_NAMES`.
        platform: the environment the matcher will run against (supplies
            pool size and context dimension).
        seed: matcher-private randomness seed.
        empirical_capacity: CTop-K's city-level capacity (Table IV values
            for the real-like cities; 28 by default).

    Every algorithm runs on the platform's fixed time windows
    (``platform.batches_per_day``).  Config ablations build the matcher
    classes directly, e.g. ``LACBMatcher(..., config)``.
    """
    rng = np.random.default_rng(seed)
    capacity = (
        DEFAULT_EMPIRICAL_CAPACITY if empirical_capacity is None else empirical_capacity
    )
    if name == "Top-1":
        return TopKRecommender(1, rng)
    if name == "Top-3":
        return TopKRecommender(3, rng)
    if name == "RR":
        return RandomizedRecommender(platform.num_brokers, rng)
    if name == "Greedy":
        return GreedyBatchMatcher()
    if name == "KM":
        return BatchKMMatcher()
    if name == "CTop-1":
        return ConstrainedTopKRecommender(1, platform.num_brokers, capacity, rng)
    if name == "CTop-3":
        return ConstrainedTopKRecommender(3, platform.num_brokers, capacity, rng)
    if name in ("AN", "LACB", "LACB-Opt"):
        if name == "AN":
            # AN: one shared NeuralUCB bandit + capacity-capped per-batch KM.
            config = LACBConfig(
                personalize=False,
                assignment=AssignmentConfig(use_value_function=False),
            )
        else:
            config = LACBConfig(assignment=AssignmentConfig(use_cbs=(name == "LACB-Opt")))
        matcher = LACBMatcher(
            platform.context_dim,
            platform.num_brokers,
            rng,
            config,
            batches_per_day=platform.batches_per_day,
        )
        matcher.name = name
        return matcher
    raise KeyError(f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")
