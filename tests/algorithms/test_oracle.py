"""Oracle-capacity matcher: the diagnostic skyline."""

import numpy as np

from repro.algorithms import make_matcher
from repro.algorithms.oracle import OracleCapacityMatcher
from repro.experiments import run_algorithm


def test_oracle_uses_effective_capacities(tiny_platform):
    matcher = OracleCapacityMatcher(tiny_platform)
    tiny_platform.reset()
    contexts = tiny_platform.start_day(0)
    matcher.begin_day(0, contexts)
    np.testing.assert_allclose(
        matcher.assigner.capacities, tiny_platform.effective_capacity(0)
    )
    tiny_platform.finish_day()


def test_oracle_not_in_registry(tiny_platform):
    import pytest

    with pytest.raises(KeyError):
        make_matcher("Oracle", tiny_platform)


def test_oracle_dominates_fixed_caps(small_platform):
    """The skyline beats the capacity-unaware and fixed-capacity baselines."""
    oracle = run_algorithm(small_platform, OracleCapacityMatcher(small_platform))
    topk = run_algorithm(small_platform, make_matcher("Top-3", small_platform, seed=3))
    ctopk = run_algorithm(small_platform, make_matcher("CTop-3", small_platform, seed=3))
    assert oracle.total_realized_utility > topk.total_realized_utility
    assert oracle.total_realized_utility > ctopk.total_realized_utility
