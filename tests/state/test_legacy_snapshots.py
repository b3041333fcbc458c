"""Checkpoints from retired matcher options resume bit-identically.

Before those options were removed, an LACB-family matcher wrote extra
entries into its snapshot:

- with warm-start KM / the utility cache on: the assigner's
  ``incremental_solver`` trajectory and the matcher's prediction-cache
  rows, which only memoized results that are bit-identical when
  recomputed;
- always: the inferred time axis's ``max_batch_seen``, ``frozen_batches``
  and ``pending_td``, which every registry-built run left unused
  (``batches_per_day`` was passed, so the latter two hold ``None`` / ``[]``).

Restoring such a checkpoint must ignore them and continue exactly as a
straight run does.
"""

import numpy as np
import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec
from repro.matching import IncrementalKMSolver
from repro.simulation import SyntheticConfig
from repro.state import CheckpointStore
from repro.state.protocol import versioned

KILL_DAY = 1


def _legacy_cache_snapshot(rng, num_brokers: int) -> dict:
    """A prediction-cache snapshot in the layout the removed cache wrote."""
    return versioned(
        "boosting.utility_cache",
        {
            "max_rows": 4096,
            "generation": KILL_DAY + 1,
            "stats": {"hits": 3, "misses": 5, "evictions": 0, "invalidations": KILL_DAY + 1},
            "keys": ["0f" * 16, "a1" * 16],
            "rows": [rng.uniform(size=num_brokers), rng.uniform(size=num_brokers)],
        },
    )


def _legacy_solver_snapshot(rng, num_brokers: int) -> dict:
    """A trajectory recorded by warm-started solves over a few batches."""
    solver = IncrementalKMSolver()
    weights = rng.uniform(0.05, 1.0, size=(4, num_brokers))
    for step in range(3):
        weights = weights.copy()
        weights[-1] = rng.uniform(0.05, 1.0, size=num_brokers)
        solver.solve(weights, maximize=True, column_ids=np.arange(num_brokers) + step)
    return solver.snapshot()


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt"])
def test_legacy_snapshot_resumes_bit_identically(tmp_path, algorithm):
    config = SyntheticConfig(num_brokers=12, num_requests=90, num_days=4, seed=3)
    platform = PlatformSpec.synthetic(config)
    matcher = MatcherSpec(algorithm, seed=11)
    straight_root = str(tmp_path / "straight")
    straight = execute_spec(
        RunSpec(platform=platform, matcher=matcher, checkpoint_dir=straight_root)
    )

    spec = RunSpec(platform=platform, matcher=matcher)
    source = CheckpointStore(spec.run_directory(straight_root))
    record = next(r for r in source.records() if r.day == KILL_DAY)
    state = source.load(record)
    rng = np.random.default_rng(5)
    matcher_payload = state["matcher"]["payload"]
    matcher_payload["utility_cache"] = _legacy_cache_snapshot(rng, config.num_brokers)
    assigner_payload = matcher_payload["assigner"]["payload"]
    assigner_payload["incremental_solver"] = _legacy_solver_snapshot(rng, config.num_brokers)
    # The retired inferred-time-axis entries, as earlier versions wrote them.
    assigner_payload["max_batch_seen"] = config.batches_per_day
    assigner_payload["frozen_batches"] = None
    assigner_payload["pending_td"] = []
    legacy_root = str(tmp_path / "legacy")
    legacy = CheckpointStore(spec.run_directory(legacy_root))
    legacy.save(state, KILL_DAY, spec.run_id())
    # The resumed run restores exactly this checkpoint (not a fresh start).
    assert legacy.latest(run_id=spec.run_id()).day == KILL_DAY
    legacy_assigner = legacy.load()["matcher"]["payload"]["assigner"]["payload"]
    assert {"incremental_solver", "max_batch_seen", "frozen_batches", "pending_td"} <= set(
        legacy_assigner
    )

    resumed = execute_spec(RunSpec(platform=platform, matcher=matcher, resume_from=legacy_root))
    assert resumed.total_realized_utility == straight.total_realized_utility
    assert resumed.total_predicted_utility == straight.total_predicted_utility
    assert resumed.num_assigned == straight.num_assigned
    np.testing.assert_array_equal(resumed.daily_utility, straight.daily_utility)
    np.testing.assert_array_equal(resumed.broker_utility, straight.broker_utility)
    np.testing.assert_array_equal(resumed.broker_workload, straight.broker_workload)
    np.testing.assert_array_equal(resumed.broker_signup, straight.broker_signup)
