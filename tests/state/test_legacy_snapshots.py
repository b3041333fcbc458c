"""Checkpoints from retired matcher options resume bit-identically.

Before those options were removed, an LACB-family matcher wrote extra
entries into its snapshot:

- with warm-start KM / the utility cache on: the assigner's
  ``incremental_solver`` trajectory and the matcher's prediction-cache
  rows, which only memoized results that are bit-identical when
  recomputed;
- always: the inferred time axis's ``max_batch_seen``, ``frozen_batches``
  and ``pending_td``, which every registry-built run left unused
  (``batches_per_day`` was passed, so the latter two hold ``None`` / ``[]``);
- always: the assigner's ``rng`` (a copy of the bandit's generator state;
  CBS never drew from it), each MLP layer's ``trainable`` flag (always
  True) and the matcher's ``day``.

AN was a separate matcher class whose checkpoints carried an
``algorithms.neural_assign`` envelope of ``{bandit, assigner}``; it is now
an LACB configuration that restores that envelope.

Restoring such a checkpoint must ignore the retired entries and continue
exactly as a straight run does.
"""

import numpy as np
import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec
from repro.matching.incremental import IncrementalKMSolver
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


def _components(state, kind):
    """Every snapshot envelope of ``kind`` nested anywhere in ``state``."""
    if isinstance(state, dict):
        if state.get("kind") == kind:
            yield state
        for value in state.values():
            yield from _components(value, kind)
    elif isinstance(state, (list, tuple)):
        for value in state:
            yield from _components(value, kind)


def _add_retired_shared_entries(matcher_state) -> None:
    """The entries every matcher snapshot carried before they were retired."""
    (bandit,) = _components(matcher_state, "bandits.nnucb")
    for assigner in _components(matcher_state, "core.vfga"):
        assigner["payload"]["rng"] = bandit["payload"]["rng"]
    for network in _components(matcher_state, "nn.mlp"):
        for layer in network["payload"]["layers"]:
            layer["trainable"] = True


def _resume_from_edited_checkpoint(tmp_path, algorithm, edit):
    """Straight run vs a run resumed from its day-``KILL_DAY`` checkpoint
    after ``edit(state, config)`` rewrote the checkpoint in an older layout."""
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
    edit(state, config)
    legacy_root = str(tmp_path / "legacy")
    legacy = CheckpointStore(spec.run_directory(legacy_root))
    legacy.save(state, KILL_DAY, spec.run_id())
    # The resumed run restores exactly this checkpoint (not a fresh start).
    assert legacy.latest(run_id=spec.run_id()).day == KILL_DAY
    resumed = execute_spec(RunSpec(platform=platform, matcher=matcher, resume_from=legacy_root))
    assert resumed.total_realized_utility == straight.total_realized_utility
    assert resumed.total_predicted_utility == straight.total_predicted_utility
    assert resumed.num_assigned == straight.num_assigned
    np.testing.assert_array_equal(resumed.daily_utility, straight.daily_utility)
    np.testing.assert_array_equal(resumed.broker_utility, straight.broker_utility)
    np.testing.assert_array_equal(resumed.broker_workload, straight.broker_workload)
    np.testing.assert_array_equal(resumed.broker_signup, straight.broker_signup)
    return legacy.load()


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt"])
def test_legacy_snapshot_resumes_bit_identically(tmp_path, algorithm):
    def edit(state, config):
        rng = np.random.default_rng(5)
        matcher_payload = state["matcher"]["payload"]
        matcher_payload["utility_cache"] = _legacy_cache_snapshot(rng, config.num_brokers)
        matcher_payload["day"] = KILL_DAY
        assigner_payload = matcher_payload["assigner"]["payload"]
        assigner_payload["incremental_solver"] = _legacy_solver_snapshot(
            rng, config.num_brokers
        )
        # The retired inferred-time-axis entries, as earlier versions wrote them.
        assigner_payload["max_batch_seen"] = config.batches_per_day
        assigner_payload["frozen_batches"] = None
        assigner_payload["pending_td"] = []
        _add_retired_shared_entries(state["matcher"])

    saved = _resume_from_edited_checkpoint(tmp_path, algorithm, edit)
    legacy_assigner = saved["matcher"]["payload"]["assigner"]["payload"]
    assert {
        "incremental_solver", "max_batch_seen", "frozen_batches", "pending_td", "rng"
    } <= set(legacy_assigner)
    (network,) = _components(saved["matcher"], "nn.mlp")
    assert all("trainable" in layer for layer in network["payload"]["layers"])


def test_legacy_an_checkpoint_resumes_bit_identically(tmp_path):
    def edit(state, config):
        # The AN matcher snapshot as the retired NeuralUCBAssignment wrote it.
        payload = state["matcher"]["payload"]
        assert payload["name"] == "AN"
        state["matcher"] = versioned(
            "algorithms.neural_assign",
            {"bandit": payload["estimator"], "assigner": payload["assigner"]},
        )
        _add_retired_shared_entries(state["matcher"])

    saved = _resume_from_edited_checkpoint(tmp_path, "AN", edit)
    assert saved["matcher"]["kind"] == "algorithms.neural_assign"
    assert "rng" in saved["matcher"]["payload"]["assigner"]["payload"]


def test_legacy_an_envelope_is_rejected_by_lacb(tiny_platform):
    from repro.algorithms import make_matcher
    from repro.state.protocol import StateError

    an = make_matcher("AN", tiny_platform, seed=1)
    payload = an.snapshot()["payload"]
    legacy = versioned(
        "algorithms.neural_assign",
        {"bandit": payload["estimator"], "assigner": payload["assigner"]},
    )
    make_matcher("AN", tiny_platform, seed=2).restore(legacy)
    with pytest.raises(StateError, match="'AN'"):
        make_matcher("LACB", tiny_platform, seed=2).restore(legacy)
