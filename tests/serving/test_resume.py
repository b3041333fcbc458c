"""Serving kill/resume: a checkpointed serving run spec must not be observable."""

import dataclasses

import pytest

from repro.check.resume import _compare_results, _compare_states
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.serving import ServingSpec
from repro.simulation import SyntheticConfig
from repro.state import CheckpointStore

NUM_DAYS = 5
KILL_DAY = 2
#: Twelve requests per window (imbalance 1.0), so the policy splits windows.
ADAPTIVE = ServingSpec(
    window_seconds=20.0, profile="bursty", arrival_seed=3, max_wait=5.0, max_size=4
)


def _final_state(spec: RunSpec, root: str):
    state = CheckpointStore(spec.run_directory(root)).load()
    return state["matcher"], state["platform"]


def _check(algorithm, tmp_path, **city):
    config = SyntheticConfig(
        num_brokers=12, num_requests=90, num_days=NUM_DAYS, imbalance=1.0, seed=1, **city
    )
    spec = RunSpec(
        platform=PlatformSpec.synthetic(config),
        matcher=MatcherSpec(algorithm, seed=7),
        store_outcomes=True,
        store_assignments=True,
        serving=ADAPTIVE,
    )
    straight_root, killed_root = str(tmp_path / "straight"), str(tmp_path / "killed")
    straight = dataclasses.replace(spec, checkpoint_dir=straight_root).run()

    # A run killed right after day KILL_DAY's durable write leaves exactly
    # that checkpoint as the newest one in its store.
    source = CheckpointStore(spec.run_directory(straight_root))
    record = next(r for r in source.records() if r.day == KILL_DAY)
    CheckpointStore(spec.run_directory(killed_root)).save(
        source.load(record), KILL_DAY, spec.run_id()
    )
    resumed = dataclasses.replace(
        spec, checkpoint_dir=killed_root, resume_from=killed_root
    ).run()

    # The whole RunResult, serving report included: the resumed run reports
    # the days before the kill from its checkpoint, with the same virtual
    # queue waits, batch sizes and flush reasons.
    violations = _compare_results(straight, resumed, algorithm)
    violations += _compare_states(
        _final_state(spec, straight_root), _final_state(spec, killed_root), algorithm
    )
    assert violations == [], [str(v) for v in violations]
    assert resumed.serving.requests == straight.serving.requests
    assert straight.serving.flush_reasons["max_size"] > 0
    return straight


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt", "AN"])
def test_adaptive_serving_resume_is_bit_identical(algorithm, tmp_path):
    _check(algorithm, tmp_path)


def test_serving_resume_with_appeals_is_bit_identical(tmp_path):
    straight = _check("LACB", tmp_path, appeal_rate=0.5)
    # Appealed requests re-enter later windows as extra arrivals.
    assert straight.serving.requests > 90


def test_resume_from_the_final_checkpoint_rebuilds_the_report(tmp_path):
    """A finished run resumed from its last checkpoint serves no day, yet
    reports the whole horizon (what ``--resume`` on a done run prints)."""
    spec = RunSpec(
        platform=PlatformSpec.synthetic(
            SyntheticConfig(num_brokers=12, num_requests=90, num_days=3, imbalance=1.0, seed=1)
        ),
        matcher=MatcherSpec("Top-3", seed=7),
        serving=ADAPTIVE,
    )
    root = str(tmp_path)
    straight = dataclasses.replace(spec, checkpoint_dir=root).run()
    rebuilt = dataclasses.replace(spec, resume_from=root).run()
    assert _compare_results(straight, rebuilt, "Top-3") == []
    assert rebuilt.serving.makespan == straight.serving.makespan
