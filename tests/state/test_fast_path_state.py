"""No queued commit or cached feature row escapes the bandit's entry points.

The bandit queues covariance commits and keeps each trial's feature row
beside its triple lists (``docs/performance.md``, fast path 4).  Neither
is durable state: a snapshot taken after a day must carry exactly the keys
and bytes the per-broker reference arithmetic leaves, a checkpoint written
by that arithmetic must resume bit-identically, and copies taken mid-run
must keep deciding as the original does.

The reference arithmetic is the oracle set of
:func:`repro.check.differential.install_reference_kernels`: an immediate
``param_gradient`` commit per broker, a per-trial ``_features`` rebuild
on every training flush and personalization call, and the per-layer
training step with per-layer Adam moments, which is the arithmetic the
checkpoints of earlier releases were written with.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.check.differential import install_reference_kernels
from repro.check.resume import _compare_states
from repro.engine.hooks import MetricsCollector, RunHook
from repro.engine.loop import DayLoopEngine
from repro.engine.spec import MatcherSpec
from repro.simulation import SyntheticConfig, generate_city
from repro.state import CheckpointHook, CheckpointStore, state_equal

#: Personalized LACB-family city: 40 brokers, 600 requests, 4 days.
CITY = SyntheticConfig(num_brokers=40, num_requests=600, num_days=4, imbalance=0.05, seed=42)

#: The snapshot keys a bandit wrote before the fast path; a cache or queue
#: must not add to them.
BANDIT_KEYS = {
    "network",
    "optimizer",
    "rng",
    "arm_pulls",
    "d_inv",
    "d_diag",
    "buffer",
    "replay",
    "num_updates",
    "num_train_steps",
}
PERSONALIZED_KEYS = {"base", "history", "pull_count", "linear_heads"}


class DaySnapshots(RunHook):
    """Records the matcher's snapshot after every day."""

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self.days: list[dict] = []

    def on_day_end(self, event) -> None:
        self.days.append(self.matcher.snapshot())


def _run(algorithm, hooks=lambda matcher: ()):
    platform = generate_city(CITY)
    matcher = MatcherSpec(algorithm, seed=7).build(platform)
    collector = MetricsCollector(store_outcomes=True, store_assignments=True)
    extra = tuple(hooks(matcher))
    DayLoopEngine().run(platform, matcher, hooks=(collector, *extra))
    return platform, matcher, collector, extra


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt"])
def test_day_snapshots_carry_the_reference_keys_and_bytes(algorithm, monkeypatch):
    _, _, _, (fast,) = _run(algorithm, lambda matcher: [DaySnapshots(matcher)])
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        _, _, _, (reference,) = _run(algorithm, lambda matcher: [DaySnapshots(matcher)])
    assert len(fast.days) == len(reference.days) == CITY.num_days
    for day, (ours, theirs) in enumerate(zip(fast.days, reference.days)):
        assert state_equal(ours, theirs), f"{algorithm} snapshot after day {day} differs"
        estimator = ours["payload"]["estimator"]["payload"]
        assert set(estimator) == PERSONALIZED_KEYS
        assert set(estimator["base"]["payload"]) == BANDIT_KEYS


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt", "AN"])
def test_reference_written_checkpoints_resume_bit_identically(
    algorithm, monkeypatch, tmp_path
):
    store = CheckpointStore(str(tmp_path))
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        _run(algorithm, lambda matcher: [CheckpointHook(store, run_id=algorithm)])
    platform, matcher, collector, _ = _run(algorithm)
    records = {record.day: record for record in store.records()}
    for day in (0, 1, 2):
        state = store.load(records[day])
        platform2 = generate_city(CITY)
        matcher2 = MatcherSpec(algorithm, seed=7).build(platform2)
        platform2.restore(state["platform"])
        matcher2.restore(state["matcher"])
        tail = MetricsCollector(store_outcomes=True, store_assignments=True)
        DayLoopEngine().run(platform2, matcher2, hooks=(tail,), start_day=day + 1)
        assert _compare_states(
            (matcher.snapshot(), platform.snapshot()),
            (matcher2.snapshot(), platform2.snapshot()),
            algorithm,
        ) == [], f"{algorithm} resumed from day {day}"
        straight_tail = collector.result.daily_utility[day + 1 :]
        assert straight_tail.tobytes() == tail.result.daily_utility[day + 1 :].tobytes()


def test_restore_rebuilds_the_cached_rows():
    _, matcher, _, _ = _run("LACB")
    estimator = matcher.estimator
    base = estimator.base
    twin = MatcherSpec("LACB", seed=7).build(generate_city(CITY))
    twin.restore(matcher.snapshot())
    twin_base = twin.estimator.base
    everything = np.arange(len(base._replay))
    for ours, theirs in zip(base._replay_design(everything), twin_base._replay_design(everything)):
        assert ours.tobytes() == theirs.tobytes()
    assert base._replay_arms().tobytes() == twin_base._replay_arms().tobytes()
    assert [row.tobytes() for row in base._buffer_rows] == [
        row.tobytes() for row in twin_base._buffer_rows
    ]
    for broker_id in estimator._history:
        for ours, theirs in zip(
            estimator._history_design(broker_id), twin.estimator._history_design(broker_id)
        ):
            assert ours.tobytes() == theirs.tobytes()
    assert twin_base._num_pending == 0


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_mid_run_copies_keep_deciding_identically(how):
    """Copies taken between days (with a partly filled training buffer,
    history rows built for scored brokers and the gradient scratch buffer
    allocated) continue exactly as the original."""
    config = SyntheticConfig(num_brokers=30, num_requests=300, num_days=8, imbalance=0.05, seed=5)
    platform = generate_city(config)
    matcher = MatcherSpec("LACB", seed=3).build(platform)
    engine = DayLoopEngine()

    class CopyAt(RunHook):
        copies: list = []

        def on_day_end(self, event) -> None:
            if event.day == 5:
                snapshot = platform.snapshot()
                twin = (
                    copy.deepcopy(matcher)
                    if how == "deepcopy"
                    else pickle.loads(pickle.dumps(matcher))
                )
                self.copies.append((snapshot, twin))

    collector = MetricsCollector(store_assignments=True)
    engine.run(platform, matcher, hooks=(collector, CopyAt()))
    ((snapshot, twin),) = CopyAt.copies
    assert twin.estimator._history_columns, "no history rows were built before the copy"
    assert twin.estimator.base._buffer, "the copy holds no partly filled training buffer"
    platform2 = generate_city(config)
    platform2.restore(snapshot)
    tail = MetricsCollector(store_assignments=True)
    engine.run(platform2, twin, hooks=(tail,), start_day=6)
    assert state_equal(twin.snapshot(), matcher.snapshot())
    assert tail.result.daily_utility[6:].tobytes() == collector.result.daily_utility[6:].tobytes()


@pytest.mark.parametrize("kind", ["nnucb", "residual", "full"])
def test_no_commit_stays_queued_after_an_estimate(kind):
    from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
    from repro.core.config import BanditConfig

    rng = np.random.default_rng(4)
    config = BanditConfig(
        hidden_sizes=(6,) if kind == "full" else (8, 4),
        covariance="full" if kind == "full" else "diagonal",
    )
    base = NNUCBBandit(5, config, np.random.default_rng(1))
    estimator = PersonalizedCapacityEstimator(base) if kind == "residual" else base
    for size in (0, 1, 15, 16, 17, 40):
        estimator.estimate_batch(rng.normal(size=(size, 5)), np.arange(size))
        assert base._num_pending == 0
    estimator.estimate(rng.normal(size=5), 3)
    assert base._num_pending == 0
