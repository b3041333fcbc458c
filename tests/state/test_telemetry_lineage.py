"""Telemetry lineage: checkpoints name their stream segment, and a killed +
resumed run's merged percentiles equal the straight-through run's."""

import pytest

from repro.engine.hooks import MetricsCollector
from repro.engine.loop import DayLoopEngine
from repro.engine.spec import MatcherSpec, PlatformSpec
from repro.obs import telemetry as obs
from repro.obs.stream import TelemetryStreamWriter, read_stream
from repro.obs.telemetry import Telemetry
from repro.simulation import SyntheticConfig
from repro.state import CheckpointHook, CheckpointStore, RunInterrupted, StopAfterDay

CONFIG = SyntheticConfig(num_brokers=12, num_requests=90, num_days=4, imbalance=0.1, seed=3)
KILL_DAY = 1


def _segment(platform_spec, store, run_id, telemetry, extra_hooks=(), start_day=0, state=None):
    """One engine segment with checkpointing under the given telemetry."""
    platform = platform_spec.build()
    matcher = MatcherSpec("Top-3", seed=5).build(platform)
    collector = MetricsCollector()
    if state is not None:
        platform.restore(state["platform"])
        matcher.restore(state["matcher"])
        collector.restore(state["hooks"]["collector"])
    hook = CheckpointHook(store, run_id=run_id, components={"collector": collector})
    with obs.use(telemetry):
        DayLoopEngine().run(
            platform,
            matcher,
            hooks=(collector, hook) + tuple(extra_hooks),
            start_day=start_day,
        )


def test_checkpoints_record_their_stream_segment(tmp_path, platform_spec=None):
    platform_spec = PlatformSpec.synthetic(CONFIG)
    store = CheckpointStore(tmp_path / "ckpt")
    telemetry = Telemetry()
    telemetry.stream = TelemetryStreamWriter(tmp_path / "stream", segment="0000-run")
    _segment(platform_spec, store, "lineage", telemetry)
    record = store.latest(run_id="lineage")
    # The index roundtrips the segment name: merged telemetry stays
    # attributable to the stream that observed each checkpoint.
    assert record.telemetry_segment == "0000-run"


def test_checkpoints_without_a_stream_record_none(tmp_path):
    platform_spec = PlatformSpec.synthetic(CONFIG)
    store = CheckpointStore(tmp_path / "ckpt")
    _segment(platform_spec, store, "nostream", Telemetry())
    assert store.latest(run_id="nostream").telemetry_segment is None


def test_resumed_run_merged_percentiles_equal_straight_through(tmp_path):
    """The quantile half of the resume-equivalence contract.

    A run killed after day ``KILL_DAY``'s checkpoint observed days
    ``0..KILL_DAY``'s batches; its resume observes the rest.  Sketch
    bucket counts are integers, so merging the two segments' registries
    must reproduce the straight-through percentiles bit for bit — not
    approximately.
    """
    platform_spec = PlatformSpec.synthetic(CONFIG)

    straight = Telemetry()
    _segment(platform_spec, CheckpointStore(tmp_path / "a"), "straight", straight)

    store = CheckpointStore(tmp_path / "b")
    killed = Telemetry()
    killed.stream = TelemetryStreamWriter(tmp_path / "stream", segment="0000-killed")
    with pytest.raises(RunInterrupted):
        _segment(platform_spec, store, "run", killed, extra_hooks=(StopAfterDay(KILL_DAY),))
    record = store.latest(run_id="run")
    assert record.day == KILL_DAY
    assert record.telemetry_segment == "0000-killed"

    resumed = Telemetry()
    resumed.stream = TelemetryStreamWriter(tmp_path / "stream", segment="0001-resumed")
    _segment(
        platform_spec,
        store,
        "run",
        resumed,
        start_day=record.day + 1,
        state=store.load(record),
    )
    assert store.latest(run_id="run").telemetry_segment == "0001-resumed"

    merged = Telemetry()
    merged.registry.merge(killed.registry.to_dict())
    merged.registry.merge(resumed.registry.to_dict())

    def batch_requests(telemetry):
        return telemetry.registry.distribution("engine.batch_requests", algorithm="Top-3")

    a, b = batch_requests(straight), batch_requests(merged)
    assert a.count > 0
    assert a.state() == b.state()
    for q in (0.5, 0.95, 0.99):
        assert a.quantile(q) == b.quantile(q)
    # Request totals partition exactly across the kill boundary too.
    assert (
        merged.registry.counter("engine.requests", algorithm="Top-3").value
        == straight.registry.counter("engine.requests", algorithm="Top-3").value
    )

    # The streamed segments carry the same lineage with the documented
    # crash semantics: the kill landed before day KILL_DAY's flush, so the
    # killed segment holds days ``0..KILL_DAY-1`` — the stream view loses
    # at most the in-flight day, while the checkpoint (written before the
    # kill) preserves it for the resume.
    view = read_stream(tmp_path / "stream")
    assert [s.final for s in view.segments] == [False, True]
    assert view.segments[0].day == KILL_DAY - 1
    c = view.merged_registry().distribution("engine.batch_requests", algorithm="Top-3")
    assert 0 < c.count < a.count
