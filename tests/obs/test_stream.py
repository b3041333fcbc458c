"""Live streaming telemetry: crash-safety, reader merge, partial views."""

import json

import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.engine.loop import DayLoopEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    STREAM_SCHEMA,
    TelemetryStreamWriter,
    read_segment,
    read_stream,
    segment_name,
    stream_dir_for,
)
from repro.obs.telemetry import Telemetry, use as use_telemetry
from repro.simulation import SyntheticConfig, generate_city
from repro.state.hook import RunInterrupted, StopAfterDay

TINY = SyntheticConfig(num_brokers=15, num_requests=60, num_days=3, imbalance=0.1, seed=5)


def _specs(names=("Top-3", "LACB-Opt")):
    return [
        RunSpec(platform=PlatformSpec.synthetic(TINY), matcher=MatcherSpec(name, seed=1))
        for name in names
    ]


def _comparable(registry):
    return [
        entry
        for entry in registry.to_dict()["metrics"]
        if entry["kind"] in ("counter", "distribution")
    ]


def test_writer_appends_sequenced_records(tmp_path):
    telemetry = Telemetry()
    writer = TelemetryStreamWriter(tmp_path, segment="run")
    telemetry.registry.counter("events").inc()
    writer.flush(telemetry, day=0)
    telemetry.registry.counter("events").inc()
    writer.flush(telemetry, day=1, final=True)

    segment = read_segment(tmp_path / "run.jsonl")
    assert segment.seq == 1
    assert segment.flushes == 2
    assert segment.day == 1
    assert segment.final
    # Registry snapshots are cumulative: the last one holds both events.
    assert segment.registry_state["metrics"][0]["state"]["value"] == 2.0


def test_reader_tolerates_torn_tail(tmp_path):
    telemetry = Telemetry()
    writer = TelemetryStreamWriter(tmp_path, segment="run")
    telemetry.registry.counter("events").inc()
    writer.flush(telemetry, day=0)
    writer.flush(telemetry, day=1)
    path = tmp_path / "run.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": "' + STREAM_SCHEMA + '", "seq": 2, "day": 2, "tru')

    segment = read_segment(path)
    # The torn record is dropped; the last complete flush wins.
    assert segment.seq == 1
    assert segment.day == 1
    assert not segment.final


def test_reader_rejects_corrupt_sequence(tmp_path):
    path = tmp_path / "run.jsonl"
    for seq in (0, 0):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": STREAM_SCHEMA, "seq": seq}) + "\n")
    with pytest.raises(ValueError, match="seq"):
        read_segment(path)


def test_empty_or_missing_stream_dir_yields_empty_view(tmp_path):
    assert read_stream(tmp_path / "nope").segments == []
    view = read_stream(tmp_path)
    assert view.segments == []
    assert not view.complete


def test_run_many_segments_merge_in_spec_order(tmp_path):
    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    run_many(_specs(), jobs=2, telemetry=telemetry)

    view = read_stream(tmp_path)
    assert len(view.segments) == 2
    assert view.complete
    # Segment names are index-prefixed, so reader order is spec order and
    # the reconstructed registry is the spec-order fold of the segments'
    # final snapshots, bit for bit — quantile sketches included.
    assert [s.segment for s in view.segments] == [
        segment_name(i, spec.run_id()) for i, spec in enumerate(_specs())
    ]
    folded = MetricsRegistry()
    for segment in view.segments:
        folded.merge(segment.registry_state)
    assert _comparable(view.merged_registry()) == _comparable(folded)
    assert view.merged_registry().counter("engine.runs", algorithm="Top-3").value == 1
    assert view.spans(), "span deltas must ride along"
    # Nothing is merged back into the caller's telemetry.
    assert len(telemetry.registry) == 0


def test_spans_merge_returns_copies_not_aliases(tmp_path):
    """Regression: StreamView.spans() used to rewrite `span.pid = lane` on
    the shared SegmentView records, so reading per-segment spans after a
    merged view saw the merged lanes instead of the recorded pids."""
    for name in ("a", "b"):
        telemetry = Telemetry()
        with telemetry.tracer.span("phase"):
            pass
        writer = TelemetryStreamWriter(tmp_path, segment=name)
        writer.flush(telemetry, day=0, final=True)

    view = read_stream(tmp_path)
    before = [[span.pid for span in segment.spans] for segment in view.segments]
    merged = view.spans()
    assert [span.pid for span in merged] == [0, 1]  # one lane per segment
    after = [[span.pid for span in segment.spans] for segment in view.segments]
    assert after == before == [[0], [0]]
    # And the copies really are copies — mutating one never leaks back.
    merged[0].pid = 99
    assert view.segments[0].spans[0].pid == 0


def test_merged_registry_percentiles_survive_prior_spans_calls(tmp_path):
    """Round-trip: quantile queries on the merged registry are identical
    whether or not spans() was called (and called repeatedly) first."""
    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    run_many(_specs(), jobs=2, telemetry=telemetry)

    view = read_stream(tmp_path)
    untouched = read_stream(tmp_path)
    view.spans()
    view.spans()  # repeated merges must be idempotent too
    for registry in (view.merged_registry(), untouched.merged_registry()):
        assert registry.distribution("span.engine.assign_batch", algorithm="Top-3").count > 0
    assert _comparable(view.merged_registry()) == _comparable(untouched.merged_registry())


def test_segment_name_pad_width_scales_with_total():
    """Regression: a fixed 4-digit pad breaks 'lexicographic order = spec
    order' at >= 10000 specs (\"10000-\" sorts before \"2-\")."""
    assert segment_name(2, "r") == "0002-r"
    assert segment_name(2, "r", total=12000) == "00002-r"
    names = [segment_name(i, "r", total=12000) for i in (0, 2, 9999, 10000, 11999)]
    assert names == sorted(names)
    with pytest.raises(ValueError, match="pad"):
        segment_name(10000, "r")  # the 4-digit default cannot hold it
    with pytest.raises(ValueError, match="pad"):
        segment_name(10**7, "r", total=10**7)  # index beyond total still caught


def test_progress_records_carry_live_quality_and_latency(tmp_path):
    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    run_many(_specs(("Top-3",)), jobs=1, telemetry=telemetry)
    (segment,) = read_stream(tmp_path).segments
    progress = segment.progress
    assert progress["algorithm"] == "Top-3"
    assert progress["day"] == TINY.num_days - 1
    assert progress["requests"] == TINY.num_requests
    assert progress["assign_p99"] >= progress["assign_p50"] > 0
    assert 0.0 <= progress["utilization"] <= 1.0
    assert progress["requests_per_second"] > 0


def test_kill_mid_run_leaves_recoverable_partial_stream(tmp_path):
    """A hard kill between day boundaries loses at most the current day.

    StopAfterDay raises from on_day_end *before* the auto-attached
    telemetry hook flushes that day — the realistic crash ordering — so
    the stream must hold every day strictly before the kill day, marked
    non-final, and the reader must reconstruct a valid registry from it.
    """
    telemetry = Telemetry()
    telemetry.stream = TelemetryStreamWriter(stream_dir_for(tmp_path), segment="main")
    platform = generate_city(TINY)
    matcher = MatcherSpec("Top-3", seed=1).build(platform)
    with use_telemetry(telemetry):
        with pytest.raises(RunInterrupted):
            DayLoopEngine().run(platform, matcher, hooks=(StopAfterDay(1),))

    view = read_stream(stream_dir_for(tmp_path))
    (segment,) = view.segments
    assert not segment.final
    assert not view.complete
    assert segment.day == 0  # day 1's flush died with the run
    registry = view.merged_registry()
    assert registry.counter("engine.days", algorithm="Top-3").value == 1
    # The partial registry's sketches answer quantile queries sanely.
    assign = registry.distribution("span.engine.assign_batch", algorithm="Top-3")
    assert assign.count > 0
    assert assign.quantile(0.99) >= assign.quantile(0.5)


def test_report_falls_back_to_stream_for_crashed_run(tmp_path):
    """A run killed mid-way (no final record, no manifest) still reports
    from its last flush, marked as unfinished."""
    from repro.obs.report import load_run, render_report

    telemetry = Telemetry()
    telemetry.stream = TelemetryStreamWriter(stream_dir_for(tmp_path), segment="main")
    platform = generate_city(TINY)
    with use_telemetry(telemetry):
        with pytest.raises(RunInterrupted):
            DayLoopEngine().run(
                platform, MatcherSpec("Top-3", seed=1).build(platform), hooks=(StopAfterDay(1),)
            )

    manifest, view, warning = load_run(tmp_path)
    assert manifest is None
    assert "run did not finish" in warning
    assert view.merged_registry().counter("engine.runs", algorithm="Top-3").value == 1
    text = render_report(tmp_path)
    assert "run did not finish" in text
    assert "Streamed progress" in text
    assert "engine.assign_batch" in text


def test_report_on_manifest_only_directory_never_raises(tmp_path):
    from repro.obs.report import render_report
    from repro.state.io import atomic_write_json

    atomic_write_json(tmp_path / "manifest.json", {"command": "compare"})
    text = render_report(tmp_path)
    assert "died before its first day boundary" in text


def test_watch_renders_partial_and_complete_states(tmp_path):
    from repro.obs.report import render_watch

    text, complete = render_watch(tmp_path)
    assert not complete
    assert "waiting" in text

    telemetry = Telemetry()
    telemetry.stream_dir = stream_dir_for(tmp_path)
    run_many(_specs(("Top-3",)), jobs=1, telemetry=telemetry)
    text, complete = render_watch(tmp_path)
    assert complete
    assert "Top-3" in text
    assert "run complete" in text


def test_hook_flushes_every_day_boundary_and_run_end(tmp_path):
    telemetry = Telemetry()
    telemetry.stream = TelemetryStreamWriter(stream_dir_for(tmp_path), segment="main")
    platform = generate_city(TINY)
    with use_telemetry(telemetry):
        DayLoopEngine().run(platform, MatcherSpec("Top-3", seed=1).build(platform))
    records = [
        json.loads(line)
        for line in (tmp_path / "stream" / "main.jsonl").read_text().splitlines()
    ]
    assert [(r["day"], r["final"]) for r in records] == [
        *((day, False) for day in range(TINY.num_days)),
        (TINY.num_days - 1, True),
    ]


def test_fresh_writer_replaces_stale_segment(tmp_path):
    """Re-running into the same telemetry dir must not append to the old
    segment (two seq-0 records would read as corruption) — the new run's
    writer takes ownership of the segment file."""
    telemetry = Telemetry()
    telemetry.registry.counter("events").inc()
    first = TelemetryStreamWriter(tmp_path, segment="run")
    first.flush(telemetry, day=0)
    first.flush(telemetry, day=1, final=True)

    second = TelemetryStreamWriter(tmp_path, segment="run")
    second.flush(telemetry, day=0)
    segment = read_segment(tmp_path / "run.jsonl")
    assert segment.flushes == 1
    assert segment.day == 0
    assert not segment.final
