"""Phase profiler: tree reconstruction, day attribution, stacks, hotspots."""

import dataclasses
import math

from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.obs.profile import (
    ENGINE_PHASES,
    build_forest,
    collapsed_stacks,
    day_rows,
    hotspots,
    phase_stats,
    write_collapsed,
)
from repro.obs.stream import read_stream
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import SpanRecord
from repro.simulation import SyntheticConfig

TINY = SyntheticConfig(num_brokers=15, num_requests=60, num_days=2, imbalance=0.1, seed=5)


def _span(name, start, duration, depth=0, day=-1, cpu=-1.0, pid=0):
    return SpanRecord(name, start, duration, depth, pid, day, cpu)


def _synthetic_day():
    """The append order a traced day produces: post-order.

    Every span is recorded when it closes, so children precede their
    parent; the engine phases are live spans around the matcher calls.
    """
    return [
        _span("matching.solve", 0.01, 0.02, depth=2, day=0),
        _span("matching.cbs_prune", 0.00, 0.04, depth=1, day=0),
        _span("engine.assign_batch", 0.00, 0.05, depth=0, day=0, cpu=0.03),
        _span("matching.solve", 0.06, 0.01, depth=2, day=0),
        _span("matching.cbs_prune", 0.06, 0.02, depth=1, day=0),
        _span("engine.assign_batch", 0.06, 0.03, depth=0, day=0, cpu=0.01),
        _span("engine.end_day", 0.09, 0.01, depth=0, day=0, cpu=0.005),
    ]


def test_engine_phases_are_live_parents_not_each_others():
    forest = build_forest(_synthetic_day())
    names = [node.record.name for node in forest]
    # All three engine phases are roots — siblings, never nested.
    assert names == ["engine.assign_batch", "engine.assign_batch", "engine.end_day"]
    first, second, end_day = forest
    assert [c.record.name for c in first.children] == ["matching.cbs_prune"]
    assert [c.record.name for c in first.children[0].children] == ["matching.solve"]
    assert [c.record.name for c in second.children] == ["matching.cbs_prune"]
    assert end_day.children == []


def test_hook_spans_between_phases_are_roots_not_phase_children():
    """Spans other hooks record after a matcher call returned — checkpoint
    writes, invariant checks — are roots, never filed under the engine
    phase before them; the phase's self time is its duration minus only
    its own interior spans."""
    forest = build_forest(
        [
            _span("matching.solve", 0.01, 0.02, depth=1, day=0),
            _span("engine.assign_batch", 0.00, 0.05, depth=0, day=0),
            _span("check.batch", 0.05, 0.01, depth=0, day=0),
            _span("bandit.update", 0.07, 0.03, depth=1, day=0),
            _span("engine.end_day", 0.06, 0.05, depth=0, day=0),
            _span("check.day", 0.11, 0.02, depth=0, day=0),
            _span("state.checkpoint", 0.13, 0.20, depth=0, day=0),
        ]
    )
    assert [(node.record.name, len(node.children)) for node in forest] == [
        ("engine.assign_batch", 1),
        ("check.batch", 0),
        ("engine.end_day", 1),
        ("check.day", 0),
        ("state.checkpoint", 0),
    ]
    end_day = forest[2]
    assert end_day.self_seconds == 0.05 - 0.03


def test_real_hook_spans_are_roots_beside_engine_phases(tmp_path):
    """End to end: invariant checks and checkpoint writes recorded by their
    hooks between matcher calls are roots; each engine phase's children are
    the spans its own matcher call recorded."""
    from repro.algorithms import make_matcher
    from repro.check import runtime
    from repro.check.runtime import CheckState
    from repro.engine import DayLoopEngine
    from repro.obs import telemetry as obs
    from repro.simulation import generate_city
    from repro.state import CheckpointHook, CheckpointStore

    platform = generate_city(TINY)
    telemetry = Telemetry()
    hook = CheckpointHook(CheckpointStore(tmp_path), run_id="profile")
    with obs.use(telemetry), runtime.use(CheckState(mode="raise")):
        DayLoopEngine().run(platform, make_matcher("LACB", platform, seed=1), hooks=[hook])
    forest = build_forest(telemetry.tracer.records)
    roots = {node.record.name for node in forest}
    assert roots == set(ENGINE_PHASES) | {"check.batch", "check.day", "state.checkpoint"}
    hook_spans = {"check.batch", "check.day", "state.checkpoint"}
    for node in forest:
        if node.record.name in ENGINE_PHASES:
            assert not {c.record.name for c in node.children} & hook_spans
    (end_day, *_) = [node for node in forest if node.record.name == "engine.end_day"]
    assert {c.record.name for c in end_day.children} == {"vfga.end_day", "bandit.update"}
    assert end_day.self_seconds == max(
        0.0, end_day.record.duration - sum(c.record.duration for c in end_day.children)
    )


def test_self_time_subtracts_children_and_clamps():
    forest = build_forest(_synthetic_day())
    first = forest[0]
    assert first.self_seconds == max(0.0, 0.05 - 0.04)
    prune = first.children[0]
    assert math.isclose(prune.self_seconds, 0.04 - 0.02)
    # Children whose durations round above their parent's clamp it to zero,
    # not negative.
    clamped = build_forest(
        [
            _span("bandit.update", 0.0, 0.0100000001, depth=1, day=0),
            _span("engine.end_day", 0.0, 0.01, depth=0, day=0),
        ]
    )
    assert clamped[0].record.name == "engine.end_day"
    assert clamped[0].self_seconds == 0.0


def test_lanes_are_independent_trees():
    records = _synthetic_day() + [
        _span("matching.cbs_prune", 0.0, 0.04, depth=1, day=0, pid=1),
        _span("engine.assign_batch", 0.0, 0.05, depth=0, day=0, pid=1),
    ]
    forest = build_forest(records)
    assert len(forest) == 4  # three lane-0 roots + one lane-1 root
    lane1 = [n for n in forest if n.record.pid == 1]
    assert len(lane1) == 1
    assert [c.record.name for c in lane1[0].children] == ["matching.cbs_prune"]


def test_phase_stats_day_filter_and_unknown_cpu():
    records = _synthetic_day() + [_span("engine.begin_day", 0.2, 0.01, day=1)]
    rows = phase_stats(records, day=0)
    by_name = {name: (calls, wall, cpu) for name, calls, wall, cpu in rows}
    assert by_name["engine.assign_batch"][0] == 2
    assert math.isclose(by_name["engine.assign_batch"][2], 0.04)  # cpu sum
    # Live spans carry no CPU measurement: reported as unknown, not zero.
    assert by_name["matching.solve"][2] == -1.0
    assert "engine.begin_day" not in by_name  # day 1 filtered out
    # Rows are wall-descending.
    assert [row[2] for row in rows] == sorted((row[2] for row in rows), reverse=True)


def test_day_rows_order_days_ascending_with_daylless_last():
    records = [
        _span("export", 1.0, 0.1, day=-1),
        _span("engine.begin_day", 0.5, 0.1, day=1),
        _span("engine.begin_day", 0.0, 0.1, day=0),
    ]
    rows = day_rows(records)
    assert [row[1] for row in rows] == [0, 1, -1]
    only_engine = day_rows(records, phases=("engine.begin_day",))
    assert all(row[2] == "engine.begin_day" for row in only_engine)
    assert len(only_engine) == 2


def test_hotspots_rank_by_self_time():
    rows = hotspots(_synthetic_day(), top=2)
    assert len(rows) == 2
    # prune self (0.04-0.02 + 0.02-0.01) and solve self (0.02 + 0.01)
    # tie at 0.03 and beat both engine wrappers (0.01 + 0.01 self).
    assert {rows[0][1], rows[1][1]} == {"matching.cbs_prune", "matching.solve"}
    assert math.isclose(rows[0][4], 0.03)
    assert math.isclose(rows[1][4], 0.03)
    assert [row[4] for row in rows] == sorted((row[4] for row in rows), reverse=True)


def test_collapsed_stacks_paths_and_weights():
    weights = collapsed_stacks(_synthetic_day())
    assert "engine.assign_batch;matching.cbs_prune;matching.solve" in weights
    # Self-time microseconds, summed across the two batches.
    assert weights["engine.assign_batch;matching.cbs_prune"] == 30000
    assert weights["engine.assign_batch;matching.cbs_prune;matching.solve"] == 30000
    # No engine phase ever appears below another engine phase.
    for stack in weights:
        frames = stack.split(";")
        engine_frames = [f for f in frames if f.startswith("engine.")]
        assert len(engine_frames) <= 1
        if engine_frames:
            assert frames[0] == engine_frames[0]


def test_write_collapsed_is_deterministic(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    write_collapsed(first, _synthetic_day())
    write_collapsed(second, _synthetic_day())
    assert first.read_text() == second.read_text()
    lines = first.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


def test_real_run_profiles_cleanly(tmp_path):
    """End to end: a real engine run yields sane trees and stacks."""
    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    # LACB-Opt opens interior spans (matching.cbs_prune, matching.solve),
    # so the reconstructed stacks actually nest.
    spec = RunSpec(platform=PlatformSpec.synthetic(TINY), matcher=MatcherSpec("LACB-Opt", seed=1))
    run_many([spec], jobs=1, telemetry=telemetry)
    records = read_stream(tmp_path).spans()
    rows = day_rows(records, phases=("engine.assign_batch",))
    assert [row[:2] for row in rows] == [("LACB-Opt", day) for day in range(TINY.num_days)]
    stacks = collapsed_stacks(records)
    assert any(stack.startswith("engine.assign_batch;") for stack in stacks)
    for stack in stacks:
        assert stack.count("engine.assign_batch") <= 1, stack
    # Matcher CPU was measured on the engine phases.
    by_name = {name: cpu for name, _, _, cpu in phase_stats(records)}
    assert by_name["engine.assign_batch"] >= 0.0


def test_tables_are_keyed_by_algorithm():
    """Two runs in one lane (a serial two-algorithm run) never merge."""

    def run_of(algorithm):
        return [dataclasses.replace(r, attrs={"algorithm": algorithm}) for r in _synthetic_day()]

    records = run_of("LACB") + run_of("Top-3")
    rows = hotspots(records, top=0)
    calls = {(algorithm, name): count for algorithm, name, count, *_ in rows}
    assert calls[("LACB", "engine.assign_batch")] == 2
    assert calls[("Top-3", "engine.assign_batch")] == 2
    # ``top`` applies within each algorithm.
    assert [row[0] for row in hotspots(records, top=1)] == ["LACB", "Top-3"]
    days = day_rows(records, phases=ENGINE_PHASES)
    assert [(algorithm, day, name, count) for algorithm, day, name, count, *_ in days] == [
        (algorithm, 0, name, count)
        for algorithm in ("LACB", "Top-3")
        for name, count in (("engine.assign_batch", 2), ("engine.end_day", 1))
    ]
