"""TelemetryHook end-to-end: engine events land in metrics; spans cover
the decision time they claim to break down."""

import json
import time

import numpy as np
import pytest

from repro.algorithms import make_matcher
from repro.engine import DayLoopEngine, MetricsCollector, RunHook
from repro.obs import telemetry as obs
from repro.obs.hook import TelemetryHook
from repro.obs.profile import build_forest
from repro.obs.report import ENGINE_PHASES
from repro.obs.telemetry import Telemetry
from repro.serving import MicroBatchPolicy, ServingEngine, derive_arrivals
from repro.simulation import SyntheticConfig, generate_city


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


class _MatcherSeconds(RunHook):
    """Every event's engine-measured ``matcher_seconds``, in event order."""

    def __init__(self) -> None:
        self.seconds = []

    def on_day_start(self, event):
        self.seconds.append(event.matcher_seconds)

    def on_batch_assigned(self, event):
        self.seconds.append(event.matcher_seconds)

    def on_day_end(self, event):
        self.seconds.append(event.matcher_seconds)


def _run_with_telemetry(name="LACB-Opt", brokers=30, requests=600, days=4, hooks=()):
    platform = generate_city(
        SyntheticConfig(
            num_brokers=brokers, num_requests=requests, num_days=days,
            imbalance=0.05, seed=3,
        )
    )
    telemetry = Telemetry()
    collector = MetricsCollector()
    with obs.use(telemetry):
        # No TelemetryHook passed: the engine must auto-attach one.
        DayLoopEngine().run(
            platform, make_matcher(name, platform, seed=1), hooks=[collector, *hooks]
        )
    return telemetry, collector.result


def test_engine_phase_timers_sum_exactly_to_decision_time():
    measured = _MatcherSeconds()
    telemetry, result = _run_with_telemetry(hooks=[measured])
    label = {"algorithm": "LACB-Opt"}
    phases = [r for r in telemetry.tracer.records if r.name in ENGINE_PHASES]
    # One span per matcher call, lasting its matcher_seconds bit for bit.
    assert [r.duration for r in phases] == measured.seconds
    # Summed the way DecisionTimer sums (per day in call order, then over
    # days), the spans give RunResult's decision time exactly.
    daily = np.zeros(len(result.daily_decision_time))
    for record in phases:
        daily[record.day] += record.duration
    assert np.array_equal(daily, result.daily_decision_time)
    assert float(daily.sum()) == result.decision_time
    # Each span.engine.* series folds exactly those durations.
    for phase in ENGINE_PHASES:
        total = 0.0
        for record in phases:
            if record.name == phase:
                total += record.duration
        assert telemetry.registry.distribution(f"span.{phase}", **label).sum == total
    # The engine.* twins of those series are gone from the registry.
    names = {name for name, _labels, _metric in telemetry.registry.items()}
    assert names.isdisjoint(ENGINE_PHASES)


def test_engine_counters_and_distributions():
    telemetry, result = _run_with_telemetry(days=3)
    label = {"algorithm": "LACB-Opt"}
    registry = telemetry.registry
    assert registry.counter("engine.runs", **label).value == 1
    assert registry.counter("engine.days", **label).value == 3
    assert registry.counter("engine.assignments", **label).value == result.num_assigned
    workloads = registry.find("engine.broker_workload")[0][1]
    assert workloads.count == 30 * 3  # every broker, every day


def test_instrumented_spans_cover_decision_time_within_10_percent():
    """The span tree of a run accounts for its decision time.

    The engine phases are the roots and together last exactly the decision
    time; every instrumented span nests under one of them.  At day level
    the interior spans (bandit predict, value-function rollover, bandit
    update) leave less than 10% of their phase uninstrumented; per batch
    the VFGA pipeline's own work between its spans is the phase's self time.
    """
    telemetry, result = _run_with_telemetry()
    label = {"algorithm": "LACB-Opt"}
    forest = build_forest(telemetry.tracer.records)
    assert {node.record.name for node in forest} == set(ENGINE_PHASES)
    assert sum(node.record.duration for node in forest) == pytest.approx(
        result.decision_time, rel=1e-12
    )
    for phase, interior in (
        ("engine.begin_day", {"bandit.predict"}),
        ("engine.end_day", {"vfga.end_day", "bandit.update"}),
    ):
        nodes = [node for node in forest if node.record.name == phase]
        assert {c.record.name for node in nodes for c in node.children} == interior
        wall = sum(node.record.duration for node in nodes)
        covered = sum(c.record.duration for node in nodes for c in node.children)
        assert wall * 0.90 <= covered <= wall
    # The interior spans the paper's timing story is about all fired.
    for interior in ("matching.solve", "matching.cbs_prune", "vfga.td_update"):
        assert telemetry.registry.distribution(f"span.{interior}", **label).count > 0
    ratio_gauge = telemetry.registry.gauge("cbs.pruned_broker_ratio", **label)
    assert ratio_gauge.updates > 0
    assert 0.0 <= ratio_gauge.value <= 1.0


def test_explicit_hook_is_not_attached_twice():
    platform = generate_city(
        SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=11)
    )
    telemetry = Telemetry()
    with obs.use(telemetry):
        DayLoopEngine().run(
            platform,
            make_matcher("Top-1", platform, seed=1),
            hooks=[TelemetryHook(telemetry)],
        )
    assert telemetry.registry.counter("engine.runs", algorithm="Top-1").value == 1


def test_run_label_restored_after_run():
    telemetry, _result = _run_with_telemetry(name="Top-3", days=2, requests=80)
    assert telemetry.run_label is None


def test_full_run_chrome_trace_is_valid(tmp_path):
    from repro.obs.tracing import write_chrome_trace

    telemetry, _result = _run_with_telemetry(name="Top-3", days=2, requests=80)
    write_chrome_trace(tmp_path / "trace.json", telemetry.tracer.records)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["traceEvents"], "a run must produce spans"
    assert {event["ph"] for event in trace["traceEvents"]} == {"X"}
    names = {event["name"] for event in trace["traceEvents"]}
    assert set(ENGINE_PHASES) <= names


def _no_process_time():
    raise AssertionError("time.process_time called with telemetry off")


def test_untraced_runs_make_no_process_time_call(monkeypatch):
    """With telemetry off the matcher clock is two perf_counter reads per
    call: neither the day loop nor the serving engine reads CPU time."""
    monkeypatch.setattr(time, "process_time", _no_process_time)
    config = SyntheticConfig(num_brokers=12, num_requests=120, num_days=2, seed=3)
    platform = generate_city(config)
    DayLoopEngine().run(platform, make_matcher("LACB-Opt", platform, seed=1))
    platform = generate_city(config)
    engine = ServingEngine(
        policy=MicroBatchPolicy(max_wait=5.0, max_size=4),
        schedule=derive_arrivals(platform.stream, profile="bursty"),
    )
    report = engine.run(platform, make_matcher("LACB", platform, seed=1))
    assert report.micro_batches > 0


def test_traced_engine_phases_carry_cpu_seconds():
    telemetry, _result = _run_with_telemetry(name="LACB", days=2, requests=120)
    phases = [r for r in telemetry.tracer.records if r.name in ENGINE_PHASES]
    assert {r.name for r in phases} == set(ENGINE_PHASES)
    assert all(r.cpu >= 0.0 for r in phases)


def test_interrupted_run_releases_its_label_and_day():
    """A run killed mid-horizon fires no run-end event; the hook must still
    hand back the caller's run label, and the tracer its day stamp."""
    from repro.state import RunInterrupted, StopAfterDay

    platform = generate_city(
        SyntheticConfig(num_brokers=12, num_requests=120, num_days=3, imbalance=0.05, seed=3)
    )
    telemetry = Telemetry()
    telemetry.set_run_label("parent")
    with obs.use(telemetry):
        with pytest.raises(RunInterrupted):
            DayLoopEngine().run(
                platform, make_matcher("KM", platform, seed=1), hooks=[StopAfterDay(0)]
            )
    assert telemetry.run_label == "parent"
    assert telemetry.tracer.day == -1
    assert telemetry.audit_session is None
