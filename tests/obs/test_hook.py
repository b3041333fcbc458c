"""TelemetryHook end-to-end: engine events land in metrics; spans cover
the decision time they claim to break down."""

import json

import pytest

from repro.algorithms import make_matcher
from repro.engine import DayLoopEngine, MetricsCollector
from repro.obs import telemetry as obs
from repro.obs.hook import TelemetryHook
from repro.obs.report import ENGINE_PHASES
from repro.obs.telemetry import Telemetry
from repro.simulation import SyntheticConfig, generate_city


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _run_with_telemetry(name="LACB-Opt", brokers=30, requests=600, days=4):
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
        DayLoopEngine().run(platform, make_matcher(name, platform, seed=1), hooks=[collector])
    return telemetry, collector.result


def test_engine_phase_timers_sum_exactly_to_decision_time():
    telemetry, result = _run_with_telemetry()
    label = {"algorithm": "LACB-Opt"}
    phase_total = sum(
        telemetry.registry.distribution(phase, **label).sum for phase in ENGINE_PHASES
    )
    # Both sides add the same engine-measured floats in the same order.
    assert phase_total == pytest.approx(result.decision_time, rel=1e-12)


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
    """The report's phase breakdown must account for >= 90% of decision time.

    The top-level instrumented spans (bandit predict/update, VFGA batch
    assignment and day settlement) live strictly inside the engine-timed
    matcher calls, so their total is bounded above by decision time and the
    uninstrumented remainder must stay under 10%.
    """
    telemetry, result = _run_with_telemetry()
    label = {"algorithm": "LACB-Opt"}
    top_level = ("bandit.predict", "vfga.assign_batch", "vfga.end_day", "bandit.update")
    covered = sum(
        telemetry.registry.distribution(f"span.{name}", **label).sum for name in top_level
    )
    assert covered <= result.decision_time * 1.02
    assert covered >= result.decision_time * 0.90
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
