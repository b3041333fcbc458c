"""The telemetry switchboard: enable/disable, no-op fast path, payload merge."""

import pytest

from repro.obs import telemetry as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    METRICS_JSON,
    METRICS_PROM,
    SPANS_JSONL,
    TRACE_JSON,
    Telemetry,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


def test_disabled_helpers_are_no_ops():
    assert not obs.enabled()
    assert obs.current() is None
    with obs.span("anything", algorithm="X"):
        obs.add("counter")
        obs.set_gauge("gauge", 1.0)
        obs.observe("distribution", 2.0)
        obs.observe_many("distribution", [1.0, 2.0])
    # Nothing was recorded anywhere: no active telemetry exists to hold it.
    assert obs.current() is None


def test_enable_installs_and_disable_removes():
    telemetry = obs.enable()
    assert obs.enabled()
    assert obs.current() is telemetry
    obs.add("n")
    assert telemetry.registry.counter("n").value == 1.0
    obs.disable()
    assert not obs.enabled()


def test_use_restores_previous_telemetry_on_exit():
    outer = obs.enable()
    inner = Telemetry()
    with obs.use(inner):
        assert obs.current() is inner
        obs.add("n")
    assert obs.current() is outer
    assert inner.registry.counter("n").value == 1.0
    assert len(outer.registry) == 0


def test_run_label_stamps_spans_and_metrics():
    telemetry = Telemetry()
    telemetry.set_run_label("LACB-Opt")
    with telemetry.span("phase"):
        pass
    telemetry.add("n")
    (record,) = telemetry.tracer.records
    assert record.attrs["algorithm"] == "LACB-Opt"
    assert telemetry.registry.counter("n", algorithm="LACB-Opt").value == 1.0
    # Spans double-book into span.<name> distributions carrying the same label.
    series = telemetry.registry.distribution("span.phase", algorithm="LACB-Opt")
    assert series.count == 1


def test_span_timer_cache_respects_label_changes():
    telemetry = Telemetry()
    telemetry.set_run_label("A")
    with telemetry.span("phase"):
        pass
    telemetry.set_run_label("B")
    with telemetry.span("phase"):
        pass
    assert telemetry.registry.distribution("span.phase", algorithm="A").count == 1
    assert telemetry.registry.distribution("span.phase", algorithm="B").count == 1


def test_payload_merge_is_exact():
    worker = Telemetry()
    worker.set_run_label("AN")
    worker.add("engine.runs")
    with worker.span("phase"):
        pass

    parent = Telemetry()
    parent.merge_payload(worker.payload())
    assert parent.registry.counter("engine.runs", algorithm="AN").value == 1.0
    # Worker spans land in their own Chrome-trace lane.
    assert all(record.pid == 1 for record in parent.tracer.records)
    assert len(parent.tracer.records) == 1


def test_export_writes_all_artifacts(tmp_path):
    telemetry = Telemetry()
    telemetry.add("n")
    with telemetry.span("phase"):
        pass
    paths = telemetry.export(tmp_path, manifest={"schema": "x"})
    for name in (METRICS_JSON, METRICS_PROM, SPANS_JSONL, TRACE_JSON, "manifest.json"):
        assert (tmp_path / name).exists(), name
    assert set(paths) == {
        "metrics_json", "metrics_prom", "spans_jsonl", "trace_json", "manifest_json"
    }
    # The metrics dump reloads into an equivalent registry.
    import json

    reloaded = MetricsRegistry.from_dict(json.loads((tmp_path / METRICS_JSON).read_text()))
    assert reloaded.to_dict() == telemetry.registry.to_dict()
