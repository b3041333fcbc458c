"""The telemetry switchboard: enable/disable, no-op fast path, artifact export."""

import json

import pytest

from repro.obs import telemetry as obs
from repro.obs.stream import (
    MANIFEST_JSON,
    METRICS_PROM,
    TRACE_JSON,
    TelemetryStreamWriter,
    export_artifacts,
    stream_dir_for,
)
from repro.obs.telemetry import Telemetry


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


def test_export_writes_all_artifacts(tmp_path):
    """The exit-time export writes the manifest and renders metrics.prom and
    trace.json from the stream, one lane per segment."""
    for segment in ("0000-a", "0001-b"):
        telemetry = Telemetry()
        telemetry.set_run_label(segment)
        telemetry.add("n")
        with telemetry.span("phase"):
            pass
        TelemetryStreamWriter(stream_dir_for(tmp_path), segment).flush(telemetry, final=True)

    paths = export_artifacts(tmp_path, {"schema": "x"})
    assert set(paths) == {MANIFEST_JSON, METRICS_PROM, TRACE_JSON}
    for name in (MANIFEST_JSON, METRICS_PROM, TRACE_JSON):
        assert (tmp_path / name).exists(), name
    assert json.loads((tmp_path / MANIFEST_JSON).read_text()) == {"schema": "x"}
    prom = (tmp_path / METRICS_PROM).read_text()
    assert 'repro_n{algorithm="0000-a"} 1' in prom
    assert 'repro_n{algorithm="0001-b"} 1' in prom
    trace = json.loads((tmp_path / TRACE_JSON).read_text())
    assert [(e["name"], e["pid"]) for e in trace["traceEvents"]] == [("phase", 0), ("phase", 1)]
    # Nothing else: the stream is the only place metrics and spans are kept.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["stream", MANIFEST_JSON, METRICS_PROM, TRACE_JSON]
    )
