"""Tracer: nesting, owner-measured spans, and Chrome-trace rendering."""

import json
import time

from repro.obs.tracing import Tracer, chrome_trace, write_chrome_trace


class FakeClock:
    """Deterministic monotonic clock advancing only when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_record_depth_and_duration():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.advance(0.5)
        with tracer.span("inner", algorithm="LACB"):
            clock.advance(0.25)
        clock.advance(0.25)
    # Children finish (and are recorded) before their parents.
    inner, outer = tracer.records
    assert (inner.name, inner.depth) == ("inner", 1)
    assert (outer.name, outer.depth) == ("outer", 0)
    assert inner.duration == 0.25
    assert outer.duration == 1.0
    assert inner.attrs == {"algorithm": "LACB"}
    assert inner.start == 0.5  # relative to the tracer epoch
    assert tracer.depth == 0


def test_measured_span_is_a_live_parent_with_its_owners_timing():
    """Spans opened inside a measured span nest under it; the record carries
    the owner's start, duration and CPU exactly, not the tracer clock's."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    clock.advance(2.0)
    with tracer.measured_span("engine.begin_day", day="3") as phase:
        with tracer.span("bandit.predict"):
            clock.advance(0.25)
        phase.measured(102.0, 0.3, 0.125)
        clock.advance(1.0)  # the tracer clock plays no part in the record
    inner, outer = tracer.records
    assert (inner.name, inner.depth) == ("bandit.predict", 1)
    assert (outer.name, outer.depth) == ("engine.begin_day", 0)
    assert (outer.start, outer.duration, outer.cpu) == (2.0, 0.3, 0.125)
    assert outer.attrs == {"day": "3"}
    assert tracer.depth == 0


def test_measured_span_that_raises_records_nothing_and_unwinds():
    tracer = Tracer(clock=FakeClock())
    try:
        with tracer.measured_span("engine.assign_batch"):
            raise RuntimeError("matcher fault")
    except RuntimeError:
        pass
    assert tracer.records == []
    assert tracer.depth == 0


def test_on_finish_callback_sees_every_record():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []
    tracer.on_finish = seen.append
    with tracer.span("a"):
        clock.advance(0.1)
    with tracer.measured_span("b") as span:
        span.measured(100.1, 0.2)
    assert [record.name for record in seen] == ["a", "b"]


def test_chrome_trace_schema_is_perfetto_loadable(tmp_path):
    """The exported trace must be a valid Chrome trace_event JSON object."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("matching.solve", algorithm="KM"):
        clock.advance(0.001)
    with tracer.measured_span("engine.begin_day") as span:
        span.measured(clock(), 0.5)

    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer.records)
    trace = json.loads(path.read_text())

    assert isinstance(trace["traceEvents"], list)
    assert trace["displayTimeUnit"] == "ms"
    assert len(trace["traceEvents"]) == 2
    for event in trace["traceEvents"]:
        assert event["ph"] == "X"  # complete events
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["cat"], str)
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["args"], dict)
    solve = next(e for e in trace["traceEvents"] if e["name"] == "matching.solve")
    assert solve["cat"] == "matching"
    assert solve["dur"] == 1000.0  # 1 ms in microseconds
    assert solve["args"] == {"algorithm": "KM"}


def test_chrome_trace_export_bytes_equal_json_dumps(tmp_path):
    """The written file is exactly ``json.dumps(chrome_trace(records))``,
    which is also byte-for-byte what ``json.dump`` streamed into the file."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for day in range(3):
        with tracer.span("engine.day", day=str(day), note='quote " and \\ slash'):
            clock.advance(0.25)
            with tracer.span("matching.solve", algorithm="KM"):
                clock.advance(1e-7)
    with tracer.measured_span("engine.begin_day") as span:
        span.measured(clock(), 0.5, 0.125)

    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer.records)
    expected = json.dumps(chrome_trace(tracer.records))
    assert path.read_bytes() == expected.encode("utf-8")
    streamed = tmp_path / "streamed.json"
    with open(streamed, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer.records), handle)
    assert path.read_bytes() == streamed.read_bytes()


def test_atomic_write_json_bytes_equal_streamed_dump(tmp_path):
    from repro.state.io import atomic_write_json

    payload = {"b": [1.5, float("inf"), None], "a": {"nested": "é\n"}, "c": 1e-300}
    for indent in (None, 2):
        path = tmp_path / f"written-{indent}.json"
        atomic_write_json(path, payload, indent=indent)
        streamed = tmp_path / f"streamed-{indent}.json"
        with open(streamed, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=True)
        assert path.read_bytes() == streamed.read_bytes()


def test_live_spans_measure_wall_time_only(monkeypatch):
    """A per-span process_time() call was the whole telemetry overhead:
    live spans must not make one, and report their CPU as unmeasured."""
    import repro.obs.tracing as tracing

    calls = []

    def counting_process_time():
        calls.append(1)
        return 0.0

    monkeypatch.setattr(time, "process_time", counting_process_time)
    monkeypatch.setattr(tracing, "process_time", counting_process_time, raising=False)
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        with tracer.span("inner"):
            clock.advance(0.5)
    assert calls == []
    assert [(r.name, r.duration, r.cpu) for r in tracer.records] == [
        ("inner", 0.5, -1.0),
        ("outer", 0.5, -1.0),
    ]
