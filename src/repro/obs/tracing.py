"""Span tracing: nested begin/end records and Chrome-trace rendering.

A :class:`Tracer` collects :class:`SpanRecord` entries — one per completed
span, with start offset, duration and nesting depth — from two
context-manager APIs.  :meth:`Tracer.span` reads the tracer clock on entry
and exit::

    with tracer.span("matching.solve", algorithm="LACB-Opt"):
        with tracer.span("matching.cbs_prune"):
            ...

:meth:`Tracer.measured_span` nests the same way but records its owner's
timing — the day loop's engine phases.  A span is recorded as it closes,
so records are in post-order: children first.

Records leave the process in append order through the run's stream
segment (:mod:`repro.obs.stream`); :func:`chrome_trace` renders any list
of them in the Chrome ``trace_event`` format (``"X"`` complete events with
microsecond ``ts``/``dur``), which loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Each stream segment
gets its own ``pid`` lane.

Timestamps are seconds since the tracer's epoch (its construction time),
measured on a monotonic clock; records of different segments are
therefore only comparable within one ``pid`` lane, which is exactly how
the Chrome trace renders them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping


@dataclass(slots=True)
class SpanRecord:
    """One completed span.

    Attributes:
        name: span name (dotted phase path, e.g. ``"matching.solve"``).
        start: seconds since the tracer epoch at span begin.
        duration: span length in seconds.
        depth: nesting depth at begin (0 = top level).
        pid: process lane (0 as recorded; a merged stream view gives
            each segment its own lane).
        day: the engine day the span executed under (``-1`` outside any
            day; stamped from :attr:`Tracer.day`, which the day loop
            maintains — the substrate of per-day profiling).
        cpu: CPU seconds consumed inside the span; ``-1.0`` when
            unmeasured.  Only the engine phases carry it (the engine times
            traced matcher calls on both clocks); other spans measure wall
            time alone, because a ``process_time`` call per span is what
            telemetry would cost on hot paths.
        attrs: free-form string attributes (algorithm, day, ...).
    """

    name: str
    start: float
    duration: float
    depth: int = 0
    pid: int = 0
    day: int = -1
    cpu: float = -1.0
    attrs: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "pid": self.pid,
            "day": self.day,
            "cpu": self.cpu,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> SpanRecord:
        return cls(
            name=str(payload["name"]),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            depth=int(payload.get("depth", 0)),
            pid=int(payload.get("pid", 0)),
            day=int(payload.get("day", -1)),
            cpu=float(payload.get("cpu", -1.0)),
            attrs=dict(payload.get("attrs", {})),
        )


class _Span:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, str]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> _Span:
        tracer = self._tracer
        tracer._depth += 1
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._clock()
        tracer._depth -= 1
        tracer._finish(self.name, self._start, end - self._start, tracer._depth, self.attrs)


class _MeasuredSpan(_Span):
    """Context manager produced by :meth:`Tracer.measured_span`."""

    __slots__ = ()

    def __enter__(self) -> _MeasuredSpan:
        self._tracer._depth += 1
        return self

    def measured(self, start: float, duration: float, cpu: float = -1.0) -> None:
        """Record the span with its owner's timing; called last in the block."""
        tracer = self._tracer
        tracer._finish(self.name, start, duration, tracer._depth - 1, self.attrs, cpu)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._depth -= 1


class Tracer:
    """Collects nested span records on a monotonic clock.

    Args:
        clock: monotonic time source (injectable for deterministic tests).

    The tracer is single-threaded by design — the day loop and every
    matcher run on one thread per process, and each run owns a fresh
    tracer whose records stream to that run's segment.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.records: list[SpanRecord] = []
        self._depth = 0
        #: The engine day currently executing (``-1`` outside any day).
        #: Maintained by the day loop; stamped onto every finished span so
        #: the profiler can attribute interior phases to days without
        #: per-call-site plumbing.
        self.day = -1
        #: Called with each finished record (the telemetry layer uses this
        #: to feed span durations into the metrics registry).
        self.on_finish: Callable[[SpanRecord], None] | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: str) -> _Span:
        """Open a nested span; closes (and records) on context exit."""
        return _Span(self, name, attrs)

    def measured_span(self, name: str, **attrs: str) -> _MeasuredSpan:
        """Open a nested span whose owner supplies its timing.

        Spans opened inside the block nest under it, as under
        :meth:`span`.  The owner ends the block with
        ``measured(start, duration, cpu)``, ``start`` read on this tracer's
        clock, and the record carries exactly those; a block that raises
        before ``measured`` records nothing.
        """
        return _MeasuredSpan(self, name, attrs)

    def _finish(
        self,
        name: str,
        start: float,
        duration: float,
        depth: int,
        attrs: dict[str, str],
        cpu: float = -1.0,
    ) -> SpanRecord:
        # Positional construction: this runs once per span on hot paths.
        record = SpanRecord(name, start - self.epoch, duration, depth, 0, self.day, cpu, attrs)
        self.records.append(record)
        if self.on_finish is not None:
            self.on_finish(record)
        return record

    @property
    def depth(self) -> int:
        """Current nesting depth (0 outside any span)."""
        return self._depth


def chrome_trace(records: Iterable[SpanRecord]) -> dict:
    """The Chrome ``trace_event`` JSON object (Perfetto-loadable).

    Every span becomes one complete (``"ph": "X"``) event with microsecond
    ``ts``/``dur``; nesting is reconstructed by the viewer from temporal
    containment on each ``(pid, tid)`` track.
    """
    events = []
    for record in sorted(records, key=lambda r: (r.pid, r.start)):
        events.append(
            {
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": record.pid,
                "tid": 0,
                "args": dict(record.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, records: Iterable[SpanRecord]) -> None:
    """Write :func:`chrome_trace` as JSON (atomically)."""
    from repro.state.io import atomic_open

    with atomic_open(path, "w") as handle:
        # One dumps + write: json.dump streams thousands of tiny chunks.
        handle.write(json.dumps(chrome_trace(records)))
