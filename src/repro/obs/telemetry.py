"""The process-wide telemetry switchboard.

Telemetry is **off by default**: every instrumentation point in the hot
paths goes through the module-level helpers here (:func:`span`,
:func:`add`, :func:`observe`, :func:`set_gauge`), whose disabled fast path
is a single global read — measured end-to-end overhead with telemetry off
is noise, and with telemetry on stays under the 5% budget enforced by
``benchmarks/test_obs_overhead.py``.

One :class:`Telemetry` object bundles a :class:`~repro.obs.metrics.MetricsRegistry`
with a :class:`~repro.obs.tracing.Tracer` and a ``run_label`` (the current
matcher's display name, maintained by
:class:`~repro.obs.hook.TelemetryHook`) that is stamped onto every span
and metric as an ``algorithm`` label.  Spans double-book: each finished
span also feeds a ``span.<name>`` distribution in the registry, so
per-phase time totals survive the cross-segment registry merge even
though raw span timestamps do not align across processes.  The engine's
phase spans are no exception: ``span.engine.begin_day`` /
``assign_batch`` / ``end_day`` are the decision-time series.

Activate with :func:`enable` / :func:`disable`, or scoped with::

    with repro.obs.telemetry.use(Telemetry()) as tel:
        run_algorithm(platform, matcher)

A telemetry object only holds state in memory.  The durable record is
the stream segment its :attr:`Telemetry.stream` writer appends to
(:mod:`repro.obs.stream`), which is also what every artifact and report
of a telemetry directory is rendered from.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecord, Tracer, _Span


class _NullSpan:
    """No-op context manager returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One process's metrics registry + span tracer + run labeling."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.tracer.on_finish = self._book_span
        self.run_label: str | None = None
        #: Live streaming: a :class:`~repro.obs.stream.TelemetryStreamWriter`
        #: the TelemetryHook flushes to at day boundaries (None = off), and
        #: the directory ``run_many`` derives per-spec segments from.
        self.stream = None
        self.stream_dir: str | None = None
        #: Decision provenance (:mod:`repro.obs.audit`): ``audit`` holds the
        #: :class:`~repro.obs.audit.AuditConfig` when auditing is requested
        #: (None = off); the hook installs ``audit_session`` (the live
        #: per-run collector) at run start when the run streams, and each
        #: day's record rides in that day's stream record.
        self.audit = None
        self.audit_session = None
        # Hot-path caches, invalidated on every run-label change: resolved
        # metric instances keyed by (kind, name), span series under
        # ("span", span name), skipping per-call label canonicalization;
        # and one shared attrs dict for spans without explicit attributes
        # (treated as frozen — never mutated after creation).
        self._metric_cache: dict[tuple[str, str], object] = {}
        self._label_attrs: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Run labeling
    # ------------------------------------------------------------------
    def set_run_label(self, label: str | None) -> None:
        """Set the algorithm label stamped onto spans and metrics."""
        self.run_label = label
        self._metric_cache.clear()
        self._label_attrs = {"algorithm": label} if label else {}

    def labels(self) -> dict[str, str]:
        """The implicit labels of the current run (empty outside a run)."""
        return {"algorithm": self.run_label} if self.run_label else {}

    # ------------------------------------------------------------------
    # Span + metric entry points
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: str):
        """A live span; also feeds the ``span.<name>`` distribution on exit."""
        if not attrs:
            # The common case shares one frozen label dict across spans.
            return _Span(self.tracer, name, self._label_attrs)
        if self.run_label and "algorithm" not in attrs:
            attrs["algorithm"] = self.run_label
        return _Span(self.tracer, name, attrs)

    def measured_span(self, name: str, **attrs: str):
        """A live span its owner times (:meth:`Tracer.measured_span`),
        labeled like :meth:`span`; the engine's phase spans."""
        if self.run_label and "algorithm" not in attrs:
            attrs["algorithm"] = self.run_label
        return self.tracer.measured_span(name, **attrs)

    def _book_span(self, record: SpanRecord) -> None:
        key = ("span", record.name)
        sketch = self._metric_cache.get(key)
        if sketch is None:
            sketch = self.registry.distribution(f"span.{record.name}", **self.labels())
            self._metric_cache[key] = sketch
        sketch.observe(record.duration)

    def _metric(self, kind: str, name: str, labels: Mapping[str, object]):
        """The registry's ``kind`` metric, resolved once per run label."""
        if labels:
            return getattr(self.registry, kind)(name, **{**self.labels(), **labels})
        metric = self._metric_cache.get((kind, name))
        if metric is None:
            metric = getattr(self.registry, kind)(name, **self.labels())
            self._metric_cache[(kind, name)] = metric
        return metric

    def add(self, name: str, amount: float = 1.0, **labels) -> None:
        """Increment a labeled counter (run label applied automatically)."""
        self._metric("counter", name, labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a labeled gauge (run label applied automatically)."""
        self._metric("gauge", name, labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Observe into a labeled distribution (run label applied automatically)."""
        self._metric("distribution", name, labels).observe(value)

    def observe_many(self, name: str, values, **labels) -> None:
        """Observe a batch of values into a labeled distribution, in order."""
        self._metric("distribution", name, labels).observe_many(values)


#: The active telemetry of this process (None = disabled, the default).
_ACTIVE: Telemetry | None = None


def current() -> Telemetry | None:
    """The active :class:`Telemetry`, or ``None`` while disabled."""
    return _ACTIVE


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _ACTIVE is not None


def enable(telemetry: Telemetry | None = None) -> Telemetry:
    """Install (and return) the process-wide telemetry object."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else Telemetry()
    return _ACTIVE


def disable() -> None:
    """Turn telemetry collection off (instrumentation reverts to no-ops)."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def use(telemetry: Telemetry):
    """Scoped activation, restoring whatever was active before."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Module-level instrumentation helpers (the hot-path API).
# Disabled cost: one global read and an early return.
# ----------------------------------------------------------------------
def span(name: str, **attrs: str):
    """A live span against the active telemetry; no-op when disabled."""
    telemetry = _ACTIVE
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, **attrs)


def add(name: str, amount: float = 1.0, **labels) -> None:
    """Counter increment against the active telemetry; no-op when disabled."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.add(name, amount, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Gauge write against the active telemetry; no-op when disabled."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Distribution observation against the active telemetry; no-op when disabled."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.observe(name, value, **labels)


def observe_many(name: str, values, **labels) -> None:
    """Batched distribution observation; no-op when disabled."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.observe_many(name, values, **labels)
