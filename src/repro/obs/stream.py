"""The telemetry stream: the one durable record of a ``--telemetry`` run.

A :class:`TelemetryStreamWriter` appends sequence-numbered *stream
records* to a per-run segment file under ``<telemetry dir>/stream/``.
Each record carries a cumulative registry snapshot, the span delta since
the last flush, the drift alerts raised since then, the day's decision
audit record (:mod:`repro.obs.audit`, when auditing is on) and a small
progress summary.  Appends go through :func:`repro.state.io.append_jsonl`
(fsync'd), and readers go through :func:`repro.state.io.read_jsonl`
(torn-tail tolerant), so a kill at any instant loses at most the record
being written.

Segments, not one file: ``run_many`` runs each write their own segment
(``<spec index>-<run id>.jsonl``), named so that lexicographic order *is*
spec order, and runs executed directly under the CLI's telemetry write
``main``.  :func:`read_stream` merges segment registries in that order, so
the reconstructed registry — quantile sketches included — is the same
under any ``jobs`` value.

Everything else is rendered from the stream:

- ``repro-lacb watch DIR`` renders the latest progress per segment live;
- ``repro-lacb report DIR`` and ``explain DIR`` read it after (or during)
  the run;
- :func:`export_artifacts` writes ``manifest.json`` and renders
  ``metrics.prom`` and ``trace.json`` from it when a CLI command exits.

Registry snapshots are cumulative (last one wins); span, alert and audit
lists are deltas (concatenated across records).  A record with
``final: true`` marks its segment's run as complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecord
from repro.state.io import append_jsonl, read_jsonl

#: Subdirectory of a telemetry dir holding stream segments.
STREAM_DIRNAME = "stream"

#: Schema tag stamped on every stream record.
STREAM_SCHEMA = "repro.obs.stream/v1"

#: Files :func:`export_artifacts` writes next to the stream directory.
MANIFEST_JSON = "manifest.json"
METRICS_PROM = "metrics.prom"
TRACE_JSON = "trace.json"


def stream_dir_for(directory) -> str:
    """The conventional stream subdirectory of a telemetry directory."""
    return os.path.join(os.fspath(directory), STREAM_DIRNAME)


def segment_name(index: int, run_id: str, total: int | None = None) -> str:
    """Per-spec segment stem; zero-padded index makes name order = spec order.

    The pad width grows with ``total`` (the spec count) so the
    "lexicographic order = spec order" invariant that bit-identical
    ``jobs=N`` registry merges depend on survives past 10000 specs —
    a fixed 4-digit pad would sort ``10000-…`` before ``2-…``.
    """
    width = 4 if total is None else max(4, len(str(max(total - 1, 0))))
    if index >= 10**width:
        raise ValueError(
            f"segment index {index} does not fit a {width}-digit pad; "
            "pass total= so the pad width covers the spec count"
        )
    return f"{index:0{width}d}-{run_id}"


class TelemetryStreamWriter:
    """Appends stream records for one run to one segment file.

    The telemetry hook flushes once per day boundary (days are the natural
    progress unit) and once more, ``final``, at run end.

    Args:
        directory: the stream directory (created on first flush).
        segment: segment stem; the file is ``<segment>.jsonl``.
    """

    def __init__(self, directory, segment: str = "run") -> None:
        self.directory = os.fspath(directory)
        self.segment = segment
        self.path = os.path.join(self.directory, f"{segment}.jsonl")
        self.seq = 0
        self._spans_sent = 0
        self._registry_sent = MetricsRegistry().to_dict()

    def pending(self, telemetry) -> bool:
        """Whether ``telemetry`` holds spans or metrics no flush carried yet."""
        return (
            len(telemetry.tracer.records) > self._spans_sent
            or telemetry.registry.to_dict() != self._registry_sent
        )

    def flush(
        self,
        telemetry,
        day: int = -1,
        progress: Mapping | None = None,
        final: bool = False,
        alerts: Sequence[Mapping] | None = None,
        audit: Mapping | None = None,
    ) -> None:
        """Append one stream record: full registry, span delta, progress.

        The registry snapshot is cumulative so readers only need the last
        complete record to reconstruct metrics — a torn tail costs one
        day of lag, never the whole segment.  ``alerts`` are a delta like
        spans: each record carries only the alerts raised since the last
        flush, and readers concatenate across records.  ``audit`` is the
        day's decision audit record, stored only when there is one.
        """
        if self.seq == 0 and os.path.exists(self.path):
            # A fresh writer owns its segment: re-running into the same
            # telemetry directory replaces the stale segment instead of
            # appending a second seq-0 record after it (which a reader
            # would — correctly — reject as corruption).
            os.remove(self.path)
        records = telemetry.tracer.records
        record = {
            "schema": STREAM_SCHEMA,
            "seq": self.seq,
            "segment": self.segment,
            "day": int(day),
            "final": bool(final),
            "progress": dict(progress) if progress else {},
            "registry": telemetry.registry.to_dict(),
            "spans": [span.to_dict() for span in records[self._spans_sent :]],
            "alerts": [dict(alert) for alert in alerts] if alerts else [],
        }
        if audit is not None:
            record["audit"] = audit
        append_jsonl(self.path, record)
        self._spans_sent = len(records)
        self._registry_sent = record["registry"]
        self.seq += 1


@dataclass
class SegmentView:
    """Everything recoverable from one segment file.

    Attributes:
        segment: segment stem (filename without ``.jsonl``).
        path: the segment file.
        seq: sequence number of the last complete record.
        day: last flushed day.
        final: whether the run completed (a ``final: true`` record landed).
        flushes: number of complete records read.
        progress: the last progress summary (empty dict if none).
        registry_state: the last cumulative registry snapshot.
        spans: all span deltas, concatenated in flush order.
        alerts: all alert deltas (plain dicts), concatenated in flush order.
        audit: the decision audit day records, in flush order.
    """

    segment: str
    path: str
    seq: int
    day: int
    final: bool
    flushes: int
    progress: dict = field(default_factory=dict)
    registry_state: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)
    audit: list[dict] = field(default_factory=list)


@dataclass
class StreamView:
    """The merged view over every segment of a stream directory."""

    directory: str
    segments: list[SegmentView] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every segment's run finished (and at least one exists)."""
        return bool(self.segments) and all(s.final for s in self.segments)

    def merged_registry(self) -> MetricsRegistry:
        """Fold segment registries in segment-name (= spec) order.

        The fold order does not depend on which process ran which spec,
        so the result — including quantile sketches — is bit-identical
        under any ``jobs`` value.
        """
        registry = MetricsRegistry()
        for segment in self.segments:
            if segment.registry_state:
                registry.merge(segment.registry_state)
        return registry

    def spans(self) -> list[SpanRecord]:
        """All segments' spans, each segment in its own process lane.

        Returns *copies*: re-laning must never rewrite the shared
        ``SegmentView.spans`` records, or per-segment consumers reading
        after a merged view would see the merged pids.
        """
        merged: list[SpanRecord] = []
        for lane, segment in enumerate(self.segments):
            merged.extend(replace(span, pid=lane) for span in segment.spans)
        return merged

    def alerts(self) -> list[dict]:
        """All segments' alerts, in segment (= spec) then raise order."""
        merged: list[dict] = []
        for segment in self.segments:
            merged.extend(segment.alerts)
        return merged


def read_segment(path) -> SegmentView | None:
    """Read one segment file; ``None`` if it holds no complete record yet.

    Raises:
        ValueError: on real corruption — a malformed non-final line or a
            sequence-number gap (both impossible under the single-writer
            append discipline, so they indicate external damage).
    """
    path = os.fspath(path)
    records = [r for r in read_jsonl(path) if r.get("schema") == STREAM_SCHEMA]
    if not records:
        return None
    last_seq = -1
    for record in records:
        seq = int(record.get("seq", -1))
        if seq <= last_seq:
            raise ValueError(f"stream segment {path}: non-increasing seq {seq}")
        last_seq = seq
    spans: list[SpanRecord] = []
    alerts: list[dict] = []
    audit: list[dict] = []
    for record in records:
        spans.extend(SpanRecord.from_dict(entry) for entry in record.get("spans", ()))
        alerts.extend(dict(entry) for entry in record.get("alerts", ()))
        if "audit" in record:
            audit.append(record["audit"])
    last = records[-1]
    return SegmentView(
        segment=os.path.splitext(os.path.basename(path))[0],
        path=path,
        seq=last_seq,
        day=int(last.get("day", -1)),
        # Last record wins: a segment hosting several sequential runs (the
        # CLI's direct-run "main" segment) is complete only if its *latest*
        # run finished.
        final=bool(last.get("final")),
        flushes=len(records),
        progress=dict(last.get("progress", {})),
        registry_state=dict(last.get("registry", {})),
        spans=spans,
        alerts=alerts,
        audit=audit,
    )


def read_stream(directory) -> StreamView:
    """Read every segment of a stream directory, in segment-name order.

    Missing directory or empty segments yield an empty view — callers
    (watch, report, explain) treat "nothing streamed yet" as a state to
    render, not an error.
    """
    directory = os.fspath(directory)
    view = StreamView(directory=directory)
    if not os.path.isdir(directory):
        return view
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        segment = read_segment(os.path.join(directory, name))
        if segment is not None:
            view.segments.append(segment)
    return view


def export_artifacts(directory, manifest: Mapping) -> dict[str, str]:
    """Write ``manifest.json``; render ``metrics.prom`` and ``trace.json``
    from the directory's stream.

    Atomic writes throughout: the CLI exports in a ``finally`` after a
    failing run, exactly when a second crash mid-write must not shred the
    artifacts a post-mortem depends on.

    Returns:
        Mapping of artifact file name to written path.
    """
    from repro.obs.tracing import write_chrome_trace
    from repro.state.io import atomic_write_json, atomic_write_text

    directory = os.fspath(directory)
    view = read_stream(stream_dir_for(directory))
    paths = {
        name: os.path.join(directory, name)
        for name in (MANIFEST_JSON, METRICS_PROM, TRACE_JSON)
    }
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(paths[MANIFEST_JSON], dict(manifest), default=str)
    atomic_write_text(paths[METRICS_PROM], view.merged_registry().prometheus_text())
    write_chrome_trace(paths[TRACE_JSON], view.spans())
    return paths
