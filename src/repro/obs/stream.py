"""Live streaming telemetry: crash-safe JSONL feeds of an in-flight run.

The exporter in :mod:`repro.obs.telemetry` writes artifacts once, at the
end of a run — useless for watching a multi-hour city-scale sweep, and
lost entirely if the process dies.  This module adds the durable live
path: a :class:`TelemetryStreamWriter` appends sequence-numbered *stream
records* — a cumulative registry snapshot, the span delta since the last
flush, and a small progress summary — to a per-run segment file under
``<telemetry dir>/stream/``.  Appends go through
:func:`repro.state.io.append_jsonl` (fsync'd), and readers go through
:func:`repro.state.io.read_jsonl` (torn-tail tolerant), so a kill at any
instant loses at most the record being written.

Segments, not one file: ``run_many`` workers each write their own segment
(``<spec index>-<run id>.jsonl``), named so that lexicographic order *is*
spec order.  :func:`read_stream` merges segment registries in that order —
the same order the parent folds worker payloads — so quantile sketches and
every other metric in a stream-reconstructed registry are bit-identical to
the registry a surviving run would have exported.

Consumers:

- ``repro-lacb watch DIR`` renders the latest progress per segment live;
- ``repro-lacb report DIR`` falls back to the stream when a crashed run
  left no (or partial) ``metrics.json``.

Registry snapshots are cumulative (last one wins); span lists are deltas
(concatenated across records).  A record with ``final: true`` marks its
segment's run as complete.
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

    def flush(
        self,
        telemetry,
        day: int = -1,
        progress: Mapping | None = None,
        final: bool = False,
        alerts: Sequence[Mapping] | None = None,
    ) -> None:
        """Append one stream record: full registry, span delta, progress.

        The registry snapshot is cumulative so readers only need the last
        complete record to reconstruct metrics — a torn tail costs one
        day of lag, never the whole segment.  ``alerts`` are a delta like
        spans: each record carries only the alerts raised since the last
        flush, and readers concatenate across records.
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
        append_jsonl(self.path, record)
        self._spans_sent = len(records)
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

        This is the same fold order the parent process uses when merging
        worker payloads, so the result — including quantile sketches — is
        bit-identical to a surviving run's exported registry.
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
    for record in records:
        spans.extend(SpanRecord.from_dict(entry) for entry in record.get("spans", ()))
        alerts.extend(dict(entry) for entry in record.get("alerts", ()))
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
    )


def read_stream(directory) -> StreamView:
    """Read every segment of a stream directory, in segment-name order.

    Missing directory or empty segments yield an empty view — callers
    (watch, report fallback) treat "nothing streamed yet" as a state to
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
