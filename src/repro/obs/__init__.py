"""Observability subsystem: metrics, quantiles, spans, streams, baselines.

A ``--telemetry DIR`` run keeps one durable record: per-run stream
segments under ``DIR/stream/`` carrying metrics, spans, drift alerts and
decision audit records, day by day.  ``report``, ``watch``, ``explain``
and the ``metrics.prom`` / ``trace.json`` artifacts are all rendered from
it.

Layers, each usable on its own:

- :mod:`~repro.obs.metrics` — zero-dependency counters / gauges /
  distributions in a :class:`MetricsRegistry` with exact cross-process
  merge and a Prometheus text exporter;
- :mod:`~repro.obs.quantiles` — the mergeable log-bucketed
  :class:`QuantileSketch`, the registry's one distribution type and the
  source of every p50/p95/p99 (bounded relative error, bit-identical under
  any merge order the repo uses);
- :mod:`~repro.obs.tracing` — :class:`Tracer` span records (wall + CPU,
  day-stamped) and their Chrome ``trace_event`` (Perfetto-loadable)
  rendering;
- :mod:`~repro.obs.telemetry` — the process-wide switchboard (off by
  default): :func:`enable` / :func:`disable` / :func:`use`, plus the no-op
  fast-path helpers (:func:`span`, :func:`add`, ...) the hot paths call;
- :mod:`~repro.obs.stream` — the run record: crash-safe JSONL segments
  flushed at day boundaries, readable mid-run (``watch``), after the run
  or after a crash (``report``, ``explain``), and rendered to
  ``metrics.prom`` / ``trace.json`` at CLI exit;
- :mod:`~repro.obs.profile` — the phase profiler: deterministic per-day ×
  per-phase wall/CPU attribution, self-time hotspots and collapsed-stack
  flamegraph export over the span stream;
- :mod:`~repro.obs.quality` — online assignment-quality telemetry:
  capacity-estimation error vs the simulator's ground truth, overload
  rate, workload Gini, and a sampled unconstrained-KM regret proxy;
- :mod:`~repro.obs.alerts` — deterministic drift detection (rolling
  z-score + CUSUM) over the day-boundary quality series, emitting
  structured :class:`Alert` records into the stream;
- :mod:`~repro.obs.audit` — decision provenance: per-assignment records
  (bandit arm + rule, CBS candidate set, Eq. 15 refinement, residual
  quota, runners-up), one per day inside the stream record and
  reconstructable with ``repro-lacb explain``;
- :mod:`~repro.obs.hook` — :class:`TelemetryHook`, bridging
  :mod:`repro.engine` lifecycle events into metrics, spans, quality
  gauges, alerts, audit records and stream flushes (attached
  automatically by the engine while telemetry is active);
- :mod:`~repro.obs.manifest` — run manifests (spec, seeds, git SHA,
  platform, versions, wall-clock, telemetry lineage) written next to
  the stream;
- :mod:`~repro.obs.baseline` — benchmark trajectory tracking with
  noise-banded regression checks (``repro-lacb baseline``);
- :mod:`~repro.obs.logging` — stderr diagnostics via stdlib ``logging``.

``repro.obs.report`` (the ``repro report`` / ``watch`` renderer) is
imported on demand by the CLI rather than here: it reads
result-formatting helpers from :mod:`repro.experiments`, which sits above
this layer.
"""

from repro.obs.alerts import Alert, AlertMonitor, DriftDetector
from repro.obs.audit import AuditConfig, AuditView, DecisionAudit, read_audit
from repro.obs.hook import TelemetryHook
from repro.obs.logging import get_logger, setup_cli_logging
from repro.obs.manifest import build_manifest, git_sha, repro_version, write_manifest
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.quality import QualityMonitor
from repro.obs.quantiles import REPORT_QUANTILES, QuantileSketch
from repro.obs.stream import TelemetryStreamWriter, read_stream
from repro.obs.telemetry import Telemetry, current, disable, enable, enabled, use
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "Alert",
    "AlertMonitor",
    "AuditConfig",
    "AuditView",
    "Counter",
    "DecisionAudit",
    "DriftDetector",
    "Gauge",
    "MetricsRegistry",
    "QualityMonitor",
    "QuantileSketch",
    "REPORT_QUANTILES",
    "SpanRecord",
    "Telemetry",
    "TelemetryHook",
    "TelemetryStreamWriter",
    "Tracer",
    "build_manifest",
    "current",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "git_sha",
    "read_audit",
    "read_stream",
    "repro_version",
    "setup_cli_logging",
    "use",
    "write_manifest",
]
