"""TelemetryHook: the bridge from engine lifecycle events to metrics.

The day-loop engine times matcher calls itself and, with telemetry on,
records each as a live ``engine.*`` phase span (the timing seam of
:mod:`repro.engine.loop`); the spans' ``span.engine.*`` distributions add
up exactly to ``RunResult.decision_time``.  This hook never times or
records a phase: it reads those series for its progress fields and
accumulates the workload / utility / assignment distributions the
paper's figures are built from.

When the owning :class:`~repro.obs.telemetry.Telemetry` carries a
:class:`~repro.obs.stream.TelemetryStreamWriter`, the hook additionally
flushes the registry and new spans to the stream at every day boundary,
together with the day's drift alerts, its decision audit record (when
auditing is on) and a progress record (day, batches, req/s,
decision-time percentiles, per-day quality) — the record ``watch``,
``report`` and ``explain`` render.

:class:`~repro.engine.loop.DayLoopEngine` attaches this hook automatically
whenever :func:`repro.obs.telemetry.current` is active, so telemetry rides
along with every entry point — ``run_algorithm``, spec execution, sweeps,
the CLI — without any caller wiring.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.hooks import RunHook
from repro.engine.loop import BatchAssignedEvent, DayEndEvent, RunContext
from repro.obs.alerts import AlertMonitor
from repro.obs.audit import DecisionAudit
from repro.obs.profile import ENGINE_PHASES
from repro.obs.quality import QualityMonitor
from repro.obs.telemetry import Telemetry


class TelemetryHook(RunHook):
    """Feed engine lifecycle events into a :class:`Telemetry` object.

    Args:
        telemetry: the sink; hooks constructed by the engine pass the
            process's active telemetry.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._previous_label: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_run_start(self, context: RunContext) -> None:
        telemetry = self.telemetry
        self._previous_label = telemetry.run_label
        telemetry.set_run_label(context.matcher.name)
        telemetry.add("engine.runs")
        telemetry.set_gauge("engine.num_days", context.num_days)
        telemetry.set_gauge("engine.num_brokers", context.num_brokers)
        telemetry.set_gauge("engine.batches_per_day", context.batches_per_day)
        # Resolve every per-event metric once: on_batch_assigned fires for
        # every batch, and per-call registry lookups (label sorting, key
        # construction) would dominate the telemetry overhead budget.
        registry, labels = telemetry.registry, telemetry.labels()
        self._begin_day, self._assign_batch, self._end_day = (
            registry.distribution(f"span.{phase}", **labels) for phase in ENGINE_PHASES
        )
        self._batches = registry.counter("engine.batches", **labels)
        self._assignments = registry.counter("engine.assignments", **labels)
        self._days = registry.counter("engine.days", **labels)
        self._served = registry.counter("engine.served_broker_days", **labels)
        self._batch_requests = registry.distribution("engine.batch_requests", **labels)
        self._day_utility = registry.distribution("engine.day_utility", **labels)
        self._broker_workload = registry.distribution("engine.broker_workload", **labels)
        # Progress accounting for the streaming feed (wall clock, not the
        # decision-time seam: req/s is a serving-rate, not a result).
        self._run_meta = {
            "algorithm": context.matcher.name,
            "num_days": context.num_days,
            "num_brokers": context.num_brokers,
            "batches_per_day": context.batches_per_day,
        }
        self._wall_start = time.perf_counter()
        self._requests_seen = 0
        self._utility_total = 0.0
        self._last_progress: dict = dict(self._run_meta, day=-1)
        # Quality telemetry + drift alerting (see repro.obs.quality/alerts).
        self._quality = QualityMonitor(telemetry, context)
        self._alerts = AlertMonitor()
        # Decision provenance: a fresh collector per run; its day records
        # ride in the stream, so a run that does not stream audits nothing.
        if telemetry.audit is not None and telemetry.stream is not None:
            telemetry.audit_session = DecisionAudit(
                telemetry.audit, context.batches_per_day, context.matcher.name
            )

    def on_batch_assigned(self, event: BatchAssignedEvent) -> None:
        self._batches.inc()
        self._assignments.inc(len(event.assignment))
        self._batch_requests.observe(event.request_ids.size)
        self._requests_seen += int(event.request_ids.size)
        self._quality.on_batch(event)

    def on_day_end(self, event: DayEndEvent) -> None:
        self._days.inc()
        outcome = event.outcome
        self._day_utility.observe(float(outcome.total_realized_utility))
        workloads = np.asarray(outcome.workloads)
        self._broker_workload.observe_many(workloads)
        self._served.inc(int((workloads > 0).sum()))
        telemetry = self.telemetry
        quality = self._quality.on_day_end(event)
        drift_fields = dict(
            quality, day_utility=float(outcome.total_realized_utility)
        )
        raised = self._alerts.observe_day(
            event.day, drift_fields, algorithm=self._run_meta["algorithm"]
        )
        if raised:
            telemetry.add("alerts.raised", len(raised))
        session = telemetry.audit_session
        audit = session.day_record(event.day) if session is not None else None
        if audit is not None:
            telemetry.add("audit.days")
            telemetry.add(
                "audit.decisions", sum(len(b["decisions"]) for b in audit["batches"])
            )
        stream = telemetry.stream
        if stream is not None:
            self._last_progress = dict(self._progress(event, workloads), **quality)
            # Alerts stream as deltas (like spans): each day's record
            # carries the alerts that day raised, and its audit record.
            stream.flush(
                telemetry,
                day=event.day,
                progress=self._last_progress,
                alerts=[alert.to_dict() for alert in raised],
                audit=audit,
            )

    def on_run_end(self, context: RunContext) -> None:
        telemetry = self.telemetry
        stream = telemetry.stream
        if stream is not None:
            stream.flush(
                telemetry,
                day=self._last_progress.get("day", -1),
                progress=self._last_progress,
                final=True,
            )
        self._release()

    def on_run_abort(self, context: RunContext) -> None:
        # A killed run's stream stays unfinished (no final record), but the
        # process-wide label must not outlive it: later parent metrics would
        # be booked under the killed matcher's name.
        self._release()

    def _release(self) -> None:
        self.telemetry.audit_session = None
        self.telemetry.set_run_label(self._previous_label)

    # ------------------------------------------------------------------
    # Streaming progress
    # ------------------------------------------------------------------
    def _progress(self, event: DayEndEvent, workloads: np.ndarray) -> dict:
        """One day's live status: throughput, latency percentiles, quality."""
        wall = time.perf_counter() - self._wall_start
        outcome = event.outcome
        self._utility_total += float(outcome.total_realized_utility)
        served = float((workloads > 0).mean()) if workloads.size else 0.0
        mean_workload = float(workloads.mean()) if workloads.size else 0.0
        dispersion = (
            float(workloads.std() / mean_workload) if mean_workload > 0 else 0.0
        )
        assign = self._assign_batch
        p50, p95, p99 = assign.quantiles() if assign.count else (0.0, 0.0, 0.0)
        return dict(
            self._run_meta,
            day=event.day,
            batches=int(self._batches.value),
            assignments=int(self._assignments.value),
            requests=self._requests_seen,
            wall_seconds=wall,
            requests_per_second=(self._requests_seen / wall) if wall > 0 else 0.0,
            decision_seconds=self._begin_day.sum + assign.sum + self._end_day.sum,
            assign_p50=p50,
            assign_p95=p95,
            assign_p99=p99,
            day_utility=float(outcome.total_realized_utility),
            total_utility=self._utility_total,
            utilization=served,
            workload_dispersion=dispersion,
        )
