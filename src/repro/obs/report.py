"""Render a telemetry directory as a human-readable run report.

``repro report DIR`` reads the run's stream segments under ``DIR/stream/``
(see :mod:`repro.obs.stream`) plus ``DIR/manifest.json`` and prints

- the manifest header (version, git SHA, platform, wall-clock),
- a per-phase time breakdown from the registry's ``span.*`` series: for
  every algorithm, the engine phase spans that partition decision time
  (``engine.begin_day`` / ``assign_batch`` / ``end_day``) and the
  instrumented interior spans (KM solve, CBS pruning, bandit
  predict/update, value-function updates), each with call counts, totals,
  share of decision time and p50/p95/p99 latencies from the mergeable
  quantile sketches, and
- profiler sections built from the streamed spans in append order, per
  algorithm: top self-time hotspots and per-day engine-phase wall/CPU
  attribution (see :mod:`repro.obs.profile`).

A run that is still going, or crashed, renders from its last flushed
records, with a warning and the per-segment progress.  A directory with
neither a stream nor a manifest raises ``FileNotFoundError``; anything
that was ever a telemetry directory renders without raising.
"""

from __future__ import annotations

import json
import os
from itertools import groupby, islice

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ENGINE_PHASES, day_rows, hotspots
from repro.obs.quantiles import REPORT_QUANTILES
from repro.obs.stream import MANIFEST_JSON, StreamView, read_stream, stream_dir_for
from repro.obs.tracing import SpanRecord


def load_run(directory) -> tuple[dict | None, StreamView, str]:
    """Load (manifest, stream view, warning) of a telemetry directory.

    The stream is the run's only telemetry record.  The warning is ``""``
    when every streamed segment finished; otherwise it explains what the
    report is built from (rendered as a report warning).

    Raises:
        FileNotFoundError: when the directory holds neither a stream nor a
            manifest, i.e. was never a telemetry directory.
    """
    manifest = None
    manifest_path = os.path.join(directory, MANIFEST_JSON)
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)

    view = read_stream(stream_dir_for(directory))
    if view.complete:
        return manifest, view, ""
    if view.segments:
        done = sum(1 for segment in view.segments if segment.final)
        return manifest, view, (
            f"run did not finish — reconstructed from {len(view.segments)} "
            f"streamed segment(s), {done} final"
        )
    if manifest is not None:
        return manifest, view, (
            "nothing streamed — the run died before its first day boundary"
        )
    raise FileNotFoundError(
        f"no stream under {stream_dir_for(directory)} — is {directory!r} a "
        f"telemetry directory (produced by --telemetry)?"
    )


def load_spans(directory) -> list[SpanRecord]:
    """Every streamed span of a telemetry directory, one lane per segment."""
    return read_stream(stream_dir_for(directory)).spans()


def decision_time_by_algorithm(registry: MetricsRegistry) -> dict[str, float]:
    """Per algorithm, the summed engine phase span totals (= decision seconds)."""
    totals: dict[str, float] = {}
    for phase in ENGINE_PHASES:
        for labels, metric in registry.find(f"span.{phase}"):
            algorithm = labels.get("algorithm", "")
            totals[algorithm] = totals.get(algorithm, 0.0) + metric.sum
    return totals


def phase_rows(registry: MetricsRegistry) -> list[tuple]:
    """Breakdown rows: (algorithm, phase, calls, total s, mean ms, share,
    p50 ms, p95 ms, p99 ms).

    Every row is a ``span.*`` distribution.  Engine phases come first (they
    partition decision time); interior spans follow, ordered by total
    descending.  Shares are relative to the algorithm's decision time;
    interior spans nest inside engine phases, so their shares are a
    drill-down, not a second sum.
    Percentiles come from each phase's quantile sketch — exact across
    process merges, so a ``jobs=8`` sweep reports the same tail latencies
    as the serial run.
    """
    decision = decision_time_by_algorithm(registry)
    engine_rows = []
    span_rows = []
    for name, labels, metric in registry.items():
        if metric.kind != "distribution" or not name.startswith("span."):
            continue
        algorithm = labels.get("algorithm", "")
        phase = name[len("span."):]
        bucket = engine_rows if phase in ENGINE_PHASES else span_rows
        total = decision.get(algorithm, 0.0)
        share = f"{metric.sum / total:7.1%}" if total > 0 else "      -"
        if metric.count:
            p50, p95, p99 = (metric.quantile(q) * 1e3 for q in REPORT_QUANTILES)
            mean = metric.sum / metric.count
        else:
            p50 = p95 = p99 = mean = 0.0
        bucket.append(
            (algorithm, phase, metric.count, metric.sum, mean * 1e3,
             share, p50, p95, p99)
        )
    engine_rows.sort(key=lambda row: (row[0], -row[3]))
    span_rows.sort(key=lambda row: (row[0], -row[3]))
    return engine_rows + span_rows


PHASE_HEADERS = [
    "algorithm", "phase", "calls", "total s", "mean ms", "% of decision",
    "p50 ms", "p95 ms", "p99 ms",
]


def _format_cpu(cpu: float) -> str:
    """CPU seconds column; ``-1`` (unmeasured) renders as a dash."""
    return f"{cpu:.3f}" if cpu >= 0 else "-"


def hotspot_rows(spans: list[SpanRecord], top: int = 10) -> list[tuple]:
    """Self-time hotspot rows per algorithm: (algorithm, phase, calls,
    wall s, self s, cpu)."""
    return [
        (algorithm or "-", name, calls, wall, self_s, _format_cpu(cpu))
        for algorithm, name, calls, wall, self_s, cpu in hotspots(spans, top=top)
    ]


def day_profile_rows(spans: list[SpanRecord], top_days: int = 10) -> list[tuple]:
    """Per-algorithm, per-day engine-phase attribution, each algorithm's
    worst ``top_days`` days by wall.

    Columns: (algorithm, day, phase, calls, wall s, cpu).  Day ``-1``
    (outside the loop) is excluded — it holds run-end bookkeeping, not
    day work.
    """
    rows = [row for row in day_rows(spans, phases=ENGINE_PHASES) if row[1] >= 0]
    day_wall: dict[tuple[str, int], float] = {}
    for algorithm, day, _name, _calls, wall, _cpu in rows:
        day_wall[algorithm, day] = day_wall.get((algorithm, day), 0.0) + wall
    ranked = sorted(day_wall, key=lambda key: (key[0], -day_wall[key]))
    worst = {
        key
        for _, group in groupby(ranked, key=lambda key: key[0])
        for key in islice(group, top_days)
    }
    return [
        (algorithm or "-", day, name, calls, wall, _format_cpu(cpu))
        for algorithm, day, name, calls, wall, cpu in rows
        if (algorithm, day) in worst
    ]


def progress_rows(view: StreamView) -> list[tuple]:
    """Last streamed progress per segment (for partial-run reports)."""
    rows = []
    for segment in view.segments:
        progress = segment.progress
        rows.append(
            (
                segment.segment,
                progress.get("algorithm", "?"),
                f"{segment.day + 1}/{progress.get('num_days', '?')}",
                "done" if segment.final else "partial",
                progress.get("assignments", 0),
                f"{progress.get('requests_per_second', 0.0):.0f}",
                f"{progress.get('total_utility', 0.0):.1f}",
            )
        )
    return rows


def _fmt_opt(progress: dict, key: str, fmt: str) -> str:
    """Format an optional progress field; absent renders as ``-``.

    Older stream files (and matchers without the relevant model) simply
    lack some fields — rendering ``-`` keeps "not measured" distinguishable
    from a measured 0.00.
    """
    value = progress.get(key)
    return fmt.format(value) if value is not None else "-"


#: Quality gauges rendered per algorithm: (metric name, header, format).
QUALITY_GAUGES = (
    ("quality.capacity_mae", "cap MAE", "{:.2f}"),
    ("quality.capacity_bias", "cap bias", "{:+.2f}"),
    ("quality.overload_rate", "overload", "{:.1%}"),
    ("quality.workload_gini", "gini", "{:.3f}"),
    ("quality.regret_ratio", "regret", "{:.2%}"),
)

QUALITY_HEADERS = ["algorithm"] + [h for _n, h, _f in QUALITY_GAUGES] + ["regret batches"]


def quality_rows(registry: MetricsRegistry) -> list[tuple]:
    """Per-algorithm assignment-quality rows from the quality gauges.

    Gauges hold each run's *last-day* value (capacity MAE, overload rate,
    Gini); the regret ratio accumulates over every sampled batch of the
    run.  Metrics a matcher cannot produce (no capacity model, no SciPy
    oracle) render as ``-``, never as a fake zero.
    """
    algorithms: dict[str, dict[str, float]] = {}
    for name, _header, _fmt in QUALITY_GAUGES:
        for labels, metric in registry.find(name):
            algorithms.setdefault(labels.get("algorithm", ""), {})[name] = metric.value
    if not algorithms:
        return []
    batches = {
        labels.get("algorithm", ""): int(metric.value)
        for labels, metric in registry.find("quality.regret_batches")
    }
    rows = []
    for algorithm in sorted(algorithms):
        values = algorithms[algorithm]
        row: list = [algorithm]
        for name, _header, fmt in QUALITY_GAUGES:
            value = values.get(name)
            row.append(fmt.format(value) if value is not None else "-")
        row.append(batches.get(algorithm, 0))
        rows.append(tuple(row))
    return rows


ALERT_HEADERS = ["day", "algorithm", "metric", "detector", "value", "baseline", "trip"]


def alert_rows(alerts: list[dict]) -> list[tuple]:
    """Render streamed alert dicts as table rows (see repro.obs.alerts)."""
    return [
        (
            entry.get("day", "?"),
            entry.get("algorithm") or "-",
            entry.get("metric", "?"),
            entry.get("detector", "?"),
            f"{entry.get('value', 0.0):.4f}",
            f"{entry.get('baseline', 0.0):.4f}",
            f"{entry.get('score', 0.0):.2f} >= {entry.get('threshold', 0.0):.2f}",
        )
        for entry in alerts
    ]


def render_watch(directory) -> tuple[str, bool]:
    """One frame of the live view over a telemetry directory's stream.

    Returns ``(text, complete)`` — ``complete`` is True once every
    streamed segment's run has finished, which is the watch loop's exit
    condition.  A directory with nothing streamed yet renders a waiting
    message (watch is typically started before — or seconds after — the
    run, so "no data yet" is a normal frame, not an error).
    """
    from repro.experiments.reporting import format_table

    view = read_stream(stream_dir_for(directory))
    if not view.segments:
        return (f"waiting for stream segments under {stream_dir_for(directory)} ...", False)
    lines = [
        format_table(
            ["segment", "algorithm", "day", "state", "assignments", "req/s", "utility"],
            progress_rows(view),
            title=f"Live telemetry ({directory})",
        )
    ]
    latency = []
    for segment in view.segments:
        progress = segment.progress
        if "assign_p50" in progress:
            latency.append(
                (
                    progress.get("algorithm", segment.segment),
                    f"{progress['assign_p50'] * 1e3:.2f}",
                    f"{progress['assign_p95'] * 1e3:.2f}",
                    f"{progress['assign_p99'] * 1e3:.2f}",
                    _fmt_opt(progress, "utilization", "{:.1%}"),
                    _fmt_opt(progress, "workload_dispersion", "{:.2f}"),
                    _fmt_opt(progress, "overload_rate", "{:.1%}"),
                    _fmt_opt(progress, "capacity_mae", "{:.2f}"),
                    _fmt_opt(progress, "regret_ratio", "{:.2%}"),
                )
            )
    if latency:
        lines.append("")
        lines.append(
            format_table(
                ["algorithm", "p50 ms", "p95 ms", "p99 ms", "utilization",
                 "dispersion", "overload", "cap MAE", "regret"],
                latency,
                title="assign_batch latency (sketch percentiles) and day quality",
            )
        )
    streamed_alerts = view.alerts()
    if streamed_alerts:
        lines.append("")
        lines.append(
            format_table(
                ALERT_HEADERS,
                alert_rows(streamed_alerts),
                title="Drift alerts",
            )
        )
    if view.complete:
        lines.append("")
        lines.append("all segments final — run complete")
    return "\n".join(lines), view.complete


def render_report(directory) -> str:
    """The full plain-text report for one telemetry directory."""
    from repro.experiments.reporting import format_table

    manifest, view, source = load_run(directory)
    registry = view.merged_registry()
    lines: list[str] = []
    if manifest:
        lines.append(f"manifest: {manifest.get('command', 'run')} "
                     f"(repro {manifest.get('repro_version', '?')}, "
                     f"git {str(manifest.get('git_sha'))[:12]}, "
                     f"python {manifest.get('python', '?')}, "
                     f"numpy {manifest.get('numpy', '?')})")
        if "wall_seconds" in manifest:
            lines.append(f"wall-clock: {manifest['wall_seconds']:.2f}s "
                         f"(created {manifest.get('created_utc', '?')})")
        lines.append("")
    if source:
        lines.append(f"WARNING: {source}")
        rows = progress_rows(view)
        if rows:
            lines.append("")
            lines.append(
                format_table(
                    ["segment", "algorithm", "day", "state", "assignments",
                     "req/s", "utility"],
                    rows,
                    title="Streamed progress (last flush per segment)",
                )
            )
        lines.append("")

    decision = decision_time_by_algorithm(registry)
    if decision:
        lines.append(
            format_table(
                ["algorithm", "decision s"],
                sorted(decision.items()),
                title="Decision time (engine-measured)",
            )
        )
        lines.append("")

    quality = quality_rows(registry)
    if quality:
        lines.append(
            format_table(
                QUALITY_HEADERS,
                quality,
                title="Assignment quality (last-day gauges; regret over sampled batches)",
            )
        )
        lines.append("")

    rows = phase_rows(registry)
    if rows:
        lines.append(
            format_table(PHASE_HEADERS, rows, title="Per-phase time breakdown")
        )
    else:
        lines.append("no phase timers recorded (was the run executed with telemetry on?)")

    spans = view.spans()
    if spans:
        lines.append("")
        lines.append(
            format_table(
                ["algorithm", "phase", "calls", "wall s", "self s", "cpu s"],
                hotspot_rows(spans),
                title="Hotspots (by self time, span-tree reconstruction)",
            )
        )
        day_table = day_profile_rows(spans)
        if day_table:
            lines.append("")
            lines.append(
                format_table(
                    ["algorithm", "day", "phase", "calls", "wall s", "cpu s"],
                    day_table,
                    title="Per-day engine phases (worst 10 days by wall time)",
                )
            )

    counters = [
        (name, labels.get("algorithm", ""), int(metric.value))
        for name, labels, metric in registry.items()
        if metric.kind == "counter" and name.startswith("engine.")
    ]
    if counters:
        lines.append("")
        lines.append(
            format_table(
                ["counter", "algorithm", "value"], counters, title="Engine counters"
            )
        )

    streamed_alerts = view.alerts()
    if streamed_alerts:
        lines.append("")
        lines.append(
            format_table(ALERT_HEADERS, alert_rows(streamed_alerts), title="Drift alerts")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Decision-path reconstruction (`repro-lacb explain`)
# ----------------------------------------------------------------------
def _capacity_notes(record: dict) -> dict[int, tuple]:
    """Per-broker (capacity, rule, mean, bonus) of one audit day record."""
    section = record.get("capacity")
    if not section:
        return {}
    return {
        broker: (capacity, rule, mean, bonus)
        for broker, capacity, rule, mean, bonus in zip(
            section["broker"],
            section["capacity"],
            section["rule"],
            section["mean"],
            section["bonus"],
        )
    }


def render_explain(
    view,
    day: int | None = None,
    request: int | None = None,
    broker: int | None = None,
    limit: int = 10,
) -> str:
    """Reconstruct decision paths from an :class:`~repro.obs.audit.AuditView`.

    For every matching audited decision, shows the full chain the paper's
    pipeline walked: the bandit's capacity arm and selection rule (Alg. 1),
    the CBS candidate set and prune ratio (Alg. 3), the raw vs Eq. 15
    value-refined utility of the realized KM edge, the broker's residual
    quota at match time, and the runner-up candidates by refined score.
    """
    records = view.records
    if not records:
        return (
            f"no audit records under {view.directory} — was the run executed "
            "with --telemetry DIR --audit?"
        )
    total = sum(
        len(batch.get("decisions", ()))
        for record in records
        for batch in record.get("batches", ())
    )
    decisions = list(view.decisions(day=day, request=request, broker=broker))
    lines = [
        f"decision audit: {len(records)} day record(s), {total} decision(s), "
        f"{len(decisions)} matching the filters"
    ]
    shown = decisions if limit <= 0 else decisions[:limit]
    for record, batch, decision in shown:
        notes = _capacity_notes(record)
        lines.append("")
        lines.append(
            f"day {record['day']} batch {batch['batch']} "
            f"[{record.get('algorithm', '?')}]: request {decision['request']} "
            f"-> broker {decision['broker']}"
        )
        lines.append(
            f"  utility: raw {decision['raw']:.4f} -> refined "
            f"{decision['refined']:.4f} (Eq. 15 delta {decision['delta']:+.4f})"
        )
        lines.append(
            f"  quota: residual {decision['residual']:g} of capacity "
            f"{decision['capacity']:g} (workload {decision['workload']} "
            "before the match)"
        )
        note = notes.get(decision["broker"])
        if note is not None:
            capacity, rule, mean, bonus = note
            parts = f"capacity arm {capacity:g} via {rule}"
            if mean is not None and bonus is not None:
                parts += f" (mean {mean:.4f}, bonus {bonus:.4f})"
            lines.append(f"  bandit: {parts}")
        available = batch.get("available")
        kept = batch.get("kept")
        if kept is not None and batch.get("pruned_ratio") is not None:
            lines.append(
                f"  batch: {batch['requests']} requests, |B+| {available} -> "
                f"CBS kept {kept} (pruned {batch['pruned_ratio']:.1%})"
            )
        else:
            lines.append(
                f"  batch: {batch['requests']} requests, |B+| {available} "
                "(no CBS pruning)"
            )
        alternatives = decision.get("alternatives") or []
        if alternatives:
            runners = "; ".join(
                f"broker {b} refined {r:.4f} (raw {u:.4f})"
                for b, r, u in alternatives
            )
            lines.append(f"  runners-up: {runners}")
    if len(decisions) > len(shown):
        lines.append("")
        lines.append(f"... {len(decisions) - len(shown)} more (raise --limit)")
    return "\n".join(lines)
