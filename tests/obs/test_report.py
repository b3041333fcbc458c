"""Report rendering: per-phase breakdown from a telemetry dir's stream."""

import json
import os

import pytest

from repro.obs.report import (
    day_profile_rows,
    decision_time_by_algorithm,
    hotspot_rows,
    load_run,
    load_spans,
    phase_rows,
    render_report,
)
from repro.obs.stream import (
    STREAM_SCHEMA,
    TelemetryStreamWriter,
    export_artifacts,
    stream_dir_for,
)
from repro.obs.telemetry import Telemetry

#: The interior spans of one VFGA batch (Alg. 2 lines 4-10 and Alg. 3).
VFGA_BATCH_SPANS = {"matching.cbs_prune", "vfga.refine", "matching.solve", "vfga.td_update"}


def _export(telemetry: Telemetry, directory, manifest: dict) -> None:
    """Stream ``telemetry`` as one finished segment, then export the dir."""
    TelemetryStreamWriter(stream_dir_for(directory), segment="main").flush(
        telemetry, final=True
    )
    export_artifacts(directory, manifest)


def _fake_run_telemetry() -> Telemetry:
    """A telemetry object shaped like a real two-phase LACB-Opt run, plus
    the ``engine.begin_day`` series streams written before the engine
    phases were spans also carry."""
    telemetry = Telemetry()
    telemetry.set_run_label("LACB-Opt")
    label = telemetry.labels()
    telemetry.registry.distribution("span.engine.begin_day", **label).observe(0.2)
    telemetry.registry.distribution("span.engine.assign_batch", **label).observe(0.7)
    telemetry.registry.distribution("span.engine.end_day", **label).observe(0.1)
    telemetry.registry.distribution("span.matching.solve", **label).observe(0.5)
    telemetry.registry.distribution("engine.begin_day", **label).observe(0.2)
    telemetry.add("engine.runs")
    return telemetry


def test_decision_time_sums_engine_phases():
    totals = decision_time_by_algorithm(_fake_run_telemetry().registry)
    assert totals == {"LACB-Opt": pytest.approx(1.0)}


def test_phase_rows_engine_first_and_no_synthesized_duplicates():
    rows = phase_rows(_fake_run_telemetry().registry)
    phases = [row[1] for row in rows]
    # Engine phases lead, by descending total, each once: an old stream's
    # engine.* twin of a span.engine.* series adds no row; interior spans
    # follow.
    assert phases == [
        "engine.assign_batch", "engine.begin_day", "engine.end_day", "matching.solve"
    ]
    solve = rows[-1]
    assert solve[0] == "LACB-Opt"
    assert solve[2] == 1  # calls
    assert solve[5].strip() == "50.0%"  # share of the 1.0s decision time


def test_render_report_roundtrip_from_export(tmp_path):
    telemetry = _fake_run_telemetry()
    _export(telemetry, tmp_path, {"command": "compare", "wall_seconds": 2.0})
    manifest, view, warning = load_run(tmp_path)
    assert manifest["command"] == "compare"
    assert warning == ""  # every segment finished
    registry = view.merged_registry()
    assert decision_time_by_algorithm(registry)["LACB-Opt"] == pytest.approx(1.0)

    report = render_report(tmp_path)
    assert "WARNING" not in report
    assert "compare" in report
    assert "engine.assign_batch" in report
    assert "matching.solve" in report
    assert "engine.runs" in report


def test_missing_directory_gives_actionable_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="telemetry directory"):
        render_report(tmp_path / "nope")


def test_phase_rows_percentiles_come_from_the_sketch():
    telemetry = Telemetry()
    label = telemetry.labels()
    telemetry.set_run_label("LACB-Opt")
    label = telemetry.labels()
    assign = telemetry.registry.distribution("span.engine.assign_batch", **label)
    for ms in range(1, 101):  # 1..100 ms ramp
        assign.observe(ms / 1000.0)
    (row,) = phase_rows(telemetry.registry)
    p50, p95, p99 = row[6], row[7], row[8]
    # Milliseconds, monotone, and within the sketch's accuracy bound.
    assert 0.9 <= p50 <= p95 <= p99 <= 101.0
    assert p50 == pytest.approx(50.0, rel=0.05)
    assert p99 == pytest.approx(99.0, rel=0.05)


def test_phase_rows_zero_count_timer_reports_zero_percentiles():
    telemetry = Telemetry()
    telemetry.registry.distribution("span.engine.assign_batch", algorithm="KM")
    (row,) = phase_rows(telemetry.registry)
    assert (row[6], row[7], row[8]) == (0.0, 0.0, 0.0)


def test_render_report_surfaces_percentile_columns(tmp_path):
    telemetry = _fake_run_telemetry()
    _export(telemetry, tmp_path, {"command": "compare"})
    report = render_report(tmp_path)
    for header in ("p50 ms", "p95 ms", "p99 ms"):
        assert header in report


def test_report_without_spans_still_renders_phase_tables(tmp_path):
    """Graceful degradation: a stream that carries metrics but no spans."""
    telemetry = _fake_run_telemetry()
    _export(telemetry, tmp_path, {"command": "compare"})
    assert load_spans(tmp_path) == []
    report = render_report(tmp_path)
    assert "engine.assign_batch" in report
    assert "Hotspots" not in report  # section dropped, not crashed


# ----------------------------------------------------------------------
# Optional-field rendering, quality tables, alert tables
# ----------------------------------------------------------------------
def test_fmt_opt_distinguishes_absent_from_zero():
    from repro.obs.report import _fmt_opt

    # A measured zero renders as a number; a field the stream never carried
    # renders as "-" (the old code printed 0.00 for both).
    assert _fmt_opt({"workload_dispersion": 0.0}, "workload_dispersion", "{:.2f}") == "0.00"
    assert _fmt_opt({}, "workload_dispersion", "{:.2f}") == "-"
    assert _fmt_opt({"utilization": None}, "utilization", "{:.1%}") == "-"


def test_watch_renders_dash_for_progress_predating_quality_fields(tmp_path):
    """Regression: progress records from before the dispersion/quality fields
    existed must render "-" in watch, not a fake 0.00."""
    from repro.obs.report import render_watch

    writer = TelemetryStreamWriter(stream_dir_for(tmp_path), segment="old")
    writer.flush(
        Telemetry(),
        day=0,
        progress={
            "algorithm": "LACB-Opt", "num_days": 3, "assignments": 10,
            "requests_per_second": 5.0, "total_utility": 1.0,
            "assign_p50": 0.001, "assign_p95": 0.002, "assign_p99": 0.003,
            # no utilization / workload_dispersion / quality fields at all
        },
        final=True,
    )
    text, complete = render_watch(tmp_path)
    assert complete
    (latency_line,) = [ln for ln in text.splitlines() if "LACB-Opt" in ln and "1.00" in ln]
    # utilization, dispersion, overload, cap MAE and regret all absent.
    assert latency_line.split().count("-") == 5


def test_watch_renders_measured_zero_dispersion_as_number(tmp_path):
    from repro.obs.report import render_watch

    writer = TelemetryStreamWriter(stream_dir_for(tmp_path), segment="new")
    writer.flush(
        Telemetry(),
        day=0,
        progress={
            "algorithm": "KM", "num_days": 1, "assignments": 4,
            "requests_per_second": 2.0, "total_utility": 0.5,
            "assign_p50": 0.001, "assign_p95": 0.002, "assign_p99": 0.003,
            "workload_dispersion": 0.0, "utilization": 0.0,
        },
        final=True,
    )
    text, _complete = render_watch(tmp_path)
    (latency_line,) = [ln for ln in text.splitlines() if ln.lstrip().startswith("KM")]
    assert "0.00" in latency_line  # a real measured zero stays a zero
    assert "0.0%" in latency_line


def test_quality_rows_render_dash_for_missing_gauges():
    from repro.obs.report import QUALITY_HEADERS, quality_rows

    telemetry = Telemetry()
    telemetry.set_run_label("LACB-Opt")
    label = telemetry.labels()
    telemetry.registry.gauge("quality.capacity_mae", **label).set(2.5)
    telemetry.registry.gauge("quality.workload_gini", **label).set(0.4)
    telemetry.registry.counter("quality.regret_batches", **label).inc(6)
    telemetry.set_run_label("Top-3")
    ranker = telemetry.labels()
    telemetry.registry.gauge("quality.workload_gini", **ranker).set(0.6)

    rows = quality_rows(telemetry.registry)
    assert [row[0] for row in rows] == ["LACB-Opt", "Top-3"]
    by_name = {row[0]: row for row in rows}
    mae_col = QUALITY_HEADERS.index("cap MAE")
    gini_col = QUALITY_HEADERS.index("gini")
    assert by_name["LACB-Opt"][mae_col] == "2.50"
    assert by_name["Top-3"][mae_col] == "-"  # no capacity model: dash, not 0
    assert by_name["Top-3"][gini_col] == "0.600"
    assert by_name["LACB-Opt"][-1] == 6 and by_name["Top-3"][-1] == 0


def test_quality_rows_empty_registry_yields_no_table():
    from repro.obs.report import quality_rows

    assert quality_rows(Telemetry().registry) == []


def test_alert_rows_format_streamed_alerts():
    from repro.obs.alerts import Alert
    from repro.obs.report import alert_rows

    alert = Alert(
        day=4, metric="overload_rate", detector="zscore", value=0.4,
        score=5.25, threshold=4.0, baseline=0.1, algorithm="LACB-Opt",
    )
    (row,) = alert_rows([alert.to_dict()])
    assert row[0] == 4
    assert row[1] == "LACB-Opt"
    assert row[2:4] == ("overload_rate", "zscore")
    assert row[6] == "5.25 >= 4.00"
    # Alerts without an algorithm label (old streams) render "-".
    (bare,) = alert_rows([dict(alert.to_dict(), algorithm=None)])
    assert bare[1] == "-"


def test_render_report_includes_quality_table_when_gauged(tmp_path):
    telemetry = _fake_run_telemetry()
    label = telemetry.labels()
    telemetry.registry.gauge("quality.workload_gini", **label).set(0.42)
    telemetry.registry.gauge("quality.overload_rate", **label).set(0.05)
    _export(telemetry, tmp_path, {"command": "compare"})
    report = render_report(tmp_path)
    assert "Assignment quality" in report
    assert "0.420" in report
    # Gauges this run never produced render as dashes, not zeros.
    quality_line = [ln for ln in report.splitlines() if "0.420" in ln][0]
    assert " - " in quality_line


def test_report_of_a_legacy_telemetry_dir_is_unchanged(tmp_path):
    """A registry written when phases were Timers and sizes Histograms
    renders exactly the text the report printed then (captured with it).
    The stream is the report's only source, so the legacy registry is fed
    through it: old segments hold the same registry dump."""
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "legacy_report.txt"), encoding="utf-8") as handle:
        expected = handle.read()
    with open(os.path.join(data, "legacy_telemetry", "metrics.json"), encoding="utf-8") as handle:
        legacy = json.load(handle)
    record = {"schema": STREAM_SCHEMA, "seq": 0, "final": True, "registry": legacy}
    segment = tmp_path / "stream" / "main.jsonl"
    segment.parent.mkdir()
    segment.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert render_report(tmp_path) + "\n" == expected


def test_profile_tables_are_per_algorithm(tmp_path):
    """A two-algorithm serving run: hotspots and per-day phases keep the
    runs apart instead of summing both into one row per phase."""
    from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
    from repro.serving import ServingSpec
    from repro.simulation import SyntheticConfig

    platform = PlatformSpec.synthetic(
        SyntheticConfig(num_brokers=10, num_requests=80, num_days=2, seed=3)
    )
    telemetry = Telemetry()
    telemetry.stream_dir = stream_dir_for(tmp_path)
    run_many(
        [
            RunSpec(platform=platform, matcher=MatcherSpec(name, seed=1), serving=ServingSpec())
            for name in ("LACB", "Top-3")
        ],
        telemetry=telemetry,
    )
    export_artifacts(tmp_path, {"command": "serve", "wall_seconds": 1.0})
    spans = load_spans(tmp_path)
    batches = sum(span.name == "engine.assign_batch" for span in spans) // 2

    hot = {(row[0], row[1]): row[2] for row in hotspot_rows(spans, top=0)}
    assert hot[("LACB", "engine.assign_batch")] == batches
    assert hot[("Top-3", "engine.assign_batch")] == batches
    per_day = day_profile_rows(spans)
    assert {row[0] for row in per_day} == {"LACB", "Top-3"}
    for algorithm in ("LACB", "Top-3"):
        assert sum(
            row[3] for row in per_day if row[0] == algorithm and row[2] == "engine.assign_batch"
        ) == batches
    report = render_report(tmp_path)
    hotspots = report[report.index("Hotspots") :]
    assert hotspots.splitlines()[1].split()[:2] == ["algorithm", "phase"]


def test_report_span_trees_nest_engine_phases_over_live_spans(tmp_path, capsys):
    """Engine phases are the roots of a run's span trees, and the matcher's
    interior spans are their children: the loader and --flamegraph must
    see each batch's own KM solve (and, for VFGA matchers, the rest of its
    pipeline) under its engine.assign_batch."""
    from repro.cli import main
    from repro.obs.profile import ENGINE_PHASES, build_forest

    directory = tmp_path / "tel"
    main(
        [
            "compare", "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3", "AN", "LACB-Opt", "--telemetry", str(directory),
        ]
    )
    forest = build_forest(load_spans(directory))
    assert {node.record.name for node in forest} <= set(ENGINE_PHASES)
    batches = [node for node in forest if node.record.name == "engine.assign_batch"]
    assert batches
    for node in batches:
        children = [child.record.name for child in node.children]
        if node.record.attrs["algorithm"] == "Top-3":
            assert children == []
        else:
            assert "matching.solve" in children
            assert set(children) <= VFGA_BATCH_SPANS
            assert node.self_seconds == max(
                0.0, node.record.duration - sum(c.record.duration for c in node.children)
            )

    folded = tmp_path / "flame.folded"
    main(["report", str(directory), "--flamegraph", str(folded)])
    capsys.readouterr()
    stacks = [line.rsplit(" ", 1)[0].split(";") for line in folded.read_text().splitlines()]
    assert stacks
    for stack in stacks:
        assert stack[0] in ENGINE_PHASES, stack
        if stack[0] == "engine.assign_batch" and len(stack) > 1:
            assert stack[1] in VFGA_BATCH_SPANS, stack
