"""CLI: every subcommand runs end-to-end on tiny instances."""

import json
import logging

import pytest

from repro.check.selfcheck import PROPERTY_SUITES
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    from repro.obs.manifest import repro_version

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro_version() in capsys.readouterr().out


def test_compare_command(capsys):
    main(
        [
            "compare",
            "--brokers", "30", "--requests", "300", "--days", "2",
            "--algorithms", "Top-3", "CTop-3",
        ]
    )
    out = capsys.readouterr().out
    assert "Top-3" in out and "CTop-3" in out
    assert "total utility" in out


def test_sweep_command(capsys):
    main(
        [
            "sweep", "num_brokers", "20", "30",
            "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3",
        ]
    )
    out = capsys.readouterr().out
    assert "Total utility" in out
    assert "Decision time" in out


def test_sweep_command_parallel_jobs(capsys):
    main(
        [
            "sweep", "num_brokers", "20", "30",
            "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3", "KM",
            "--jobs", "2",
        ]
    )
    out = capsys.readouterr().out
    assert "Total utility" in out
    assert "KM" in out


def test_city_command(capsys):
    main(["city", "C", "--scale", "0.008"])
    out = capsys.readouterr().out
    assert "City C" in out
    assert "LACB-Opt" in out


def test_motivate_command(capsys):
    main(["motivate", "--brokers", "40", "--requests", "600", "--days", "2"])
    out = capsys.readouterr().out
    assert "sign-up rate" in out
    assert "Welch" in out


def test_timing_command(capsys):
    main(["timing", "80", "160", "--batch", "4"])
    out = capsys.readouterr().out
    assert "speedup" in out


def test_sweep_chart_and_output(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    main(
        [
            "sweep", "num_brokers", "20", "30",
            "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3",
            "--chart", "--output", str(output),
        ]
    )
    out = capsys.readouterr().out
    assert "o=Top-3" in out  # chart legend
    assert output.exists()


def test_develop_command(capsys):
    main(
        [
            "develop",
            "--brokers", "30", "--requests", "300", "--days", "2",
            "--algorithms", "Top-3", "RR",
        ]
    )
    out = capsys.readouterr().out
    assert "Matthew effect" in out
    assert "brokers developed" in out


def test_city_chart(capsys):
    main(["city", "C", "--scale", "0.008", "--chart"])
    out = capsys.readouterr().out
    assert "Total realized utility" in out
    assert "#" in out  # histogram bars


def test_compare_telemetry_then_report_roundtrip(capsys, tmp_path):
    """The acceptance flow: compare --telemetry DIR && report DIR."""
    telemetry_dir = tmp_path / "tel"
    main(
        [
            "compare",
            "--brokers", "30", "--requests", "300", "--days", "2",
            "--algorithms", "LACB-Opt",
            "--telemetry", str(telemetry_dir),
        ]
    )
    out = capsys.readouterr().out
    assert "LACB-Opt" in out  # the result table still prints
    # The stream is the one record; the other files are rendered from it.
    assert sorted(path.name for path in telemetry_dir.iterdir()) == [
        "manifest.json", "metrics.prom", "stream", "trace.json"
    ]
    manifest = json.loads((telemetry_dir / "manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["args"]["brokers"] == 30
    assert manifest["wall_seconds"] > 0

    main(["report", str(telemetry_dir)])
    report = capsys.readouterr().out
    assert "Per-phase time breakdown" in report
    assert "engine.assign_batch" in report
    assert "matching.solve" in report
    assert "% of decision" in report


def test_telemetry_disabled_after_command():
    from repro.obs import telemetry as obs

    main(
        [
            "compare",
            "--brokers", "20", "--requests", "80", "--days", "2",
            "--algorithms", "Top-1",
            "--telemetry", "/tmp/ignored-telemetry-dir",
        ]
    )
    assert not obs.enabled()


def test_sweep_diagnostics_go_to_stderr_not_stdout(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    main(
        [
            "sweep", "num_brokers", "20", "30",
            "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3",
            "--output", str(output),
        ]
    )
    captured = capsys.readouterr()
    assert "sweep saved" not in captured.out  # tables only on stdout
    assert "sweep saved" in captured.err
    assert output.exists()


def test_quiet_suppresses_info_diagnostics(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    main(
        [
            "-q",
            "sweep", "num_brokers", "20",
            "--brokers", "20", "--requests", "200", "--days", "2",
            "--algorithms", "Top-3",
            "--output", str(output),
        ]
    )
    captured = capsys.readouterr()
    assert "sweep saved" not in captured.err
    assert "Total utility" in captured.out


def test_verbose_sets_debug_level():
    main(
        [
            "-v",
            "compare",
            "--brokers", "20", "--requests", "80", "--days", "2",
            "--algorithms", "Top-1",
        ]
    )
    assert logging.getLogger("repro").level == logging.DEBUG
    main(
        [
            "compare",
            "--brokers", "20", "--requests", "80", "--days", "2",
            "--algorithms", "Top-1",
        ]
    )
    assert logging.getLogger("repro").level == logging.INFO


def test_report_on_missing_directory_fails_cleanly(tmp_path):
    with pytest.raises(FileNotFoundError, match="telemetry directory"):
        main(["report", str(tmp_path / "missing")])


def test_check_command(capsys):
    main(
        [
            "check",
            "--brokers", "15", "--requests", "100", "--days", "1",
            "--algorithms", "KM",
            "--cases", "10",
        ]
    )
    out = capsys.readouterr().out
    assert "OK: all invariants and properties hold" in out
    assert "invariants" in out and "property cases" in out


def test_check_command_writes_report(capsys, tmp_path):
    report_dir = tmp_path / "check-report"
    main(
        [
            "check",
            "--brokers", "15", "--requests", "80", "--days", "1",
            "--algorithms", "KM",
            "--cases", "5",
            "--report", str(report_dir),
        ]
    )
    payload = json.loads((report_dir / "check_report.json").read_text())
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["property_cases"] == len(PROPERTY_SUITES) * 5


def test_compare_with_check_flag(capsys):
    import os

    from repro.check import runtime
    from repro.check.runtime import ENV_FLAG

    main(
        [
            "compare",
            "--brokers", "20", "--requests", "120", "--days", "1",
            "--algorithms", "KM",
            "--check",
        ]
    )
    assert "KM" in capsys.readouterr().out
    # The flag must not leak into subsequent runs.
    assert runtime.current() is None
    assert os.environ.get(ENV_FLAG) in (None, "", "0")


# ----------------------------------------------------------------------
# `repro-lacb check` exit-code contract
# ----------------------------------------------------------------------
def _fake_report(violations):
    from repro.check.selfcheck import SelfCheckReport

    return SelfCheckReport(
        violations=violations,
        invariants_checked=10,
        solver_checks=2,
        property_cases=20,
        algorithms=("KM",),
    )


def test_check_exits_nonzero_on_violations(monkeypatch, capsys):
    """The CI self-check step must not be able to pass vacuously: any
    collected violation must surface as a non-zero exit code."""
    from repro.check.runtime import Violation

    monkeypatch.setattr(
        "repro.check.run_self_check",
        lambda **kwargs: _fake_report([Violation("batch.feasible", "boom")]),
    )
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--resume-cases", "0"])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "batch.feasible" in out


def test_check_returns_cleanly_when_ok(monkeypatch, capsys):
    monkeypatch.setattr("repro.check.run_self_check", lambda **kwargs: _fake_report([]))
    main(["check", "--resume-cases", "0"])
    assert "OK" in capsys.readouterr().out


def test_check_report_written_even_on_failure(monkeypatch, tmp_path, capsys):
    from repro.check.runtime import Violation

    monkeypatch.setattr(
        "repro.check.run_self_check",
        lambda **kwargs: _fake_report([Violation("solver.km_optimal", "off by one")]),
    )
    report_dir = tmp_path / "report"
    with pytest.raises(SystemExit):
        main(["check", "--report", str(report_dir), "--resume-cases", "0"])
    payload = json.loads((report_dir / "check_report.json").read_text())
    assert payload["ok"] is False
    assert payload["violations"]


def test_check_telemetry_exported_even_on_failure(monkeypatch, tmp_path, capsys):
    """--telemetry used to lose its export when the command failed; the
    failing run's trace is exactly the one worth keeping."""
    from repro.check.runtime import Violation

    monkeypatch.setattr(
        "repro.check.run_self_check",
        lambda **kwargs: _fake_report([Violation("cbs.preserves", "lost weight")]),
    )
    telemetry_dir = tmp_path / "telemetry"
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--telemetry", str(telemetry_dir), "--resume-cases", "0"])
    assert excinfo.value.code == 1
    assert telemetry_dir.is_dir() and any(telemetry_dir.iterdir())


def test_check_telemetry_streams_work_recorded_after_the_last_run(tmp_path, capsys):
    """The resume phase counts its cases after its last run's final flush;
    the exit flush of the ``main`` segment must still carry them."""
    from repro.obs.stream import read_stream, stream_dir_for

    telemetry_dir = tmp_path / "telemetry"
    main(
        [
            "check", "--brokers", "10", "--requests", "80", "--days", "1",
            "--cases", "2", "--algorithms", "KM", "--resume-cases", "1",
            "--telemetry", str(telemetry_dir),
        ]
    )
    capsys.readouterr()
    view = read_stream(stream_dir_for(telemetry_dir))
    assert view.complete
    registry = view.merged_registry()
    assert sum(metric.value for _labels, metric in registry.find("check.resume_cases")) == 1
    assert sum(metric.count for _labels, metric in registry.find("span.check.resume_case")) == 1


def test_interrupted_run_does_not_leak_its_run_label(tmp_path, capsys):
    """Each resume case kills a run mid-horizon (``StopAfterDay``).  The
    telemetry's run label used to be restored only at run end, so the
    parent's case counter was booked under the last killed matcher's name,
    one series per algorithm, instead of as one unlabelled counter."""
    from repro.obs.stream import read_stream, stream_dir_for

    telemetry_dir = tmp_path / "telemetry"
    main(
        [
            "check", "--brokers", "10", "--requests", "80", "--days", "1",
            "--cases", "1", "--algorithms", "KM", "--resume-cases", "2",
            "--telemetry", str(telemetry_dir),
        ]
    )
    capsys.readouterr()
    registry = read_stream(stream_dir_for(telemetry_dir)).merged_registry()
    counters = [
        (labels, metric.value) for labels, metric in registry.find("check.resume_cases")
    ]
    assert counters == [({}, 2.0)]


def test_pure_fan_out_commands_leave_no_main_segment(tmp_path, capsys):
    telemetry_dir = tmp_path / "telemetry"
    main(
        [
            "compare", "--brokers", "12", "--requests", "60", "--days", "1",
            "--algorithms", "Top-1", "Top-3", "--telemetry", str(telemetry_dir),
        ]
    )
    capsys.readouterr()
    segments = sorted(path.name for path in (telemetry_dir / "stream").iterdir())
    assert len(segments) == 2
    assert "main.jsonl" not in segments


def test_check_end_to_end_small_instance(capsys):
    """Un-mocked smoke: a tiny healthy instance reports OK and exits 0."""
    main(
        [
            "check",
            "--brokers", "10",
            "--requests", "80",
            "--days", "1",
            "--cases", "5",
            "--algorithms", "KM",
            "--resume-cases", "1",
        ]
    )
    out = capsys.readouterr().out
    assert "OK: all invariants and properties hold" in out
    assert "resume cases" in out


def test_check_resume_violation_fails_exit_code(monkeypatch, capsys):
    """A resume-equivalence violation must fail the command like any other."""
    from repro.check.runtime import Violation

    monkeypatch.setattr("repro.check.run_self_check", lambda **kwargs: _fake_report([]))
    monkeypatch.setattr(
        "repro.check.resume.run_resume_suite",
        lambda **kwargs: (1, [Violation("resume.result_diverges", "drift")]),
    )
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--resume-cases", "1"])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "resume.result_diverges" in out


def test_check_report_flushed_when_resume_phase_raises(monkeypatch, tmp_path, capsys):
    """--report must land on disk even when the resume phase crashes
    outright (not merely finds violations) — the report is the artifact CI
    uploads for the post-mortem."""
    monkeypatch.setattr("repro.check.run_self_check", lambda **kwargs: _fake_report([]))

    def _boom(**kwargs):
        raise RuntimeError("store corrupted mid-suite")

    monkeypatch.setattr("repro.check.resume.run_resume_suite", _boom)
    report_dir = tmp_path / "report"
    with pytest.raises(RuntimeError, match="store corrupted"):
        main(["check", "--report", str(report_dir), "--resume-cases", "1"])
    payload = json.loads((report_dir / "check_report.json").read_text())
    assert payload["ok"] is True  # the phases that did run were clean
    assert payload["resume_cases"] == 0


def test_check_telemetry_flushed_when_resume_phase_raises(monkeypatch, tmp_path):
    monkeypatch.setattr("repro.check.run_self_check", lambda **kwargs: _fake_report([]))

    def _boom(**kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("repro.check.resume.run_resume_suite", _boom)
    telemetry_dir = tmp_path / "telemetry"
    with pytest.raises(RuntimeError):
        main(["check", "--telemetry", str(telemetry_dir), "--resume-cases", "1"])
    assert telemetry_dir.is_dir() and any(telemetry_dir.iterdir())


# ----------------------------------------------------------------------
# --checkpoint / --resume
# ----------------------------------------------------------------------
def test_resume_requires_checkpoint():
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--days", "1", "--algorithms", "Greedy", "--resume"])
    assert excinfo.value.code == 2


def test_compare_checkpoint_then_resume_round_trip(capsys, tmp_path):
    """The CI smoke flow: an interrupted-free checkpointed run resumed from
    its final checkpoint reprints the identical result table."""
    args = [
        "compare",
        "--brokers", "12", "--requests", "80", "--days", "2",
        "--algorithms", "Greedy", "Top-3",
        "--checkpoint", str(tmp_path / "ckpt"),
    ]
    main(args)
    straight = capsys.readouterr().out
    main(args + ["--resume"])
    resumed = capsys.readouterr().out
    assert resumed == straight
    stores = list((tmp_path / "ckpt").iterdir())
    assert len(stores) == 2  # one per-spec store directory
    assert all((store / "checkpoints.jsonl").exists() for store in stores)


def test_sweep_checkpoint_then_resume_round_trip(capsys, tmp_path):
    args = [
        "sweep",
        "--brokers", "10", "--requests", "60", "--days", "2",
        "--algorithms", "Greedy",
        "--checkpoint", str(tmp_path / "ckpt"),
        "num_brokers", "10", "12",
    ]
    main(args)
    straight = capsys.readouterr().out
    main(args + ["--resume"])
    resumed = capsys.readouterr().out
    assert resumed == straight


def test_serve_command(capsys):
    main(
        [
            "serve",
            "--brokers", "15", "--requests", "150", "--days", "2",
            "--algorithms", "Top-3", "LACB",
            "--max-wait", "5", "--max-size", "16", "--profile", "bursty",
        ]
    )
    out = capsys.readouterr().out
    assert "Serving mode" in out
    assert "Top-3" in out and "LACB" in out
    assert "wait p99 s" in out and "req/s" in out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-wait", "nan"),
        ("--max-wait", "0"),
        ("--max-wait", "-1"),
        ("--window-seconds", "0"),
        ("--window-seconds", "nan"),
        ("--window-seconds", "inf"),
        ("--max-size", "0"),
        ("--max-size", "-3"),
    ],
)
def test_serve_rejects_bad_knobs_as_usage_errors(flag, value, capsys):
    """A bad serving knob is an argparse error naming the flag, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--days", "1", "--algorithms", "Top-1", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, "0")
        for command in ("compare", "serve", "check")
        for flag in ("--brokers", "--requests", "--days")
    ]
    + [
        ("compare", "--imbalance", "nan"),
        ("serve", "--imbalance", "nan"),
        ("serve", "--burst-amplitude", "5"),
        ("serve", "--burst-amplitude", "nan"),
    ],
)
def test_city_knobs_reject_bad_values_as_usage_errors(command, flag, value, capsys):
    """A bad city-size or arrival knob is an argparse error, not a traceback."""
    algorithms = "KM" if command == "check" else "Top-1"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--algorithms", algorithms, flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}:" in err
