"""Decision provenance: record capture, crash-safety, merge determinism."""

import os

import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.engine.loop import DayLoopEngine
from repro.obs.audit import (
    AUDIT_SCHEMA,
    AuditConfig,
    AuditWriter,
    DecisionAudit,
    audit_dir_for,
    read_audit,
    read_audit_segment,
)
from repro.obs.report import render_explain
from repro.obs.telemetry import Telemetry, use as use_telemetry
from repro.simulation import SyntheticConfig, generate_city
from repro.state.hook import RunInterrupted, StopAfterDay

TINY = SyntheticConfig(num_brokers=15, num_requests=60, num_days=3, imbalance=0.1, seed=5)


def _specs(names=("LACB-Opt",)):
    return [
        RunSpec(platform=PlatformSpec.synthetic(TINY), matcher=MatcherSpec(name, seed=1))
        for name in names
    ]


def _audited_run(directory, jobs=1, names=("LACB-Opt",), sample_every=1):
    telemetry = Telemetry()
    telemetry.audit = AuditConfig(sample_every=sample_every)
    telemetry.audit_dir = str(directory)
    results = run_many(_specs(names), jobs=jobs, telemetry=telemetry)
    return results, read_audit(directory)


def test_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(sample_every=0)
    with pytest.raises(ValueError):
        AuditConfig(top_alternatives=-1)


def test_index_based_sampling_is_deterministic():
    audit = DecisionAudit(AuditConfig(sample_every=3), batches_per_day=10, algorithm="X")
    sampled = [
        (day, batch)
        for day in range(2)
        for batch in range(10)
        if audit.begin_batch(day, batch) is not None
    ]
    # Global index day*10+batch multiples of 3 — resume-stable, no RNG.
    assert sampled == [(0, 0), (0, 3), (0, 6), (0, 9), (1, 2), (1, 5), (1, 8)]


def test_day_record_packages_and_clears():
    audit = DecisionAudit(AuditConfig(), batches_per_day=5, algorithm="LACB")
    audit.note_capacity(3, 25.0, "ucb", mean=0.5, bonus=0.1)
    trail = audit.begin_batch(0, 0)
    trail.requests = 2
    trail.add_decision(7, 3, 0.5, 0.6, 4.0, 25.0, 1, [(2, 0.55, 0.45)])
    audit.commit_batch(trail)

    record = audit.day_record(0)
    assert record["capacity"]["broker"] == [3]
    assert record["capacity"]["rule"] == ["ucb"]
    (batch,) = record["batches"]
    (decision,) = batch["decisions"]
    assert decision["request"] == 7
    assert decision["delta"] == pytest.approx(0.1)
    assert decision["alternatives"] == [[2, 0.55, 0.45]]
    # The buffers cleared: an empty day yields no record at all.
    assert audit.day_record(1) is None


def test_writer_reader_roundtrip_and_torn_tail(tmp_path):
    writer = AuditWriter(tmp_path, segment="run")
    writer.append({"day": 0, "batches": []})
    writer.append({"day": 1, "batches": []})
    path = tmp_path / "run.jsonl"
    segment = read_audit_segment(path)
    assert [r["day"] for r in segment.records] == [0, 1]
    assert all(r["schema"] == AUDIT_SCHEMA for r in segment.records)

    # A torn final line (killed mid-append) is silently dropped.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": "' + AUDIT_SCHEMA + '", "seq": 2, "day":')
    segment = read_audit_segment(path)
    assert [r["day"] for r in segment.records] == [0, 1]


def test_reader_rejects_non_increasing_seq(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"schema": "{AUDIT_SCHEMA}", "seq": 1, "day": 0}}\n')
        handle.write(f'{{"schema": "{AUDIT_SCHEMA}", "seq": 1, "day": 1}}\n')
    with pytest.raises(ValueError, match="non-increasing"):
        read_audit_segment(path)


def test_fresh_writer_replaces_stale_segment(tmp_path):
    stale = AuditWriter(tmp_path, segment="run")
    stale.append({"day": 9, "batches": []})
    fresh = AuditWriter(tmp_path, segment="run")
    fresh.append({"day": 0, "batches": []})
    segment = read_audit_segment(tmp_path / "run.jsonl")
    assert [r["day"] for r in segment.records] == [0]


def test_missing_audit_dir_yields_empty_view(tmp_path):
    view = read_audit(tmp_path / "nope")
    assert view.records() == []
    assert "no audit records" in render_explain(view)


def test_audited_run_records_full_decision_paths(tmp_path):
    _results, view = _audited_run(tmp_path / "audit")
    records = view.records()
    assert [r["day"] for r in records] == list(range(TINY.num_days))
    # Every day: capacity notes for the bandit side, with known rules.
    for record in records:
        assert record["algorithm"] == "LACB-Opt"
        rules = set(record["capacity"]["rule"])
        assert rules <= {"coverage", "epsilon", "ucb", "personal-explore", "personal-ucb"}
    # Every assignment of the run shows up as a decision with provenance.
    decisions = list(view.decisions())
    assert len(decisions) == TINY.num_requests
    record, batch, decision = decisions[0]
    assert decision["residual"] <= decision["capacity"]
    assert decision["delta"] == pytest.approx(
        decision["refined"] - decision["raw"], abs=1e-3
    )
    assert batch["requests"] >= 1


def test_sampling_bounds_record_volume(tmp_path):
    _results, dense = _audited_run(tmp_path / "dense", sample_every=1)
    _results, sparse = _audited_run(tmp_path / "sparse", sample_every=4)
    dense_batches = sum(len(r["batches"]) for r in dense.records())
    sparse_batches = sum(len(r["batches"]) for r in sparse.records())
    assert 0 < sparse_batches < dense_batches
    # Capacity notes are day-level — sampling only thins the batch trails.
    assert all("capacity" in r for r in sparse.records())


def test_jobs_parallel_audit_files_bit_identical(tmp_path):
    names = ("LACB-Opt", "AN")
    _results, serial = _audited_run(tmp_path / "serial", jobs=1, names=names)
    _results, pooled = _audited_run(tmp_path / "pooled", jobs=2, names=names)
    assert [s.segment for s in serial.segments] == [s.segment for s in pooled.segments]
    for left, right in zip(serial.segments, pooled.segments):
        with open(left.path, "rb") as a, open(right.path, "rb") as b:
            assert a.read() == b.read()


def test_audited_results_equal_unaudited(tmp_path):
    plain = run_many(_specs(("LACB-Opt",)))
    audited, _view = _audited_run(tmp_path / "audit")
    assert audited[0].total_realized_utility == plain[0].total_realized_utility
    assert audited[0].broker_workload.tolist() == plain[0].broker_workload.tolist()


def test_kill_mid_run_keeps_completed_days(tmp_path):
    """StopAfterDay raises before the hook flushes the kill day: the audit
    file durably holds every day strictly before it."""
    telemetry = Telemetry()
    telemetry.audit = AuditConfig()
    telemetry.audit_dir = str(tmp_path / "audit")
    telemetry.audit_segment = "main"
    platform = generate_city(TINY)
    matcher = MatcherSpec("LACB-Opt", seed=1).build(platform)
    with use_telemetry(telemetry):
        with pytest.raises(RunInterrupted):
            DayLoopEngine().run(platform, matcher, hooks=(StopAfterDay(1),))
    view = read_audit(tmp_path / "audit")
    assert [r["day"] for r in view.records()] == [0]
    # The interrupted session does not leak into later runs.
    assert telemetry.audit_session is not None  # still parked on telemetry…
    fresh = Telemetry()
    with use_telemetry(fresh):
        assert fresh.audit_session is None  # …but invisible to a new run


def test_explain_renders_filtered_decision_path(tmp_path):
    _results, view = _audited_run(tmp_path / "audit")
    record, batch, decision = next(view.decisions())
    text = render_explain(view, request=decision["request"])
    assert f"request {decision['request']} -> broker {decision['broker']}" in text
    assert "Eq. 15 delta" in text
    assert "bandit: capacity arm" in text
    assert "|B+|" in text
    # Day filter that matches nothing still renders, with zero matches.
    nothing = render_explain(view, day=99)
    assert "0 matching" in nothing


def test_cli_explain_smoke(tmp_path, capsys):
    from repro.cli import main

    directory = tmp_path / "tel"
    main(
        [
            "compare", "--brokers", "15", "--requests", "60", "--days", "2",
            "--imbalance", "0.1", "--algorithms", "LACB-Opt",
            "--telemetry", str(directory), "--audit", "--audit-sample", "2",
        ]
    )
    capsys.readouterr()
    assert os.path.isdir(audit_dir_for(directory))
    main(["explain", str(directory), "--limit", "3"])
    out = capsys.readouterr().out
    assert "decision audit:" in out
    assert "-> broker" in out


def test_cli_audit_requires_telemetry():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["compare", "--audit"])


def test_audit_provenance_identical_under_reference_kernels(tmp_path, capsys, monkeypatch):
    """The day-batched estimate records the same capacity provenance as the
    per-arm reference oracles: identical (broker, capacity, rule) notes,
    mean/bonus to round-off, and the same ``explain`` bandit lines."""
    import re

    from repro.check.differential import install_reference_kernels
    from repro.cli import main

    runs = {}
    for fast in (True, False):
        directory = tmp_path / ("fast" if fast else "reference")
        with monkeypatch.context() as patch:
            if not fast:
                install_reference_kernels(patch)
            main(
                [
                    "compare", "--brokers", "15", "--requests", "90", "--days", "7",
                    "--imbalance", "0.1", "--algorithms", "LACB", "--seed", "3",
                    "--telemetry", str(directory), "--audit",
                ]
            )
        capsys.readouterr()
        notes = [record["capacity"] for record in read_audit(audit_dir_for(directory)).records()]
        main(["explain", str(directory), "--limit", "0"])
        bandit_lines = re.findall(
            r"bandit: capacity arm (\S+) via (\S+)", capsys.readouterr().out
        )
        runs[fast] = (notes, bandit_lines)
    (fast_notes, fast_lines), (ref_notes, ref_lines) = runs[True], runs[False]
    rules = {rule for day in fast_notes for rule in day["rule"]}
    assert {"ucb", "personal-explore", "personal-ucb"} <= rules
    assert len(fast_notes) == len(ref_notes)
    for fast, ref in zip(fast_notes, ref_notes):
        assert fast["broker"] == ref["broker"]
        assert fast["capacity"] == ref["capacity"]
        assert fast["rule"] == ref["rule"]
        for key in ("mean", "bonus"):
            for left, right in zip(fast[key], ref[key]):
                assert (left is None) == (right is None)
                if left is not None:
                    assert left == pytest.approx(right, rel=1e-9, abs=1e-12)
    assert fast_lines and fast_lines == ref_lines
