"""Baseline tracking: extraction, windows, noise bands, regressions."""

import json

import pytest

from repro.obs.baseline import (
    TRAJECTORY_SCHEMA,
    DuplicateEntryError,
    append_entry,
    baseline_value,
    compare_artifact,
    default_artifacts,
    extract_entry,
    load_trajectory,
    run_baseline,
)

HOTPATH = {
    "bench": "hotpath",
    "smoke": False,
    "repeats": 5,
    "scoring": {"speedup": 4.5, "vectorized_seconds": 0.01},
    "cbs": {"speedup": 2.1},
}
OVERHEAD = {"bench": "obs_overhead", "smoke": True, "overhead_ratio": 1.02}


def test_extract_entry_keeps_only_tracked_ratios():
    entry = extract_entry(HOTPATH, recorded="2026-08-08T00:00:00Z")
    assert entry["bench"] == "hotpath"
    assert entry["smoke"] is False
    assert entry["metrics"] == {"scoring.speedup": 4.5, "cbs.speedup": 2.1}
    # Absolute seconds never enter the trajectory: machine-dependent.
    assert "scoring.vectorized_seconds" not in entry["metrics"]


def test_extract_entry_rejects_untagged_and_unknown():
    with pytest.raises(ValueError, match="bench"):
        extract_entry({"overhead_ratio": 1.0})
    with pytest.raises(ValueError, match="no tracked metrics"):
        extract_entry({"bench": "mystery"})
    with pytest.raises(ValueError, match="none of the tracked"):
        extract_entry({"bench": "hotpath"})


def test_append_and_load_roundtrip(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    append_entry(path, HOTPATH, recorded="2026-08-08T00:00:00Z")
    append_entry(path, OVERHEAD, recorded="2026-08-08T00:01:00Z")
    trajectory = load_trajectory(path)
    assert trajectory["schema"] == TRAJECTORY_SCHEMA
    assert [e["bench"] for e in trajectory["entries"]] == ["hotpath", "obs_overhead"]
    with pytest.raises(ValueError, match="schema"):
        (tmp_path / "bad.json").write_text('{"schema": "nope"}')
        load_trajectory(tmp_path / "bad.json")


def _trajectory(values, bench="hotpath", smoke=False, metric="scoring.speedup"):
    return {
        "schema": TRAJECTORY_SCHEMA,
        "entries": [
            {"bench": bench, "smoke": smoke, "metrics": {metric: value}}
            for value in values
        ],
    }


def test_baseline_is_median_of_trailing_window():
    trajectory = _trajectory([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0])
    value, samples = baseline_value(trajectory, "hotpath", False, "scoring.speedup", window=5)
    assert samples == 5
    assert value == 5.0  # median of [3, 4, 5, 6, 100] — robust to the spike
    value, _ = baseline_value(trajectory, "hotpath", False, "scoring.speedup", window=4)
    assert value == 5.5  # even window: mean of the middle pair


def test_smoke_entries_never_mix_with_full_entries():
    trajectory = _trajectory([10.0], smoke=True)
    assert baseline_value(trajectory, "hotpath", False, "scoring.speedup") == (None, 0)
    value, samples = baseline_value(trajectory, "hotpath", True, "scoring.speedup")
    assert (value, samples) == (10.0, 1)


def test_compare_flags_regressions_beyond_band_only():
    trajectory = _trajectory([4.0, 4.0, 4.0])
    # Within the 30% relative band of a 4.0 baseline: ok.
    ok = compare_artifact(dict(HOTPATH, scoring={"speedup": 3.0}), trajectory)
    by_metric = {c.metric: c for c in ok}
    assert by_metric["scoring.speedup"].status == "ok"
    assert by_metric["scoring.speedup"].band == pytest.approx(1.2)
    # Beyond the band: regression (higher_is_better, so a drop fails).
    bad = compare_artifact(dict(HOTPATH, scoring={"speedup": 2.7}), trajectory)
    assert {c.metric: c.status for c in bad}["scoring.speedup"] == "regression"
    # cbs.speedup has no history: informational, never a failure.
    assert by_metric["cbs.speedup"].status == "no-baseline"


def test_overhead_regression_direction_is_inverted():
    trajectory = _trajectory([1.02], bench="obs_overhead", smoke=True, metric="overhead_ratio")
    faster = compare_artifact(dict(OVERHEAD, overhead_ratio=0.99), trajectory)
    assert faster[0].status == "ok"
    slower = compare_artifact(dict(OVERHEAD, overhead_ratio=1.10), trajectory)
    assert slower[0].status == "regression"
    assert slower[0].band == pytest.approx(0.05)  # abs_tol floor


def test_run_baseline_compares_before_appending(tmp_path):
    artifact = tmp_path / "BENCH_obs_overhead.json"
    artifact.write_text(json.dumps(OVERHEAD))
    trajectory_path = tmp_path / "BENCH_trajectory.json"

    first, appended = run_baseline([str(artifact)], str(trajectory_path), append=True)
    assert first[0].status == "no-baseline"
    assert len(appended) == 1

    # Second run (a fresh measurement): judged against history (the
    # just-appended entry), and the fresh numbers are never compared
    # against themselves.
    artifact.write_text(json.dumps(dict(OVERHEAD, overhead_ratio=1.03)))
    second, _ = run_baseline([str(artifact)], str(trajectory_path), append=True)
    assert second[0].status == "ok"
    assert second[0].baseline == pytest.approx(1.02)
    assert len(load_trajectory(trajectory_path)["entries"]) == 2


def test_default_artifacts_excludes_trajectory(tmp_path):
    (tmp_path / "BENCH_hotpath.json").write_text("{}")
    (tmp_path / "BENCH_trajectory.json").write_text("{}")
    (tmp_path / "notes.json").write_text("{}")
    paths = default_artifacts(tmp_path)
    assert [p.rsplit("/", 1)[1] for p in paths] == ["BENCH_hotpath.json"]


def test_append_rejects_already_recorded_content(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    append_entry(path, HOTPATH, recorded="2026-08-08T00:00:00Z")
    # Same (bench, smoke, metrics) under a new timestamp and repeat count.
    with pytest.raises(DuplicateEntryError, match="already recorded"):
        append_entry(path, dict(HOTPATH, repeats=9), recorded="2026-08-09T00:00:00Z")
    # Different smoke mode or a changed metric is a new measurement.
    append_entry(path, dict(HOTPATH, smoke=True))
    append_entry(path, dict(HOTPATH, cbs={"speedup": 2.2}))
    assert len(load_trajectory(path)["entries"]) == 3


def test_run_baseline_append_is_all_or_nothing(tmp_path):
    fresh = tmp_path / "BENCH_hotpath.json"
    fresh.write_text(json.dumps(HOTPATH))
    stale = tmp_path / "BENCH_obs_overhead.json"
    stale.write_text(json.dumps(OVERHEAD))
    trajectory_path = tmp_path / "BENCH_trajectory.json"
    append_entry(trajectory_path, OVERHEAD)
    with pytest.raises(DuplicateEntryError):
        run_baseline([str(fresh), str(stale)], str(trajectory_path), append=True)
    assert [e["bench"] for e in load_trajectory(trajectory_path)["entries"]] == [
        "obs_overhead"
    ]
    # The same artifact twice in one call is a duplicate too.
    with pytest.raises(DuplicateEntryError):
        run_baseline([str(fresh), str(fresh)], str(trajectory_path), append=True)


def test_cli_baseline_append_rejects_duplicate(tmp_path):
    from repro.cli import main

    artifact = tmp_path / "BENCH_obs_overhead.json"
    artifact.write_text(json.dumps(OVERHEAD))
    trajectory_path = tmp_path / "BENCH_trajectory.json"
    args = ["baseline", str(artifact), "--trajectory", str(trajectory_path), "--append"]
    main(args)
    with pytest.raises(SystemExit, match="already recorded"):
        main(args)
    assert len(load_trajectory(trajectory_path)["entries"]) == 1
