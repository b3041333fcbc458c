"""Benchmark baseline tracking: detect real perf regressions, not noise.

The benchmark suite writes machine-readable artifacts (``BENCH_hotpath.json``,
``BENCH_obs_overhead.json``, ``BENCH_checkpoint.json``) with hard budget
assertions baked in.  Budgets catch catastrophic regressions but are loose
by necessity — a 4.5× speedup eroding to 3.1× passes a 3.0× floor forever.
This module adds the trend line: ``repro-lacb baseline`` appends each
artifact's *comparable* metrics to a small committed trajectory file
(``BENCH_trajectory.json``), and ``--check`` compares fresh artifacts
against the trajectory baseline, failing only beyond a per-metric noise
band.

Only dimensionless ratios are tracked — speedups and on/off overhead
ratios.  Absolute seconds are machine-dependent, so a trajectory committed
from one machine would misfire everywhere else; ratios of measurements
taken on the *same* machine in the *same* run transfer.  Smoke-mode
artifacts (tiny CI instances) only ever compare against smoke-mode
baseline entries, and vice versa.

The baseline is the median of the last ``window`` matching entries: robust
to one noisy append, while still tracking genuine drift.  An artifact whose
``(bench, smoke, metrics)`` content is already recorded is rejected on
append: re-appending an unchanged artifact would only stack copies of one
measurement into that median.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Sequence

#: Committed trajectory file name (repo root by convention).
TRAJECTORY_NAME = "BENCH_trajectory.json"

TRAJECTORY_SCHEMA = "repro.bench.trajectory/v1"

#: Baseline window: median of this many most-recent matching entries.
DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class MetricSpec:
    """One tracked metric of one benchmark artifact.

    Attributes:
        path: dotted path into the artifact JSON (``"scoring.speedup"``).
        higher_is_better: regression direction.
        rel_tol: noise band as a fraction of the baseline value.
        abs_tol: noise band floor in absolute units; the effective band is
            ``max(rel_tol * |baseline|, abs_tol)``.
    """

    path: str
    higher_is_better: bool
    rel_tol: float
    abs_tol: float = 0.0

    def band(self, baseline: float) -> float:
        return max(self.rel_tol * abs(baseline), self.abs_tol)


#: Comparable metrics per ``bench`` tag.  Speedup repeats scatter ~25% on
#: shared CI runners; overhead ratios sit near 1.0 with ~5% pair noise.
METRIC_SPECS: dict[str, tuple[MetricSpec, ...]] = {
    "hotpath": (
        MetricSpec("scoring.speedup", higher_is_better=True, rel_tol=0.30),
        MetricSpec("estimate.speedup", higher_is_better=True, rel_tol=0.30),
        MetricSpec("cbs.speedup", higher_is_better=True, rel_tol=0.30),
    ),
    "incremental": (
        MetricSpec("warm.speedup", higher_is_better=True, rel_tol=0.30),
        MetricSpec("cache.speedup", higher_is_better=True, rel_tol=0.30),
    ),
    "obs_overhead": (
        MetricSpec("overhead_ratio", higher_is_better=False, rel_tol=0.0, abs_tol=0.05),
    ),
    "checkpoint_overhead": (
        MetricSpec("overhead_ratio", higher_is_better=False, rel_tol=0.0, abs_tol=0.05),
    ),
    "decision_audit": (
        MetricSpec("overhead_ratio", higher_is_better=False, rel_tol=0.0, abs_tol=0.05),
    ),
    "serving": (
        MetricSpec("adaptive.p99_ratio", higher_is_better=True, rel_tol=0.30),
        MetricSpec("adaptive.utility_ratio", higher_is_better=True, rel_tol=0.0, abs_tol=0.02),
    ),
}


@dataclass
class Comparison:
    """One metric's verdict against the trajectory baseline."""

    bench: str
    metric: str
    current: float
    baseline: float | None
    band: float
    status: str  # "ok" | "regression" | "no-baseline"
    samples: int

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"


def _dig(payload: Mapping, path: str) -> float | None:
    node = payload
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def extract_entry(payload: Mapping, recorded: str | None = None) -> dict:
    """Distill one benchmark artifact into a trajectory entry.

    Raises:
        ValueError: artifact has no ``bench`` tag or no tracked metrics.
    """
    bench = payload.get("bench")
    if not bench:
        raise ValueError("benchmark artifact has no 'bench' tag")
    specs = METRIC_SPECS.get(bench)
    if not specs:
        raise ValueError(
            f"no tracked metrics for bench {bench!r} "
            f"(known: {sorted(METRIC_SPECS)})"
        )
    metrics = {}
    for spec in specs:
        value = _dig(payload, spec.path)
        if value is not None:
            metrics[spec.path] = value
    if not metrics:
        raise ValueError(f"artifact for bench {bench!r} has none of the tracked metrics")
    if recorded is None:
        recorded = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return {
        "bench": bench,
        "smoke": bool(payload.get("smoke", False)),
        "recorded_utc": recorded,
        "repeats": payload.get("repeats"),
        "metrics": metrics,
    }


def load_trajectory(path) -> dict:
    """Load (or initialize) the trajectory file."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            trajectory = json.load(handle)
        if trajectory.get("schema") != TRAJECTORY_SCHEMA:
            raise ValueError(f"{path}: unknown trajectory schema {trajectory.get('schema')!r}")
        return trajectory
    return {"schema": TRAJECTORY_SCHEMA, "entries": []}


class DuplicateEntryError(ValueError):
    """An artifact's content is already recorded in the trajectory."""


def entry_digest(entry: Mapping) -> str:
    """Content hash of an entry's ``(bench, smoke, metrics)``.

    Timestamps and repeat counts are left out: the same measurement
    appended twice differs only in those.
    """
    content = {
        "bench": entry.get("bench"),
        "smoke": bool(entry.get("smoke", False)),
        "metrics": entry.get("metrics", {}),
    }
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def _reject_recorded(entry: Mapping, recorded: set[str]) -> None:
    if entry_digest(entry) in recorded:
        raise DuplicateEntryError(
            f"{entry['bench']} ({'smoke' if entry['smoke'] else 'full'}) metrics "
            f"{entry['metrics']} are already recorded in the trajectory — "
            "re-run the benchmark before appending"
        )


def append_entry(path, payload: Mapping, recorded: str | None = None) -> dict:
    """Append one artifact's entry to the trajectory (atomic write).

    Raises:
        DuplicateEntryError: the artifact's content is already recorded.
    """
    from repro.state.io import atomic_write_json

    trajectory = load_trajectory(path)
    entry = extract_entry(payload, recorded=recorded)
    _reject_recorded(entry, {entry_digest(e) for e in trajectory["entries"]})
    trajectory["entries"].append(entry)
    atomic_write_json(path, trajectory)
    return entry


def baseline_value(
    trajectory: Mapping, bench: str, smoke: bool, metric: str, window: int = DEFAULT_WINDOW
) -> tuple[float | None, int]:
    """Median of the last ``window`` matching entries; (None, 0) if none."""
    values = [
        entry["metrics"][metric]
        for entry in trajectory.get("entries", ())
        if entry.get("bench") == bench
        and bool(entry.get("smoke", False)) == smoke
        and metric in entry.get("metrics", {})
    ]
    if not values:
        return None, 0
    tail = values[-window:]
    ordered = sorted(tail)
    mid = len(ordered) // 2
    median = (
        ordered[mid]
        if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    return median, len(tail)


def compare_artifact(
    payload: Mapping, trajectory: Mapping, window: int = DEFAULT_WINDOW
) -> list[Comparison]:
    """Compare one artifact against the trajectory, metric by metric.

    A metric with no matching baseline entries reports ``no-baseline`` —
    informational, never a failure (first runs and fresh smoke configs
    must not brick CI).
    """
    bench = str(payload.get("bench", ""))
    smoke = bool(payload.get("smoke", False))
    comparisons: list[Comparison] = []
    for spec in METRIC_SPECS.get(bench, ()):
        current = _dig(payload, spec.path)
        if current is None:
            continue
        baseline, samples = baseline_value(trajectory, bench, smoke, spec.path, window)
        if baseline is None:
            comparisons.append(
                Comparison(bench, spec.path, current, None, 0.0, "no-baseline", 0)
            )
            continue
        band = spec.band(baseline)
        if spec.higher_is_better:
            regressed = current < baseline - band
        else:
            regressed = current > baseline + band
        comparisons.append(
            Comparison(
                bench,
                spec.path,
                current,
                baseline,
                band,
                "regression" if regressed else "ok",
                samples,
            )
        )
    return comparisons


def run_baseline(
    artifact_paths: Sequence[str],
    trajectory_path: str,
    append: bool = False,
    window: int = DEFAULT_WINDOW,
) -> tuple[list[Comparison], list[dict]]:
    """Load artifacts, compare against the trajectory, optionally append.

    Comparison happens against the trajectory *before* appending, so a
    combined append+check run judges the fresh numbers against history,
    not against themselves.  Appending is all-or-nothing: if any artifact
    is already recorded (or given twice), nothing is appended.

    Returns:
        ``(comparisons, appended entries)``.

    Raises:
        DuplicateEntryError: with ``append``, an artifact is already recorded.
    """
    payloads = []
    for path in artifact_paths:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    trajectory = load_trajectory(trajectory_path)
    comparisons: list[Comparison] = []
    for payload in payloads:
        comparisons.extend(compare_artifact(payload, trajectory, window=window))
    appended = []
    if append:
        recorded = {entry_digest(entry) for entry in trajectory["entries"]}
        for payload in payloads:
            entry = extract_entry(payload)
            _reject_recorded(entry, recorded)
            recorded.add(entry_digest(entry))
        for payload in payloads:
            appended.append(append_entry(trajectory_path, payload))
    return comparisons, appended


def default_artifacts(directory=".") -> list[str]:
    """The ``BENCH_*.json`` artifacts in a directory (trajectory excluded)."""
    names = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("BENCH_")
        and name.endswith(".json")
        and name != TRAJECTORY_NAME
    )
    return [os.path.join(directory, name) for name in names]
