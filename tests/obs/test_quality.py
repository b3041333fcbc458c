"""Quality telemetry: pure measures, gauges, regret, cross-process merge."""

import numpy as np
import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.obs.quality import (
    batch_regret,
    capacity_bias,
    capacity_mae,
    estimated_capacities_of,
    gini,
    overload_rate,
)
from repro.obs.telemetry import Telemetry
from repro.simulation import SyntheticConfig

TINY = SyntheticConfig(num_brokers=15, num_requests=60, num_days=3, imbalance=0.1, seed=5)

QUALITY_GAUGE_NAMES = (
    "quality.workload_gini",
    "quality.overload_rate",
    "quality.capacity_mae",
    "quality.capacity_bias",
    "quality.regret_ratio",
)


def _specs(names):
    return [
        RunSpec(platform=PlatformSpec.synthetic(TINY), matcher=MatcherSpec(name, seed=1))
        for name in names
    ]


def _gauge(registry, name, algorithm):
    found = [m for labels, m in registry.find(name) if labels.get("algorithm") == algorithm]
    return found[0].value if found else None


# ----------------------------------------------------------------------
# Pure measures
# ----------------------------------------------------------------------
def test_gini_matches_experiments_estimator():
    from repro.experiments.metrics import gini as reference

    rng = np.random.default_rng(0)
    for values in ([], [5.0], [1, 1, 1, 1], rng.integers(0, 20, size=30)):
        values = np.asarray(values, dtype=float)
        expected = reference(values) if values.size else 0.0
        assert gini(values) == pytest.approx(expected)
    assert gini([0.0, 0.0]) == 0.0  # degenerate all-zero day
    assert gini([0, 0, 0, 10]) == pytest.approx(0.75)


def test_capacity_error_measures():
    estimated = np.array([10.0, 20.0, 30.0])
    true = np.array([12.0, 20.0, 24.0])
    assert capacity_mae(estimated, true) == pytest.approx(8 / 3)
    assert capacity_bias(estimated, true) == pytest.approx(4 / 3)
    assert capacity_mae(np.array([]), np.array([])) == 0.0


def test_overload_rate_counts_strict_excess():
    workloads = np.array([5, 10, 11, 0])
    capacities = np.array([5, 9, 12, 1])
    assert overload_rate(workloads, capacities) == pytest.approx(0.25)


def test_batch_regret_against_known_optimum():
    from repro.core.types import AssignedPair, Assignment

    utilities = np.array([[1.0, 0.0], [0.0, 2.0]])
    assignment = Assignment(day=0, batch=0)
    assignment.pairs.append(AssignedPair(0, 1, 0.0))  # deliberately bad match
    matched, oracle = batch_regret(utilities, assignment)
    assert matched == 0.0
    assert oracle == pytest.approx(3.0)


def test_estimated_capacities_duck_typing():
    class WithProperty:
        estimated_capacities = np.array([1.0, 2.0])

    class WithAssigner:
        class assigner:
            capacities = np.array([3.0])

    class Ranker:
        pass

    assert estimated_capacities_of(WithProperty()).tolist() == [1.0, 2.0]
    assert estimated_capacities_of(WithAssigner()).tolist() == [3.0]
    assert estimated_capacities_of(Ranker()) is None


# ----------------------------------------------------------------------
# End-to-end gauges
# ----------------------------------------------------------------------
def _streamed_registry(directory, names, jobs=1):
    """Run ``names`` streaming under ``directory``; the stream-merged registry."""
    from repro.obs.stream import read_stream

    telemetry = Telemetry()
    telemetry.stream_dir = str(directory)
    run_many(_specs(names), jobs=jobs, telemetry=telemetry)
    return read_stream(directory).merged_registry()


def test_run_books_quality_gauges_per_algorithm(tmp_path):
    registry = _streamed_registry(tmp_path, ("LACB-Opt", "Top-3"))

    for name in QUALITY_GAUGE_NAMES:
        value = _gauge(registry, name, "LACB-Opt")
        assert value is not None, name
    assert 0.0 <= _gauge(registry, "quality.workload_gini", "LACB-Opt") <= 1.0
    assert 0.0 <= _gauge(registry, "quality.overload_rate", "LACB-Opt") <= 1.0
    assert 0.0 <= _gauge(registry, "quality.regret_ratio", "LACB-Opt") <= 1.0
    assert _gauge(registry, "quality.capacity_mae", "LACB-Opt") >= 0.0

    # Top-3 has no capacity model: its error gauges must be *absent*, not 0.
    assert _gauge(registry, "quality.capacity_mae", "Top-3") is None
    assert _gauge(registry, "quality.capacity_bias", "Top-3") is None
    assert _gauge(registry, "quality.workload_gini", "Top-3") is not None

    # Day-level distributions land in mergeable histograms.
    (gini_hist,) = [
        m for labels, m in registry.find("quality.workload_gini_days")
        if labels.get("algorithm") == "LACB-Opt"
    ]
    assert gini_hist.count == TINY.num_days


def test_regret_counters_merge_bit_identical_across_jobs(tmp_path):
    serial = _streamed_registry(tmp_path / "serial", ("LACB-Opt", "AN"), jobs=1)
    pooled = _streamed_registry(tmp_path / "pooled", ("LACB-Opt", "AN"), jobs=2)
    for name in (
        "quality.regret_matched_utility",
        "quality.regret_oracle_utility",
        "quality.regret_batches",
    ):
        left = {tuple(sorted(labels.items())): m.value for labels, m in serial.find(name)}
        right = {tuple(sorted(labels.items())): m.value for labels, m in pooled.find(name)}
        assert left == right, name
        assert left, name  # the counters exist and carry data


def test_quality_metrics_reach_prometheus_export(tmp_path):
    text = _streamed_registry(tmp_path, ("LACB-Opt",)).prometheus_text()
    assert "quality_workload_gini" in text
    assert "quality_overload_rate" in text
    assert "quality_capacity_mae" in text
    assert "quality_regret_ratio" in text


def test_progress_stream_carries_quality_fields(tmp_path):
    from repro.obs.stream import read_stream

    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    run_many(_specs(("LACB-Opt",)), telemetry=telemetry)
    (segment,) = read_stream(tmp_path).segments
    progress = segment.progress
    assert "workload_gini" in progress
    assert "overload_rate" in progress
    assert "capacity_mae" in progress
    assert "regret_ratio" in progress


def test_ranker_progress_omits_capacity_fields(tmp_path):
    from repro.obs.stream import read_stream

    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    run_many(_specs(("Top-3",)), telemetry=telemetry)
    (segment,) = read_stream(tmp_path).segments
    # Absent, never zero-filled — report renders these as "-".
    assert "capacity_mae" not in segment.progress
    assert "workload_gini" in segment.progress
