"""Executor: ordering, worker counts, the platform cache, streamed telemetry."""

import dataclasses

import numpy as np
import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.engine.executor import execute_spec, warm_platform_cache
from repro.obs import telemetry as obs
from repro.obs.stream import read_stream
from repro.obs.telemetry import Telemetry
from repro.simulation import SyntheticConfig

TINY = SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=11)
OTHER = SyntheticConfig(num_brokers=25, num_requests=100, num_days=2, imbalance=0.1, seed=12)


def _grid():
    return [
        RunSpec(platform=PlatformSpec.synthetic(config), matcher=MatcherSpec(name, seed=1))
        for config in (TINY, OTHER)
        for name in ("Top-1", "Top-3", "KM")
    ]


def test_results_come_back_in_spec_order():
    specs = _grid()
    runs = run_many(specs, jobs=3)
    assert [run.algorithm for run in runs] == [spec.matcher.name for spec in specs]
    # The two instances differ, so identical algorithms must differ across
    # the grid — proof the ordering is by spec, not by completion time.
    assert runs[0].total_realized_utility != runs[3].total_realized_utility


def test_parallel_equals_serial_on_mixed_grid():
    specs = _grid()
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.total_realized_utility == b.total_realized_utility
        np.testing.assert_array_equal(a.broker_workload, b.broker_workload)


def test_jobs_zero_means_all_cpus():
    specs = _grid()[:2]
    runs = run_many(specs, jobs=0)
    assert len(runs) == 2
    assert runs[0].algorithm == "Top-1"


def test_empty_and_single_spec_lists():
    assert run_many([], jobs=4) == []
    (only,) = run_many(_grid()[:1], jobs=4)
    assert only.algorithm == "Top-1"


def _telemetry_grid():
    # LACB-Opt exercises the full instrumentation surface (CBS pruning,
    # KM solve, TD updates, bandit train); Top-3 adds a second label.
    return [
        RunSpec(platform=PlatformSpec.synthetic(TINY), matcher=MatcherSpec(name, seed=1))
        for name in ("LACB-Opt", "Top-3")
    ]


#: Distributions of measured seconds: they differ between any two runs.
TIMING_SERIES = ("span.",)


def _streamed(directory, specs, jobs):
    """Run ``specs`` streaming under ``directory``; the stream-merged registry."""
    telemetry = Telemetry()
    telemetry.stream_dir = str(directory)
    results = run_many(specs, jobs=jobs, telemetry=telemetry)
    return results, read_stream(directory).merged_registry()


def _comparable_metrics(registry):
    """Counters and seeded distributions (exactly mergeable) as plain data."""
    return [
        entry
        for entry in registry.to_dict()["metrics"]
        if entry["kind"] == "counter"
        or (entry["kind"] == "distribution" and not entry["name"].startswith(TIMING_SERIES))
    ]


def test_parallel_telemetry_merge_is_bit_identical_to_serial(tmp_path):
    """jobs must be a pure wall-clock knob for hook-observed state too.

    With jobs>1 the runs execute in worker processes, and each writes only
    its own stream segment.  Counters and distributions merge exactly in
    segment (= spec) order, so the stream-merged registry of a jobs=2 run
    must equal the jobs=1 one bit-for-bit.
    """
    _, serial = _streamed(tmp_path / "serial", _telemetry_grid(), jobs=1)
    _, parallel = _streamed(tmp_path / "parallel", _telemetry_grid(), jobs=2)

    serial_metrics = _comparable_metrics(serial)
    assert serial_metrics, "the serial run must have observed something"
    assert serial_metrics == _comparable_metrics(parallel)
    # The observed runs really went through the instrumented paths.
    names = {entry["name"] for entry in serial_metrics}
    assert "engine.runs" in names
    assert "vfga.td_updates" in names


def test_parallel_percentiles_bit_identical_to_serial(tmp_path):
    """p50/p95/p99 must not depend on the jobs knob, bit for bit.

    Distribution sketches merge as integer bucket counts in spec order, so
    the merged quantiles of a jobs=2 run equal the serial run exactly —
    not approximately.  ``engine.batch_requests`` is deterministic (batch
    sizes are seeded), making the comparison meaningful.
    """
    _, serial = _streamed(tmp_path / "serial", _telemetry_grid(), jobs=1)
    _, parallel = _streamed(tmp_path / "parallel", _telemetry_grid(), jobs=2)
    for algorithm in ("LACB-Opt", "Top-3"):
        a = serial.distribution("engine.batch_requests", algorithm=algorithm)
        b = parallel.distribution("engine.batch_requests", algorithm=algorithm)
        assert a.count > 0
        assert a.state() == b.state()
        assert a.quantiles() == b.quantiles()
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == b.quantile(q)  # exact equality, no approx


def test_run_many_uses_active_telemetry_by_default(tmp_path):
    telemetry = Telemetry()
    telemetry.stream_dir = str(tmp_path)
    with obs.use(telemetry):
        run_many(_telemetry_grid()[:1], jobs=1)
    view = read_stream(tmp_path)
    assert view.merged_registry().counter("engine.runs", algorithm="LACB-Opt").value == 1
    assert len(view.spans()) > 0
    # The run kept its telemetry in its segment, not in the parent.
    assert len(telemetry.registry) == 0
    assert telemetry.tracer.records == []


def test_run_many_under_telemetry_without_stream_dir_is_rejected():
    with pytest.raises(ValueError, match="stream_dir"):
        run_many(_telemetry_grid()[:1], telemetry=Telemetry())
    with obs.use(Telemetry()), pytest.raises(ValueError, match="stream_dir"):
        run_many(_telemetry_grid()[:1], jobs=2)


def test_run_many_without_telemetry_collects_nothing():
    obs.disable()
    results = run_many(_telemetry_grid()[:1], jobs=1)
    assert len(results) == 1
    assert obs.current() is None


def test_parallel_results_unchanged_by_telemetry_collection(tmp_path):
    plain = run_many(_telemetry_grid(), jobs=1)
    observed, _ = _streamed(tmp_path, _telemetry_grid(), jobs=2)
    for a, b in zip(plain, observed):
        assert a.total_realized_utility == pytest.approx(b.total_realized_utility)
        np.testing.assert_array_equal(a.broker_workload, b.broker_workload)


def test_warm_platform_cache_reuses_donated_platform(monkeypatch):
    platform_spec = PlatformSpec.synthetic(TINY)
    platform = platform_spec.build()
    warm_platform_cache(platform_spec, platform)
    builds = []
    original_build = PlatformSpec.build

    def counting_build(self):
        builds.append(self.cache_key())
        return original_build(self)

    monkeypatch.setattr(PlatformSpec, "build", counting_build)
    spec = RunSpec(platform=platform_spec, matcher=MatcherSpec("Top-1", seed=1))
    result = execute_spec(spec)
    assert builds == []  # the donated platform was used, nothing rebuilt
    assert result.num_assigned == TINY.num_requests
    # A different platform spec evicts the slot and triggers a real build.
    other = RunSpec(platform=PlatformSpec.synthetic(OTHER), matcher=MatcherSpec("Top-1", seed=1))
    execute_spec(other)
    assert len(builds) == 1


def test_serving_specs_are_bit_identical_across_jobs(tmp_path):
    """A serving spec's report crosses the process pool with its result, and
    every deterministic field and distribution equals the serial run's."""
    from repro.check.resume import _compare_results
    from repro.serving import ServingSpec

    serving = ServingSpec(profile="bursty", max_wait=5.0, max_size=4)
    specs = [
        dataclasses.replace(spec, serving=serving, store_assignments=True)
        for spec in _telemetry_grid()
    ]
    one, serial = _streamed(tmp_path / "serial", specs, jobs=1)
    two, parallel = _streamed(tmp_path / "parallel", specs, jobs=2)
    for a, b in zip(one, two):
        assert a.serving.micro_batches > 0
        assert _compare_results(a, b, a.algorithm) == []

    def deterministic(registry):
        # Latencies carry measured service seconds.
        return [e for e in _comparable_metrics(registry) if e["name"] != "serving.latency"]

    assert deterministic(serial) == deterministic(parallel)
    assert "serving.queue_wait" in {entry["name"] for entry in deterministic(serial)}
