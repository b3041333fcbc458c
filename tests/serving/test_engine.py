"""ServingEngine: boundary degeneracy, latency accounting and telemetry."""

import numpy as np
import pytest

from repro.algorithms import make_matcher
from repro.engine import DayLoopEngine
from repro.engine.hooks import MetricsCollector
from repro.obs import telemetry as obs
from repro.obs.quantiles import QuantileSketch
from repro.obs.stream import TelemetryStreamWriter, read_segment
from repro.serving import MicroBatchPolicy, ServingEngine, derive_arrivals
from repro.simulation import SyntheticConfig, generate_city

CONFIG = SyntheticConfig(num_brokers=20, num_requests=100, num_days=2, imbalance=0.1, seed=11)


def _platform():
    return generate_city(CONFIG)


def _serve(algorithm, policy, profile="uniform", hooks=None, platform=None):
    platform = platform or _platform()
    matcher = make_matcher(algorithm, platform, seed=1)
    collector = MetricsCollector()
    schedule = derive_arrivals(platform.stream, profile=profile)
    engine = ServingEngine(policy=policy, schedule=schedule)
    report = engine.run(platform, matcher, hooks=[collector, *(hooks or [])])
    return collector.result, report


@pytest.mark.parametrize("algorithm", ["Top-1", "KM", "LACB", "AN", "LACB-Opt"])
def test_boundary_policy_reproduces_batch_day_loop(algorithm):
    platform = _platform()
    collector = MetricsCollector()
    DayLoopEngine().run(platform, make_matcher(algorithm, platform, seed=1), hooks=[collector])
    batch_result = collector.result

    serving_result, report = _serve(algorithm, MicroBatchPolicy.boundary(60.0))
    assert np.array_equal(
        np.asarray(batch_result.daily_utility), np.asarray(serving_result.daily_utility)
    )
    assert batch_result.assignments == serving_result.assignments
    assert np.array_equal(
        np.asarray(batch_result.outcomes), np.asarray(serving_result.outcomes)
    )
    # Exactly one micro-batch per non-empty window, all boundary-closed.
    assert report.flush_reasons["boundary"] == report.micro_batches
    assert report.requests == platform.stream.num_requests


def test_adaptive_policy_serves_every_request_once():
    _, report = _serve("LACB", MicroBatchPolicy(max_wait=5.0, max_size=8), profile="bursty")
    platform = _platform()
    assert report.requests >= platform.stream.num_requests  # appeals re-enter
    assert report.batch_sizes.sum() == report.requests
    assert report.micro_batches == len(report.batch_sizes)
    assert sum(report.flush_reasons.values()) == report.micro_batches
    assert np.all(report.batch_sizes <= 8)


def test_adaptive_policy_cuts_tail_queue_wait_on_bursty_profile():
    _, fixed = _serve("Top-1", MicroBatchPolicy.boundary(60.0), profile="bursty")
    _, adaptive = _serve("Top-1", MicroBatchPolicy(max_wait=5.0, max_size=16), profile="bursty")
    assert adaptive.wait_quantiles()[2] < fixed.wait_quantiles()[2]
    # Queue waits are virtual-time and therefore exactly bounded.
    assert adaptive.queue_waits.max() <= 5.0 + 1e-9
    assert fixed.queue_waits.max() <= 60.0 + 1e-9


def test_latencies_carry_service_time_on_top_of_waits():
    _, report = _serve("KM", MicroBatchPolicy(max_wait=5.0))
    assert np.all(report.latencies >= report.queue_waits)
    assert report.makespan > 0.0
    assert report.throughput_rps > 0.0
    assert report.service_seconds.shape == (report.micro_batches,)


def test_deterministic_schedule_and_waits_across_runs():
    _, first = _serve("Top-3", MicroBatchPolicy(max_wait=3.0, max_size=12), profile="bursty")
    _, second = _serve("Top-3", MicroBatchPolicy(max_wait=3.0, max_size=12), profile="bursty")
    assert np.array_equal(first.queue_waits, second.queue_waits)
    assert np.array_equal(first.batch_sizes, second.batch_sizes)
    assert first.flush_reasons == second.flush_reasons


def test_geometry_mismatch_is_rejected():
    platform = _platform()
    other = generate_city(
        SyntheticConfig(num_brokers=20, num_requests=100, num_days=3, imbalance=0.1, seed=11)
    )
    schedule = derive_arrivals(other.stream)
    engine = ServingEngine(policy=MicroBatchPolicy.boundary(60.0), schedule=schedule)
    with pytest.raises(ValueError, match="geometry"):
        engine.run(platform, make_matcher("Top-1", platform, seed=1))


def test_serving_metrics_land_in_telemetry_sketches():
    telemetry = obs.Telemetry()
    with obs.use(telemetry):
        _, report = _serve("Top-1", MicroBatchPolicy(max_wait=5.0, max_size=8))
    metrics = telemetry.registry.to_dict()["metrics"]
    names = {entry["name"] for entry in metrics}
    assert {"serving.queue_wait", "serving.latency", "serving.microbatch_size"} <= names
    wait = next(e for e in metrics if e["name"] == "serving.queue_wait")
    assert wait["kind"] == "distribution"
    assert wait["state"]["count"] == report.requests
    flushes = [e for e in metrics if e["name"] == "serving.flushes"]
    assert sum(int(e["state"]["value"]) for e in flushes) == report.micro_batches
    # The distribution answers the serving-latency quantiles.
    wait = telemetry.registry.distribution("serving.queue_wait", algorithm="Top-1")
    p50, p95, p99 = wait.quantiles((0.5, 0.95, 0.99))
    assert 0.0 <= p50 <= p95 <= p99
    # One batched observation per micro-batch leaves the state of one
    # observation per request, in service order (waits are virtual time).
    per_request = QuantileSketch()
    for value in report.queue_waits:
        per_request.observe(float(value))
    assert wait.state() == per_request.state()
    assert float.hex(wait.sum) == float.hex(per_request.sum)


def test_serving_gauges_are_labeled_per_algorithm_and_streamed(tmp_path):
    telemetry = obs.Telemetry()
    algorithms = ("Top-1", "KM")
    with obs.use(telemetry):
        for algorithm in algorithms:
            telemetry.stream = TelemetryStreamWriter(tmp_path, segment=algorithm)
            _serve(algorithm, MicroBatchPolicy(max_wait=5.0, max_size=8))
    gauge_names = ("serving.makespan", "serving.throughput_rps")
    gauges = [
        entry
        for entry in telemetry.registry.to_dict()["metrics"]
        if entry["name"] in gauge_names
    ]
    # One gauge per (name, algorithm), each written exactly once.
    assert sorted((e["name"], e["labels"].get("algorithm")) for e in gauges) == sorted(
        (name, algorithm) for name in gauge_names for algorithm in algorithms
    )
    assert all(e["state"]["updates"] == 1 for e in gauges)
    # The final stream record of each run already carries its gauges.
    for algorithm in algorithms:
        segment = read_segment(tmp_path / f"{algorithm}.jsonl")
        assert segment.final
        streamed = {
            e["name"]
            for e in segment.registry_state["metrics"]
            if e["labels"].get("algorithm") == algorithm
        }
        assert set(gauge_names) <= streamed
