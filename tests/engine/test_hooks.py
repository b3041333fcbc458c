"""Built-in hooks: timing seam and metrics collection."""

import time

import numpy as np
import pytest

from repro.algorithms import make_matcher
from repro.engine import DayLoopEngine, DecisionTimer, MetricsCollector
from repro.simulation import SyntheticConfig, generate_city


def _tiny_platform():
    return generate_city(
        SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=11)
    )


def test_decision_timer_excludes_environment_time():
    """Matcher time must not be charged for ``predicted_utilities`` calls."""
    platform = _tiny_platform()
    sleep_per_batch = 0.01
    original = platform.predicted_utilities
    calls = []

    def slow_predictions(request_ids):
        time.sleep(sleep_per_batch)
        calls.append(request_ids.size)
        return original(request_ids)

    platform.predicted_utilities = slow_predictions
    try:
        timer = DecisionTimer()
        DayLoopEngine().run(platform, make_matcher("Top-1", platform, seed=1), hooks=[timer])
    finally:
        del platform.predicted_utilities
    environment_seconds = sleep_per_batch * len(calls)
    assert len(calls) > 0
    # The matcher itself is near-instant; if environment time leaked into
    # the decision clock, the total would be >= the injected sleeps.
    assert timer.total_seconds < 0.5 * environment_seconds
    assert timer.daily_seconds.shape == (platform.num_days,)
    assert np.all(timer.daily_seconds >= 0.0)


def test_metrics_collector_timer_is_single_source_of_truth():
    platform = _tiny_platform()
    collector = MetricsCollector()
    standalone = DecisionTimer()
    DayLoopEngine().run(
        platform, make_matcher("Top-1", platform, seed=1), hooks=[collector, standalone]
    )
    result = collector.result
    # The result's timing fields are exactly the internal timer's arrays.
    assert result.daily_decision_time is collector.timer.daily_seconds
    assert result.decision_time == collector.timer.total_seconds
    # Any DecisionTimer observing the same run sees the same event stream.
    np.testing.assert_array_equal(result.daily_decision_time, standalone.daily_seconds)


def test_metrics_collector_requires_finished_run():
    with pytest.raises(RuntimeError, match="has not completed"):
        MetricsCollector().result


def test_metrics_collector_is_reusable_across_runs():
    platform = _tiny_platform()
    collector = MetricsCollector()
    engine = DayLoopEngine()
    engine.run(platform, make_matcher("Top-1", platform, seed=1), hooks=[collector])
    first = collector.result.total_realized_utility
    engine.run(platform, make_matcher("Top-1", platform, seed=1), hooks=[collector])
    assert collector.result.total_realized_utility == first


def test_metrics_collector_stores_assignments_and_outcomes():
    platform = _tiny_platform()
    collector = MetricsCollector(store_assignments=True, store_outcomes=True)
    DayLoopEngine().run(platform, make_matcher("Top-3", platform, seed=1), hooks=[collector])
    result = collector.result
    assert len(result.outcomes) == platform.num_days
    assert len(result.assignments) == platform.num_days * platform.batches_per_day
    assert sum(len(assignment) for assignment in result.assignments) == result.num_assigned
