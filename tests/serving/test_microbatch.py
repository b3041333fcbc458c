"""Micro-batch policy splitting and the load-leveling queue."""

import numpy as np
import pytest

from repro.serving import FLUSH_REASONS, LoadLevelingQueue, MicroBatchPolicy


def _coverage(batches, n):
    """Batches must tile [0, n) contiguously with non-decreasing closes."""
    assert batches[0].start == 0
    assert batches[-1].stop == n
    for earlier, later in zip(batches, batches[1:]):
        assert earlier.stop == later.start
        assert earlier.close_time <= later.close_time
    assert all(b.size >= 1 for b in batches)
    assert all(b.reason in FLUSH_REASONS for b in batches)


def test_boundary_policy_is_one_batch_per_window():
    arrivals = np.sort(np.random.default_rng(0).random(25)) * 60.0
    batches = MicroBatchPolicy.boundary(60.0).split(arrivals, window_end=60.0)
    assert len(batches) == 1
    assert (batches[0].start, batches[0].stop) == (0, 25)
    assert batches[0].close_time == 60.0
    assert batches[0].reason == "boundary"


def test_max_wait_closes_on_first_arrival_deadline():
    arrivals = np.array([0.0, 1.0, 2.0, 30.0, 31.0])
    batches = MicroBatchPolicy(max_wait=5.0).split(arrivals, window_end=60.0)
    _coverage(batches, 5)
    assert [b.size for b in batches] == [3, 2]
    assert batches[0].close_time == 5.0
    assert batches[0].reason == "max_wait"
    assert batches[1].close_time == 35.0


def test_max_size_closes_the_instant_the_batch_fills():
    arrivals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    batches = MicroBatchPolicy(max_wait=60.0, max_size=2).split(arrivals, window_end=60.0)
    _coverage(batches, 5)
    assert [b.size for b in batches] == [2, 2, 1]
    assert batches[0].close_time == 1.0
    assert batches[0].reason == "max_size"
    # The straggler waits out the window, not the max_wait (which spans it).
    assert batches[2].reason == "boundary"


def test_last_batch_never_outlives_the_window():
    arrivals = np.array([58.0, 59.0])
    batches = MicroBatchPolicy(max_wait=10.0).split(arrivals, window_end=60.0)
    assert len(batches) == 1
    assert batches[0].close_time == 60.0
    assert batches[0].reason == "boundary"


def test_split_of_empty_window_is_empty():
    assert MicroBatchPolicy(max_wait=5.0).split(np.zeros(0), window_end=60.0) == []


def test_policy_validation():
    with pytest.raises(ValueError, match="max_wait"):
        MicroBatchPolicy(max_wait=0.0)
    with pytest.raises(ValueError, match="max_wait"):
        MicroBatchPolicy(max_wait=float("nan"))
    with pytest.raises(ValueError, match="max_size"):
        MicroBatchPolicy(max_wait=1.0, max_size=0)
    # An infinite wait is valid: every batch closes at the window boundary.
    (only,) = MicroBatchPolicy(max_wait=float("inf")).split(np.array([0.0, 1.0, 2.0]), 60.0)
    assert (only.size, only.close_time, only.reason) == (3, 60.0, "boundary")


def test_load_leveling_queue_backlogs_under_saturation():
    queue = LoadLevelingQueue()
    start, done = queue.admit(ready_time=0.0, service_seconds=10.0)
    assert (start, done) == (0.0, 10.0)
    # Second batch is ready at t=1 but the server is busy until t=10.
    start, done = queue.admit(ready_time=1.0, service_seconds=10.0)
    assert (start, done) == (10.0, 20.0)
    # A batch arriving after the backlog drains starts immediately.
    start, done = queue.admit(ready_time=50.0, service_seconds=1.0)
    assert (start, done) == (50.0, 51.0)
    assert queue.last_completion == 51.0
    with pytest.raises(ValueError, match="service_seconds"):
        queue.admit(0.0, -1.0)
