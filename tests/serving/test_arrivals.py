"""Arrival schedules: determinism, ordering and the rate profiles."""

import numpy as np
import pytest

from repro.serving import PROFILES, derive_arrivals
from repro.simulation import SyntheticConfig, generate_city


def _stream():
    platform = generate_city(
        SyntheticConfig(num_brokers=15, num_requests=120, num_days=3, imbalance=0.1, seed=5)
    )
    return platform.stream


def test_same_seed_same_schedule():
    stream = _stream()
    a = derive_arrivals(stream, seed=3)
    b = derive_arrivals(stream, seed=3)
    assert np.array_equal(a.offsets, b.offsets)
    c = derive_arrivals(stream, seed=4)
    assert not np.array_equal(a.offsets, c.offsets)


@pytest.mark.parametrize("profile", PROFILES)
def test_offsets_sorted_within_every_window(profile):
    stream = _stream()
    schedule = derive_arrivals(stream, profile=profile, seed=1)
    for day in range(stream.num_days):
        for batch in range(stream.batches_per_day):
            times = schedule.arrival_times(day, batch)
            assert np.all(np.diff(times) >= 0.0)
            assert np.all(times >= schedule.window_start(day, batch))
            assert np.all(times <= schedule.window_end(day, batch))


def test_window_geometry_is_contiguous():
    schedule = derive_arrivals(_stream(), window_seconds=30.0)
    assert schedule.window_start(0, 0) == 0.0
    assert schedule.window_end(0, 0) == schedule.window_start(0, 1)
    last = schedule.batches_per_day - 1
    assert schedule.window_end(0, last) == schedule.window_start(1, 0)


def test_bursty_skews_density_but_not_count():
    stream = _stream()
    uniform = derive_arrivals(stream, profile="uniform", seed=2)
    bursty = derive_arrivals(stream, profile="bursty", seed=2, burst_amplitude=1.5)
    assert uniform.offsets.shape == bursty.offsets.shape
    assert not np.array_equal(uniform.offsets, bursty.offsets)
    # Amplitude 0 degenerates the ramp exponent to 1: exactly uniform.
    flat = derive_arrivals(stream, profile="bursty", seed=2, burst_amplitude=0.0)
    assert np.array_equal(uniform.offsets, flat.offsets)


def test_bursty_first_window_leans_late_last_leans_early():
    stream = _stream()
    if stream.batches_per_day < 2:
        pytest.skip("needs multiple windows per day")
    schedule = derive_arrivals(stream, profile="bursty", seed=0, burst_amplitude=1.5)
    # shape < 1 in the first window of each day pushes draws toward the
    # window end, shape > 1 in the last window toward the window open;
    # aggregate over all days so small windows do not dominate.
    last_batch = stream.batches_per_day - 1
    first = np.concatenate(
        [
            schedule.arrival_times(day, 0) - schedule.window_start(day, 0)
            for day in range(stream.num_days)
        ]
    )
    last = np.concatenate(
        [
            schedule.arrival_times(day, last_batch) - schedule.window_start(day, last_batch)
            for day in range(stream.num_days)
        ]
    )
    assert first.mean() > last.mean()


def test_arrivals_for_requeues_arrive_at_window_open():
    stream = _stream()
    schedule = derive_arrivals(stream, seed=1)
    scheduled = schedule.arrival_times(1, 0)
    ids = np.arange(scheduled.size + 3)
    times = schedule.arrivals_for(1, 0, ids)
    assert times.size == ids.size
    assert np.array_equal(times[: scheduled.size], scheduled)
    assert np.all(times[scheduled.size :] == schedule.window_start(1, 0))


def test_validation_rejects_bad_parameters():
    stream = _stream()
    with pytest.raises(ValueError, match="profile"):
        derive_arrivals(stream, profile="poisson")
    with pytest.raises(ValueError, match="window_seconds"):
        derive_arrivals(stream, window_seconds=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="window_seconds"):
            derive_arrivals(stream, window_seconds=bad)
    with pytest.raises(ValueError, match="burst_amplitude"):
        derive_arrivals(stream, profile="bursty", burst_amplitude=2.0)
