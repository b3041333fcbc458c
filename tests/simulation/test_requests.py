"""Request streams: batching structure, district skew, value profile."""

import numpy as np
import pytest

from repro.simulation.requests import generate_stream


def _stream(**overrides):
    defaults = dict(
        num_requests=500,
        num_days=4,
        batches_per_day=5,
        num_districts=6,
        rng=np.random.default_rng(2),
    )
    defaults.update(overrides)
    return generate_stream(**defaults)


def test_parameter_validation():
    with pytest.raises(ValueError):
        _stream(num_requests=0)
    with pytest.raises(ValueError):
        _stream(intraday_value_amplitude=2.5)


def test_batches_partition_the_stream():
    stream = _stream()
    seen = []
    for day in range(stream.num_days):
        for batch in range(stream.batches_per_day):
            seen.extend(stream.batch_indices(day, batch).tolist())
    assert sorted(seen) == list(range(len(stream)))


def test_batch_sizes_near_even():
    stream = _stream(num_requests=503)
    sizes = [
        stream.batch_indices(day, batch).size
        for day in range(stream.num_days)
        for batch in range(stream.batches_per_day)
    ]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 503


def test_out_of_range_lookup():
    stream = _stream()
    with pytest.raises(IndexError):
        stream.batch_indices(99, 0)
    with pytest.raises(IndexError):
        stream.batch_indices(-1, 0)


def test_district_popularity_skewed():
    stream = _stream(num_requests=5000)
    counts = np.bincount(stream.district, minlength=stream.num_districts)
    assert counts[0] > 2 * counts[-1]  # Zipf-like head


def test_value_multiplier_ramps_within_day():
    stream = _stream(intraday_value_amplitude=0.6)
    first = stream.batch_indices(0, 0)
    last = stream.batch_indices(0, stream.batches_per_day - 1)
    assert stream.value_multiplier[first].mean() == pytest.approx(0.7)
    assert stream.value_multiplier[last].mean() == pytest.approx(1.3)


def test_zero_amplitude_flat_profile():
    stream = _stream(intraday_value_amplitude=0.0)
    np.testing.assert_allclose(stream.value_multiplier, 1.0)
