"""QuantileSketch: accuracy bound, exact merge, codec, edge values."""

import json
import math
import random

import numpy as np
import pytest

from repro.obs.quantiles import (
    MAX_TRACKABLE,
    MIN_TRACKABLE,
    REPORT_QUANTILES,
    QuantileSketch,
)


def _exact_quantile(values, q):
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    return ordered[int(rank)]


def test_relative_error_bound_on_lognormal_sample():
    rng = random.Random(7)
    sketch = QuantileSketch(alpha=0.01)
    values = [math.exp(rng.gauss(0.0, 2.0)) for _ in range(5000)]
    for value in values:
        sketch.observe(value)
    for q in (0.1, 0.5, 0.9, 0.95, 0.99):
        exact = _exact_quantile(values, q)
        estimate = sketch.quantile(q)
        # alpha bounds the value-space error; the rank interpolation adds
        # at most one bucket, so 2*alpha is a safe end-to-end bound.
        assert abs(estimate - exact) <= 2 * 0.01 * exact + 1e-12


def test_quantiles_clamped_to_observed_range():
    sketch = QuantileSketch()
    for value in (1.0, 2.0, 3.0):
        sketch.observe(value)
    assert sketch.quantile(0.0) >= 1.0
    assert sketch.quantile(1.0) <= 3.0


def test_empty_sketch_returns_nan_and_rejects_bad_q():
    sketch = QuantileSketch()
    assert math.isnan(sketch.quantile(0.5))
    with pytest.raises(ValueError, match="quantile"):
        sketch.quantile(1.5)


def test_nan_counted_but_never_poisons_quantiles():
    sketch = QuantileSketch()
    sketch.observe(1.0)
    sketch.observe(math.nan)
    sketch.observe(2.0)
    assert sketch.count == 3
    assert sketch.nan == 1
    assert not math.isnan(sketch.quantile(0.5))


def test_zero_negative_and_infinite_values():
    sketch = QuantileSketch()
    for value in (-5.0, -1e-15, 0.0, 3.0, math.inf):
        sketch.observe(value)
    assert sketch.zero == 2  # 0 and the sub-MIN_TRACKABLE magnitude
    assert sketch.min == -5.0
    assert sketch.max == math.inf
    # Median of [-5, ~0, 0, 3, inf] is the zero bucket.
    assert sketch.quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    assert sketch.quantile(0.0) == pytest.approx(-5.0, rel=0.03)
    # The +inf observation clamps to the outermost bucket but max is true.
    assert sketch.quantile(1.0) == math.inf


def test_huge_magnitudes_clamp_to_trackable_range():
    sketch = QuantileSketch()
    sketch.observe(MAX_TRACKABLE * 10)
    assert sketch.count == 1
    assert len(sketch.pos) == 1


def test_merge_is_exact_and_order_independent():
    rng = random.Random(3)
    values = [rng.expovariate(5.0) for _ in range(900)]
    chunks = [values[0:300], values[300:600], values[600:900]]
    whole = QuantileSketch()
    for value in values:
        whole.observe(value)

    parts = []
    for chunk in chunks:
        sketch = QuantileSketch()
        for value in chunk:
            sketch.observe(value)
        parts.append(sketch)

    merged = QuantileSketch()
    for part in parts:
        merged.merge(part)
    reversed_merge = QuantileSketch()
    for part in reversed(parts):
        reversed_merge.merge(part)

    # Bucket counts are integers: merge order cannot change any quantile.
    assert merged.quantiles(REPORT_QUANTILES) == reversed_merge.quantiles(REPORT_QUANTILES)
    assert merged.pos == whole.pos
    assert merged.zero == whole.zero
    assert merged.count == whole.count
    assert merged.quantiles(REPORT_QUANTILES) == whole.quantiles(REPORT_QUANTILES)


def test_merge_rejects_alpha_mismatch():
    with pytest.raises(ValueError, match="alpha"):
        QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


def test_state_roundtrip_through_json_is_bit_identical():
    sketch = QuantileSketch()
    rng = random.Random(11)
    for _ in range(500):
        sketch.observe(rng.gauss(0.0, 1.0))
    sketch.observe(0.0)
    sketch.observe(math.nan)
    payload = json.loads(json.dumps(sketch.state()))
    restored = QuantileSketch.from_state(payload)
    assert restored.state() == sketch.state()
    for q in REPORT_QUANTILES:
        assert restored.quantile(q) == sketch.quantile(q)


def test_quantile_is_pure_function_of_state():
    first = QuantileSketch()
    second = QuantileSketch()
    for value in (0.1, 0.2, 0.2, 0.4, 1.0, 5.0):
        first.observe(value)
    # Same multiset, different arrival order.
    for value in (5.0, 0.2, 1.0, 0.1, 0.4, 0.2):
        second.observe(value)
    assert first.quantiles() == second.quantiles()


# ----------------------------------------------------------------------
# observe_many: bit-for-bit the same as looping observe
# ----------------------------------------------------------------------
def _exact_state(sketch):
    """state() with the floats as hex, so -0.0 and one-ulp sums differ."""
    state = sketch.state()
    for key in ("sum", "min", "max"):
        state[key] = float.hex(state[key])
    return state


def _bucket_edges():
    gamma = QuantileSketch()._gamma
    edges = np.array([gamma**i for i in range(-1300, 1700, 7)])
    return np.concatenate(
        [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    )


_RNG = np.random.default_rng(2024)
OBSERVE_MANY_INPUTS = {
    "lognormal": _RNG.lognormal(0.0, 3.0, size=20000),
    "bucket_edges_and_ulps": _bucket_edges(),
    "negative_edges_and_ulps": -_bucket_edges(),
    # observe keeps whichever signed zero comes first as min and max.
    "zeros": np.array([0.0, -0.0] * 40),
    "zeros_negative_first": np.array([-0.0, 0.0] * 40),
    "sub_min_trackable": np.array(
        [MIN_TRACKABLE, -MIN_TRACKABLE, MIN_TRACKABLE / 3, np.nextafter(MIN_TRACKABLE, 1.0)] * 25
    ),
    "negatives": -_RNG.lognormal(0.0, 2.0, size=500),
    "nan": np.where(_RNG.random(300) < 0.3, np.nan, _RNG.normal(size=300)),
    "all_nan": np.full(100, np.nan),
    "infinities": np.array([np.inf, -np.inf, 1.0, MAX_TRACKABLE * 10, -1e300] * 20),
    "mixed_signs": np.concatenate([_RNG.normal(size=400), [0.0, -0.0, np.nan, np.inf]]),
    "empty": np.array([]),
}


@pytest.mark.parametrize("name", sorted(OBSERVE_MANY_INPUTS))
@pytest.mark.parametrize("prefix", [(), (3.0, -0.0), (math.inf, math.nan)])
def test_observe_many_equals_looped_observe(name, prefix):
    values = OBSERVE_MANY_INPUTS[name]
    looped, batched, chunked = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for sketch in (looped, batched, chunked):
        for value in prefix:
            sketch.observe(value)
    for value in values:
        looped.observe(float(value))
    batched.observe_many(values)
    # Chunks of several sizes, including an empty tail for short inputs.
    for start, stop in ((0, 5), (5, 100), (100, values.size)):
        chunked.observe_many(values[start:stop])
    assert _exact_state(batched) == _exact_state(looped)
    assert _exact_state(chunked) == _exact_state(looped)


def test_observe_many_sum_is_a_sequential_fold():
    """The pairwise ndarray.sum rounds differently; observe_many must not."""
    values = np.random.default_rng(5).lognormal(0.0, 4.0, size=5000)
    sequential = 0.0
    for value in values.tolist():
        sequential += value
    assert float.hex(float(values.sum())) != float.hex(sequential)
    sketch = QuantileSketch()
    sketch.observe_many(values)
    assert float.hex(sketch.sum) == float.hex(sequential)
