"""Capacity-aware value function: TD updates, time axis, refinement."""

import numpy as np
import pytest

from repro.core import CapacityAwareValueFunction


def test_parameter_validation():
    with pytest.raises(ValueError):
        CapacityAwareValueFunction(max_state=0)
    with pytest.raises(ValueError):
        CapacityAwareValueFunction(learning_rate=0.0)
    with pytest.raises(ValueError):
        CapacityAwareValueFunction(discount=1.5)
    with pytest.raises(ValueError):
        CapacityAwareValueFunction(bucket_size=0)


def test_initial_values_zero():
    vf = CapacityAwareValueFunction()
    assert vf.value(0.0, 10) == 0.0
    assert vf.refinement(0.0, 10) == 0.0


def test_td_update_moves_toward_target():
    vf = CapacityAwareValueFunction(learning_rate=0.5, discount=0.9)
    vf.td_update(0.1, 20, reward=1.0, next_time_fraction=0.2, next_residual=19)
    # target = 1.0 + 0.9 * 0 = 1.0; step = 0.5
    assert vf.value(0.1, 20) == pytest.approx(0.5)


def test_terminal_row_never_learns():
    vf = CapacityAwareValueFunction(learning_rate=1.0)
    vf.td_update(1.0, 20, reward=5.0, next_time_fraction=1.0, next_residual=19)
    assert vf.value(1.0, 20) == 0.0
    assert vf.num_updates == 0


def test_bootstrap_from_terminal_row():
    vf = CapacityAwareValueFunction(learning_rate=1.0, discount=0.9, time_buckets=4)
    # Last real bucket bootstraps from the zero terminal row.
    vf.td_update(0.9, 10, reward=0.4, next_time_fraction=1.0, next_residual=9)
    assert vf.value(0.9, 10) == pytest.approx(0.4)


def test_expire_day_end_pulls_toward_zero():
    vf = CapacityAwareValueFunction(learning_rate=0.5, time_buckets=4)
    vf.td_update(0.9, 10, reward=1.0, next_time_fraction=1.0, next_residual=9)
    before = vf.value(0.9, 10)
    vf.expire_day_end(10)
    assert 0 < vf.value(0.9, 10) < before


def test_refinement_nonpositive_and_zero_at_terminal():
    vf = CapacityAwareValueFunction(learning_rate=1.0, time_buckets=4, bucket_size=5)
    # Make V(t0, bucket of 10) large and V(t0, bucket of 5) small.
    for _ in range(5):
        vf.td_update(0.1, 10, reward=1.0, next_time_fraction=1.0, next_residual=9)
    assert vf.refinement(0.1, 10) <= 0.0
    assert vf.refinement(1.0, 10) == 0.0


def test_refinement_clamped_at_zero():
    vf = CapacityAwareValueFunction(learning_rate=1.0, bucket_size=5)
    # Inflate the *lower* bucket so the raw difference would be positive.
    vf.td_update(0.1, 4, reward=2.0, next_time_fraction=1.0, next_residual=3)
    assert vf.refinement(0.1, 10) == 0.0


def test_refinement_batch_matches_scalar():
    vf = CapacityAwareValueFunction(learning_rate=0.5, bucket_size=5)
    for residual in (7, 12, 23):
        vf.td_update(0.2, residual, 0.5, 0.25, residual - 1)
    residuals = np.array([5.0, 7.0, 12.0, 23.0])
    batch = vf.refinement_batch(0.2, residuals)
    scalar = np.array([vf.refinement(0.2, r) for r in residuals])
    np.testing.assert_allclose(batch, scalar)


def test_states_clamped_to_range():
    vf = CapacityAwareValueFunction(max_state=50)
    vf.td_update(0.1, 500, 0.3, 0.2, 499)  # clamps to max_state
    assert vf.value(0.1, 500) == vf.value(0.1, 50)
    assert np.isfinite(vf.refinement(0.1, -3))


def test_table_is_copy():
    vf = CapacityAwareValueFunction()
    table = vf.table()
    table += 1.0
    assert vf.value(0.0, 0) == 0.0


# ----------------------------------------------------------------------
# State indexing: scalar min/max equals the np.clip formulation
# ----------------------------------------------------------------------
def _clip_capacity_state(vf, residual):
    """The original ``np.clip`` capacity index, kept as the reference."""
    return int(np.clip(round(residual), 0, vf.max_state)) // vf.bucket_size


def _clip_time_state(vf, fraction):
    """The original ``np.clip`` time index, kept as the reference."""
    if fraction >= 1.0:
        return vf.time_buckets
    return int(np.clip(fraction, 0.0, 1.0) * vf.time_buckets)


def _outcome(index, *args):
    try:
        value = index(*args)
    except Exception as error:  # the exception type is part of the contract
        return type(error)
    assert type(value) is int
    return value


# Halves probe round()'s banker's rounding (0.5 -> 0, 1.5 -> 2, 2.5 -> 2).
@pytest.mark.parametrize(
    "residual",
    [-3, -3.0, 0, 0.0, 0.5, 1.5, 2.5, 4.5, 199.6, 200, 200.4, 201, 350.0, 10**6,
     np.float64(2.5), float("nan"), float("inf"), float("-inf")],
)
def test_capacity_state_matches_clip_formula(residual):
    vf = CapacityAwareValueFunction()
    assert _outcome(vf._capacity_state, residual) == _outcome(
        _clip_capacity_state, vf, residual
    )


@pytest.mark.parametrize(
    "fraction",
    [-0.1, -0.0, 0.0, 0.124, 0.125, 0.5, 0.999, 0.9999999999999999, 1.0, 1.5,
     np.float64(0.6), float("nan"), float("inf"), float("-inf")],
)
def test_time_state_matches_clip_formula(fraction):
    vf = CapacityAwareValueFunction()
    assert _outcome(vf._time_state, fraction) == _outcome(_clip_time_state, vf, fraction)


def test_non_finite_states_raise():
    vf = CapacityAwareValueFunction()
    with pytest.raises(ValueError):
        vf.td_update(float("nan"), 3.0, 1.0, 0.2, 2.0)
    with pytest.raises(ValueError):
        vf.td_update(0.1, float("nan"), 1.0, 0.2, 2.0)
    with pytest.raises(OverflowError):
        vf.expire_day_end(float("inf"))
