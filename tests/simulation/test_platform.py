"""Platform environment: day protocol, realization, appeals, fatigue."""

import numpy as np
import pytest

from repro.core.types import AssignedPair, Assignment
from repro.simulation import RealEstatePlatform, SyntheticConfig, generate_city


def _drive_day(platform, day, broker_for_all=None):
    """Assign every request of a day (to one broker, or each row's argmax)."""
    platform.start_day(day)
    for batch in range(platform.batches_per_day):
        requests = platform.batch_requests(day, batch)
        utilities = platform.predicted_utilities(requests)
        pairs = []
        for row, request_id in enumerate(requests):
            broker = broker_for_all if broker_for_all is not None else int(np.argmax(utilities[row]))
            pairs.append(AssignedPair(int(request_id), broker, float(utilities[row, broker])))
        platform.submit_assignment(Assignment(day, batch, pairs))
    return platform.finish_day()


def test_day_protocol_enforced(tiny_platform):
    platform = tiny_platform
    platform.reset()
    with pytest.raises(RuntimeError):
        platform.batch_requests(0, 0)  # day not opened
    platform.start_day(0)
    with pytest.raises(RuntimeError):
        platform.start_day(1)  # previous day still open
    platform.finish_day()
    with pytest.raises(RuntimeError):
        platform.start_day(0)  # days must advance in order
    with pytest.raises(RuntimeError):
        platform.finish_day()  # nothing open


def test_contexts_shape_and_finite(tiny_platform):
    platform = tiny_platform
    platform.reset()
    contexts = platform.start_day(0)
    assert contexts.shape == (platform.num_brokers, platform.context_dim)
    assert np.all(np.isfinite(contexts))
    platform.finish_day()


def test_outcome_accounts_served_requests(tiny_platform):
    platform = tiny_platform
    platform.reset()
    outcome = _drive_day(platform, 0)
    total_requests = sum(
        platform.stream.batch_indices(0, b).size for b in range(platform.batches_per_day)
    )
    assert outcome.workloads.sum() == total_requests
    assert outcome.total_realized_utility > 0
    served = outcome.workloads > 0
    assert np.all(outcome.signup_rates[~served] == 0.0)
    assert np.all(outcome.signup_rates <= 1.0)


def test_overloading_degrades_utility(tiny_platform):
    """Dumping every request on one broker realizes less than spreading."""
    platform = tiny_platform
    platform.reset()
    spread = _drive_day(platform, 0)
    platform.reset()
    concentrated = _drive_day(platform, 0, broker_for_all=int(platform.latent_capacities.argmax()))
    assert concentrated.total_realized_utility < spread.total_realized_utility


def test_fatigue_shrinks_effective_capacity(tiny_platform):
    platform = tiny_platform
    platform.reset()
    target = int(platform.latent_capacities.argmax())
    base_capacity = platform.effective_capacity(0)[target]
    _drive_day(platform, 0, broker_for_all=target)
    # Overloaded yesterday -> fatigued today -> lower effective capacity
    # (compare at equal seasonality by probing the same weekday next week).
    fatigued = platform.effective_capacity(7)[target]
    assert fatigued < base_capacity


def test_reset_restores_clean_state(tiny_platform):
    platform = tiny_platform
    platform.reset()
    first = _drive_day(platform, 0)
    platform.reset()
    second = _drive_day(platform, 0)
    np.testing.assert_array_equal(first.workloads, second.workloads)
    np.testing.assert_allclose(first.realized_utility, second.realized_utility)


def test_appeals_requeue_and_block(monkeypatch):
    config = SyntheticConfig(
        num_brokers=20, num_requests=300, num_days=2, imbalance=0.1, seed=4, appeal_rate=0.6
    )
    platform = generate_city(config)
    platform.start_day(0)
    appealed: set[int] = set()
    worst = -1
    for batch in range(10):
        requests = platform.batch_requests(0, batch)
        base = set(platform.stream.batch_indices(0, batch).tolist())
        appealed.update(set(requests.tolist()) - base)
        utilities = platform.predicted_utilities(requests)
        worst = int(np.argmin(utilities.mean(axis=0)))
        pairs = [
            AssignedPair(int(r), worst, float(utilities[i, worst]))
            for i, r in enumerate(requests)
        ]
        platform.submit_assignment(Assignment(0, batch, pairs))
    # With a 0.6 appeal scale and deliberately poor matches, some of the
    # first ten batches re-queue requests into later intervals.
    assert appealed
    blocked_utilities = platform.predicted_utilities(np.array(sorted(appealed)))
    blocked_any = (blocked_utilities == 0.0).any(axis=1)
    assert blocked_any.all()

    # The same city with appeals, skill growth and a real matcher runs
    # bit-identically through the full-grid utility oracles: every utility
    # matrix and every running per-broker affinity sum (pair affinities
    # land exactly in an empty accumulator, so a one-ulp drift shows).
    from repro.check.differential import install_reference_kernels
    from repro.engine import MatcherSpec
    from repro.engine.hooks import RunHook
    from repro.engine.loop import DayLoopEngine

    class Recorder(RunHook):
        def __init__(self):
            self.seen = []

        def on_run_start(self, context):
            self.platform = context.platform

        def on_batch_assigned(self, event):
            self.seen.append(event.utilities.tobytes())
            self.seen.append(self.platform._today_affinity.tobytes())

    dynamic = SyntheticConfig(
        num_brokers=20, num_requests=300, num_days=3, imbalance=0.1, seed=4,
        appeal_rate=0.6, skill_growth=0.05,
    )

    def run():
        city, recorder = generate_city(dynamic), Recorder()
        DayLoopEngine().run(city, MatcherSpec("LACB", seed=7).build(city), [recorder])
        return city, recorder.seen

    shipped_city, shipped = run()
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        oracle_city, oracle = run()
    assert shipped_city._blocked_pairs and shipped_city._blocked_pairs == oracle_city._blocked_pairs
    assert len(shipped) == len(oracle) > 0
    assert shipped == oracle
    assert (
        shipped_city.population.base_quality.tobytes()
        == oracle_city.population.base_quality.tobytes()
    )


def test_signup_rate_curve_probe(tiny_platform):
    platform = tiny_platform
    grid = np.arange(1, 60)
    curve = platform.signup_rate_curve(0, grid)
    assert curve.shape == grid.shape
    assert curve.max() <= platform.population.base_quality[0] + 1e-12
    peak = grid[int(np.argmax(curve))]
    assert abs(peak - platform.population.latent_capacity[0]) <= 2.0


def test_invalid_appeal_rate(tiny_platform):
    with pytest.raises(ValueError):
        RealEstatePlatform(tiny_platform.population, tiny_platform.stream, appeal_rate=1.5)
