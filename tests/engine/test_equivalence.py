"""Golden equivalence: the engine reproduces the pre-refactor runner bit-for-bit."""

import time

import numpy as np
import pytest

from repro.algorithms import make_matcher
from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.experiments import run_algorithm
from repro.simulation import SyntheticConfig, generate_city

#: Fixed-seed city shared by every equivalence check in this module.
GOLDEN_CONFIG = SyntheticConfig(
    num_brokers=30, num_requests=300, num_days=2, imbalance=0.05, seed=42
)


def _legacy_run_algorithm(platform, matcher, store_outcomes=False, store_assignments=False):
    """Verbatim copy of the seed repo's monolithic ``run_algorithm`` loop.

    Kept as the golden reference: the engine-driven shim must reproduce its
    accounting exactly (decision times excepted — wall clocks differ run
    to run — where only shapes are compared).
    """
    platform.reset()
    num_days = platform.num_days
    num_brokers = platform.num_brokers
    daily_utility = np.zeros(num_days)
    daily_time = np.zeros(num_days)
    broker_utility = np.zeros(num_brokers)
    workload_sum = np.zeros(num_brokers)
    workload_peak = np.zeros(num_brokers)
    signup_sum = np.zeros(num_brokers)
    signup_days = np.zeros(num_brokers)
    predicted_total = 0.0
    num_assigned = 0
    outcomes = []
    assignments = []

    for day in range(num_days):
        contexts = platform.start_day(day)
        tick = time.perf_counter()
        matcher.begin_day(day, contexts)
        daily_time[day] += time.perf_counter() - tick
        for batch in range(platform.batches_per_day):
            request_ids = platform.batch_requests(day, batch)
            if request_ids.size == 0:
                continue
            utilities = platform.predicted_utilities(request_ids)
            tick = time.perf_counter()
            assignment = matcher.assign_batch(day, batch, request_ids, utilities)
            daily_time[day] += time.perf_counter() - tick
            platform.submit_assignment(assignment)
            predicted_total += assignment.predicted_utility
            num_assigned += len(assignment)
            if store_assignments:
                assignments.append(assignment)
        outcome = platform.finish_day()
        tick = time.perf_counter()
        matcher.end_day(day, outcome, contexts)
        daily_time[day] += time.perf_counter() - tick

        daily_utility[day] = outcome.total_realized_utility
        broker_utility += outcome.realized_utility
        workload_sum += outcome.workloads
        workload_peak = np.maximum(workload_peak, outcome.workloads)
        served = outcome.workloads > 0
        signup_sum[served] += outcome.signup_rates[served]
        signup_days += served
        if store_outcomes:
            outcomes.append(outcome)

    with np.errstate(invalid="ignore"):
        broker_signup = np.where(signup_days > 0, signup_sum / np.maximum(signup_days, 1), 0.0)

    return dict(
        algorithm=matcher.name,
        total_realized_utility=float(daily_utility.sum()),
        total_predicted_utility=float(predicted_total),
        daily_utility=daily_utility,
        broker_utility=broker_utility,
        broker_workload=workload_sum / num_days,
        broker_peak_workload=workload_peak,
        broker_signup=broker_signup,
        daily_time_shape=daily_time.shape,
        num_assigned=num_assigned,
        outcomes=outcomes,
        assignments=assignments,
    )


def assert_results_identical(engine_result, legacy) -> None:
    """Field-by-field bit-identity (decision times compared by shape only)."""
    assert engine_result.algorithm == legacy["algorithm"]
    assert engine_result.total_realized_utility == legacy["total_realized_utility"]
    assert engine_result.total_predicted_utility == legacy["total_predicted_utility"]
    np.testing.assert_array_equal(engine_result.daily_utility, legacy["daily_utility"])
    np.testing.assert_array_equal(engine_result.broker_utility, legacy["broker_utility"])
    np.testing.assert_array_equal(engine_result.broker_workload, legacy["broker_workload"])
    np.testing.assert_array_equal(
        engine_result.broker_peak_workload, legacy["broker_peak_workload"]
    )
    np.testing.assert_array_equal(engine_result.broker_signup, legacy["broker_signup"])
    assert engine_result.daily_decision_time.shape == legacy["daily_time_shape"]
    assert engine_result.decision_time == pytest.approx(
        float(engine_result.daily_decision_time.sum())
    )
    assert engine_result.num_assigned == legacy["num_assigned"]


@pytest.mark.parametrize("name", ["KM", "LACB", "LACB-Opt"])
def test_engine_matches_legacy_runner(name):
    platform = generate_city(GOLDEN_CONFIG)
    legacy = _legacy_run_algorithm(platform, make_matcher(name, platform, seed=7))
    engine_result = run_algorithm(platform, make_matcher(name, platform, seed=7))
    assert_results_identical(engine_result, legacy)


def test_engine_matches_legacy_stored_logs():
    platform = generate_city(GOLDEN_CONFIG)
    legacy = _legacy_run_algorithm(
        platform,
        make_matcher("Top-3", platform, seed=7),
        store_outcomes=True,
        store_assignments=True,
    )
    engine_result = run_algorithm(
        platform,
        make_matcher("Top-3", platform, seed=7),
        store_outcomes=True,
        store_assignments=True,
    )
    assert_results_identical(engine_result, legacy)
    assert len(engine_result.outcomes) == len(legacy["outcomes"])
    assert len(engine_result.assignments) == len(legacy["assignments"])
    for ours, theirs in zip(engine_result.assignments, legacy["assignments"]):
        assert ours.pairs == theirs.pairs


def test_run_many_parallel_matches_serial():
    platform_spec = PlatformSpec.synthetic(GOLDEN_CONFIG)
    specs = [
        RunSpec(platform=platform_spec, matcher=MatcherSpec(name, seed=7))
        for name in ("Top-3", "KM", "LACB")
    ]
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    assert [run.algorithm for run in parallel] == [run.algorithm for run in serial]
    for a, b in zip(serial, parallel):
        assert a.total_realized_utility == b.total_realized_utility
        assert a.total_predicted_utility == b.total_predicted_utility
        assert a.num_assigned == b.num_assigned
        np.testing.assert_array_equal(a.daily_utility, b.daily_utility)
        np.testing.assert_array_equal(a.broker_utility, b.broker_utility)
        np.testing.assert_array_equal(a.broker_workload, b.broker_workload)
        np.testing.assert_array_equal(a.broker_signup, b.broker_signup)


# ----------------------------------------------------------------------
# Shipped kernels vs the repro.check reference oracles: bit-identical runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt"])
def test_fast_and_reference_kernels_bit_identical(algorithm, monkeypatch):
    """The vectorized hot paths (batched NN-UCB scoring, argpartition CBS)
    must reproduce the reference oracles bit-for-bit: CBS returns exactly
    the same candidate sets without touching the engine's RNG, and arm
    decisions plus the covariance update are unchanged.  Every utility
    matrix the platform reveals is compared bytewise too: a one-ulp drift
    in the utility kernel vanishes in the run totals below."""
    from repro.check.differential import install_reference_kernels
    from repro.engine.executor import execute_spec
    from repro.simulation.platform import RealEstatePlatform

    revealed = RealEstatePlatform.predicted_utilities

    def run():
        matrices = []

        def recording(platform, request_indices):
            utilities = revealed(platform, request_indices)
            matrices.append(utilities.tobytes())
            return utilities

        spec = RunSpec(
            platform=PlatformSpec.synthetic(GOLDEN_CONFIG),
            matcher=MatcherSpec(algorithm, seed=7),
        )
        with monkeypatch.context() as patch:
            patch.setattr(RealEstatePlatform, "predicted_utilities", recording)
            return execute_spec(spec), matrices

    fast, fast_matrices = run()
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        reference, reference_matrices = run()
    assert len(fast_matrices) == len(reference_matrices) > 0
    for batch, (ours, oracle) in enumerate(zip(fast_matrices, reference_matrices)):
        assert ours == oracle, f"utility matrix {batch} differs from the oracle's"
    assert fast.total_realized_utility == reference.total_realized_utility
    assert fast.total_predicted_utility == reference.total_predicted_utility
    assert fast.num_assigned == reference.num_assigned
    np.testing.assert_array_equal(fast.daily_utility, reference.daily_utility)
    np.testing.assert_array_equal(fast.broker_utility, reference.broker_utility)
    np.testing.assert_array_equal(fast.broker_workload, reference.broker_workload)
    np.testing.assert_array_equal(
        fast.broker_peak_workload, reference.broker_peak_workload
    )


def test_serving_micro_batches_bit_identical_with_reference_kernels(monkeypatch):
    """Bursty micro-batches of at most 8 requests: the regime where every
    KM solve is small enough for the list path.  With the oracles
    installed every solve runs on arrays instead; the decisions, the
    realized utilities and the micro-batching must not move."""
    import importlib

    from repro.check.differential import install_reference_kernels
    from repro.engine.executor import execute_spec
    from repro.serving import ServingSpec

    km = importlib.import_module("repro.matching.hungarian")
    list_solves = []
    solve_on_lists = km._hungarian_lists

    def counting(cost):
        list_solves.append(cost.shape)
        return solve_on_lists(cost)

    monkeypatch.setattr(km, "_hungarian_lists", counting)
    spec = RunSpec(
        platform=PlatformSpec.synthetic(GOLDEN_CONFIG),
        matcher=MatcherSpec("LACB-Opt", seed=7),
        serving=ServingSpec(profile="bursty", arrival_seed=3, max_wait=5.0, max_size=8),
        store_assignments=True,
    )
    fast = execute_spec(spec)
    fast_list_solves = len(list_solves)
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        reference = execute_spec(spec)
    assert fast_list_solves > 0
    assert len(list_solves) == fast_list_solves  # the oracles ran no list solve
    assert fast.assignments == reference.assignments
    assert fast.total_realized_utility == reference.total_realized_utility
    np.testing.assert_array_equal(fast.broker_utility, reference.broker_utility)
    np.testing.assert_array_equal(fast.broker_workload, reference.broker_workload)
    np.testing.assert_array_equal(fast.serving.batch_sizes, reference.serving.batch_sizes)
    assert fast.serving.batch_sizes.max() <= 8


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt"])
def test_fast_and_reference_kernels_leave_identical_bandit_state(algorithm, monkeypatch):
    """Past structured exploration (seven days, so personalized UCB scoring
    runs), the day-batched estimate leaves the bandit bitwise where the
    per-arm reference oracles leave it: covariance, arm pulls, personal
    pull counts and the shared RNG."""
    from repro.bandits import NNUCBBandit
    from repro.check.differential import install_reference_kernels
    from repro.engine.loop import DayLoopEngine

    scored = []
    combine = NNUCBBandit.combine_scores

    def counting(self, means, bonuses):
        scored.append(1)
        return combine(self, means, bonuses)

    monkeypatch.setattr(NNUCBBandit, "combine_scores", counting)
    config = SyntheticConfig(
        num_brokers=25, num_requests=200, num_days=7, imbalance=0.05, seed=42
    )

    def run():
        platform = generate_city(config)
        matcher = MatcherSpec(algorithm, seed=7).build(platform)
        DayLoopEngine().run(platform, matcher)
        return matcher.estimator

    fast_estimator = run()
    fast_scored = len(scored)
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        reference_estimator = run()
    assert len(scored) - fast_scored == fast_scored > 0
    fast_base, reference_base = fast_estimator.base, reference_estimator.base
    assert fast_base._d_diag.tobytes() == reference_base._d_diag.tobytes()
    np.testing.assert_array_equal(fast_base._arm_pulls, reference_base._arm_pulls)
    assert fast_estimator._pull_count == reference_estimator._pull_count
    assert fast_base._rng.bit_generator.state == reference_base._rng.bit_generator.state
