"""Hot-path speedups — vectorized kernels vs. the reference oracles.

The inner loops that dominate LACB wall-clock each have a production
kernel and a scalar reference kernel, kept as an oracle in
:mod:`repro.check.differential`:

* **NeuralUCB scoring** (Eq. 5) — one forward/backward pass over all grid
  arms with the gradient-free diagonal bonus vs. the original per-arm
  ``param_gradient`` loop.
* **Day estimate** (Alg. 2 lines 1-2) — ``estimate_batch`` of a trained
  personalized bandit over a whole day of brokers (blocked passes) vs.
  the per-broker ``estimate`` loop on the reference kernels.
* **CBS pruning** (Alg. 3) — one ``np.partition`` boundary pass over the
  whole utility matrix vs. the per-row quickselect union
  (``quickselect_union``), which Theorem 2 keeps as the correctness oracle.

This bench times the kernels on |B| >= 2000 (scoring, CBS) and 500-broker
(day estimate) instances, enforces the speedup floors (scoring >= 3x,
estimate >= 2x, CBS >= 2x in full mode; "not slower" in CI smoke mode),
re-checks that the CBS unions are *exactly* equal, that both estimate
paths pick identical capacities and leave a bitwise-equal covariance, and
that a seeded LACB-Opt engine run is bit-identical with the oracles
installed (``install_reference_kernels``), and
emits ``BENCH_hotpath.json`` so the speedups are tracked across PRs.  A
KM solve at city scale is timed alongside for context (recorded, not
gated): pruning only matters because the KM solve it shrinks dominates.

Run modes::

    PYTHONPATH=src python -m pytest benchmarks/test_hotpath.py --benchmark-only
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_hotpath.py --benchmark-only
"""

import copy
import json
import os
import time
from contextlib import contextmanager

import numpy as np

from repro.bandits import PersonalizedCapacityEstimator
from repro.bandits.neural_ucb import NNUCBBandit
from repro.check.differential import install_reference_kernels, quickselect_union
from repro.core.config import BanditConfig
from repro.core.selection import select_candidate_brokers
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec
from repro.matching import solve_assignment
from repro.simulation import SyntheticConfig

#: CI smoke mode: small instances, floors relaxed to "fast is not slower".
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

REPEATS = 3 if SMOKE else 5
#: NeuralUCB scoring calls per timed pass (one per broker context).
NUM_CONTEXTS = 50 if SMOKE else 2000
CONTEXT_DIM = 12
#: CBS instance: (batch of requests, |B| brokers); |B| >= 2000 in full mode.
CBS_SHAPE = (16, 250) if SMOKE else (64, 2000)
CBS_TOP_K = 3
#: KM solve timed for context only (the work CBS pruning exists to shrink).
KM_SHAPE = (16, 250) if SMOKE else (64, 2000)

#: Day-estimate instance: brokers per day, and the trained-up days before
#: the timed one (enough for every broker to finish structured personal
#: exploration and reach personalized UCB scoring).
ESTIMATE_BROKERS = 50 if SMOKE else 500
ESTIMATE_WARM_DAYS = 6

SCORING_FLOOR = 1.0 if SMOKE else 3.0
ESTIMATE_FLOOR = 1.0 if SMOKE else 2.0
CBS_FLOOR = 1.0 if SMOKE else 2.0

#: Seeded engine run replayed with and without the oracles; must be bit-identical.
COMPARE_CONFIG = SyntheticConfig(
    num_brokers=20 if SMOKE else 40,
    num_requests=150 if SMOKE else 400,
    num_days=1 if SMOKE else 3,
    imbalance=0.05,
    seed=42,
)

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")


def _best_of(repeats, fn):
    """Min-of-repeats wall clock — robust to scheduler noise."""
    times = []
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tick)
    return min(times), times


def _make_bandit() -> NNUCBBandit:
    return NNUCBBandit(CONTEXT_DIM, BanditConfig(), np.random.default_rng(3))


def _trained_personalized(rng) -> PersonalizedCapacityEstimator:
    """A personalized LACB estimator after ``ESTIMATE_WARM_DAYS`` fed-back days."""
    estimator = PersonalizedCapacityEstimator(_make_bandit())
    for _ in range(ESTIMATE_WARM_DAYS):
        contexts = rng.normal(0.0, 1.0, size=(ESTIMATE_BROKERS, CONTEXT_DIM))
        capacities = estimator.estimate_batch(contexts)
        for broker_id, (context, capacity) in enumerate(zip(contexts, capacities)):
            estimator.update(
                context,
                float(rng.integers(1, int(capacity) + 1)),
                float(rng.uniform()),
                broker_id,
                capacity=float(capacity),
            )
    return estimator


@contextmanager
def _oracles(monkeypatch):
    """Run the body on the reference oracles (undone on exit)."""
    with monkeypatch.context() as patch:
        install_reference_kernels(patch)
        yield


def _timed_estimates(repeats, estimator, estimate):
    """Min-of-repeats of one day's estimates, each on a fresh deep copy."""
    times = []
    for _ in range(repeats):
        twin = copy.deepcopy(estimator)
        tick = time.perf_counter()
        estimate(twin)
        times.append(time.perf_counter() - tick)
    return min(times), times


def test_hotpath_speedups(benchmark, monkeypatch):
    rng = np.random.default_rng(11)

    # ------------------------------------------------------------------
    # NeuralUCB scoring: batched gradients vs. the per-arm loop.
    # ------------------------------------------------------------------
    bandit = _make_bandit()
    contexts = rng.normal(0.0, 1.0, size=(NUM_CONTEXTS, CONTEXT_DIM))

    def score_all():
        for context in contexts:
            bandit.ucb_scores(context)

    with _oracles(monkeypatch):
        scoring_ref_best, scoring_ref_times = _best_of(REPEATS, score_all)
    scoring_fast_best, scoring_fast_times = _best_of(REPEATS, score_all)
    scoring_speedup = scoring_ref_best / scoring_fast_best

    # The two kernels must still score identically (to ulp scale) on the
    # bench instance itself, not just in the differential suites.
    for context in contexts[:10]:
        with _oracles(monkeypatch):
            reference_scores = bandit.ucb_scores(context)
        fast_scores = bandit.ucb_scores(context)
        np.testing.assert_allclose(fast_scores, reference_scores, rtol=1e-9, atol=1e-12)
        assert int(np.argmax(fast_scores)) == int(np.argmax(reference_scores))

    # ------------------------------------------------------------------
    # Day estimate: blocked estimate_batch vs. the per-broker reference loop.
    # ------------------------------------------------------------------
    estimator = _trained_personalized(np.random.default_rng(13))
    day_contexts = rng.normal(0.0, 1.0, size=(ESTIMATE_BROKERS, CONTEXT_DIM))

    def batched(twin):
        return twin.estimate_batch(day_contexts)

    def per_broker(twin):
        return np.array(
            [twin.estimate(context, broker_id) for broker_id, context in enumerate(day_contexts)]
        )

    # Same decisions and the same covariance, bit for bit, before timing.
    batched_twin, loop_twin = copy.deepcopy(estimator), copy.deepcopy(estimator)
    batched_capacities = batched(batched_twin)
    with _oracles(monkeypatch):
        loop_capacities = per_broker(loop_twin)
    np.testing.assert_array_equal(batched_capacities, loop_capacities)
    assert batched_twin.base._d_diag.tobytes() == loop_twin.base._d_diag.tobytes()
    np.testing.assert_array_equal(batched_twin.base._arm_pulls, loop_twin.base._arm_pulls)

    with _oracles(monkeypatch):
        estimate_ref_best, estimate_ref_times = _timed_estimates(
            REPEATS, estimator, per_broker
        )
    estimate_fast_best, estimate_fast_times = _timed_estimates(REPEATS, estimator, batched)
    # Context only: the same kernel one context at a time.
    estimate_one_best, _ = _timed_estimates(REPEATS, estimator, per_broker)
    estimate_speedup = estimate_ref_best / estimate_fast_best

    # ------------------------------------------------------------------
    # CBS pruning: one argpartition boundary pass vs. per-row quickselect.
    # ------------------------------------------------------------------
    utilities = rng.uniform(0.0, 10.0, size=CBS_SHAPE)
    # Quantize a band of entries so boundary ties — the regime where a
    # wrong tie-break kernel would diverge — actually occur at scale.
    tie_mask = rng.random(CBS_SHAPE) < 0.25
    utilities[tie_mask] = np.round(utilities[tie_mask])

    cbs_rng = np.random.default_rng(0)
    cbs_ref_best, cbs_ref_times = _best_of(
        REPEATS, lambda: quickselect_union(utilities, CBS_TOP_K)
    )
    cbs_fast_best, cbs_fast_times = _best_of(
        REPEATS, lambda: select_candidate_brokers(utilities, CBS_TOP_K, cbs_rng)
    )
    cbs_speedup = cbs_ref_best / cbs_fast_best

    reference_union = quickselect_union(utilities, CBS_TOP_K)
    fast_union = select_candidate_brokers(utilities, CBS_TOP_K, cbs_rng)
    np.testing.assert_array_equal(fast_union, reference_union)

    # ------------------------------------------------------------------
    # KM solve at the same scale, for context (recorded, not gated).
    # ------------------------------------------------------------------
    km_weights = rng.uniform(0.0, 10.0, size=KM_SHAPE)
    km_best, km_times = _best_of(
        max(1, REPEATS - 2), lambda: solve_assignment(km_weights)
    )

    # ------------------------------------------------------------------
    # Seeded compare run: bit-identical with the oracles installed.
    # ------------------------------------------------------------------
    def compare_run():
        spec = RunSpec(
            platform=PlatformSpec.synthetic(COMPARE_CONFIG),
            matcher=MatcherSpec("LACB-Opt", seed=7),
        )
        return execute_spec(spec)

    fast_run = compare_run()
    with _oracles(monkeypatch):
        reference_run = compare_run()
    assert fast_run.total_realized_utility == reference_run.total_realized_utility
    assert fast_run.total_predicted_utility == reference_run.total_predicted_utility
    assert fast_run.num_assigned == reference_run.num_assigned
    np.testing.assert_array_equal(fast_run.daily_utility, reference_run.daily_utility)
    np.testing.assert_array_equal(fast_run.broker_utility, reference_run.broker_utility)

    # One recorded pass for the pytest-benchmark tables: the fast scoring
    # kernel, the quantity whose regression this bench exists to catch.
    benchmark.pedantic(score_all, rounds=1, iterations=1)

    payload = {
        "bench": "hotpath",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "scoring": {
            "num_contexts": NUM_CONTEXTS,
            "context_dim": CONTEXT_DIM,
            "num_arms": int(bandit.capacities.size),
            "reference_seconds": scoring_ref_times,
            "fast_seconds": scoring_fast_times,
            "reference_best": scoring_ref_best,
            "fast_best": scoring_fast_best,
            "speedup": scoring_speedup,
            "floor": SCORING_FLOOR,
        },
        "estimate": {
            "num_brokers": ESTIMATE_BROKERS,
            "warm_days": ESTIMATE_WARM_DAYS,
            "num_arms": int(estimator.capacities.size),
            "reference_seconds": estimate_ref_times,
            "fast_seconds": estimate_fast_times,
            "reference_best": estimate_ref_best,
            "fast_best": estimate_fast_best,
            "one_context_best": estimate_one_best,
            "speedup": estimate_speedup,
            "floor": ESTIMATE_FLOOR,
            "capacities_identical": True,
            "covariance_bit_identical": True,
        },
        "cbs": {
            "shape": list(CBS_SHAPE),
            "top_k": CBS_TOP_K,
            "reference_seconds": cbs_ref_times,
            "fast_seconds": cbs_fast_times,
            "reference_best": cbs_ref_best,
            "fast_best": cbs_fast_best,
            "speedup": cbs_speedup,
            "floor": CBS_FLOOR,
            "union_size": int(fast_union.size),
            "union_identical": True,
        },
        "km_solve": {
            "shape": list(KM_SHAPE),
            "seconds": km_times,
            "best": km_best,
        },
        "compare_run": {
            "num_brokers": COMPARE_CONFIG.num_brokers,
            "num_requests": COMPARE_CONFIG.num_requests,
            "num_days": COMPARE_CONFIG.num_days,
            "algorithm": "LACB-Opt",
            "bit_identical": True,
            "total_realized_utility": fast_run.total_realized_utility,
        },
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print()
    print(
        f"NeuralUCB scoring: {scoring_ref_best:.3f}s -> {scoring_fast_best:.3f}s "
        f"({scoring_speedup:.1f}x, floor {SCORING_FLOOR:.0f}x, "
        f"{NUM_CONTEXTS} contexts x {bandit.capacities.size} arms)"
    )
    print(
        f"Day estimate:      {estimate_ref_best:.3f}s -> {estimate_fast_best:.3f}s "
        f"({estimate_speedup:.1f}x, floor {ESTIMATE_FLOOR:.0f}x, "
        f"{ESTIMATE_BROKERS} brokers; one context at a time "
        f"{estimate_one_best:.3f}s)"
    )
    print(
        f"CBS pruning:       {cbs_ref_best * 1e3:.2f}ms -> {cbs_fast_best * 1e3:.2f}ms "
        f"({cbs_speedup:.1f}x, floor {CBS_FLOOR:.0f}x, shape {CBS_SHAPE})"
    )
    print(f"KM solve:          {km_best:.3f}s (shape {KM_SHAPE}, context only)")
    print("compare run:       bit-identical fast vs reference (LACB-Opt, seeded)")

    assert scoring_speedup >= SCORING_FLOOR, (
        f"batched NeuralUCB scoring is only {scoring_speedup:.2f}x the per-arm "
        f"loop (floor {SCORING_FLOOR:.1f}x)"
    )
    assert estimate_speedup >= ESTIMATE_FLOOR, (
        f"day-batched estimate_batch is only {estimate_speedup:.2f}x the "
        f"per-broker reference loop (floor {ESTIMATE_FLOOR:.1f}x)"
    )
    assert cbs_speedup >= CBS_FLOOR, (
        f"argpartition CBS pruning is only {cbs_speedup:.2f}x quickselect "
        f"(floor {CBS_FLOOR:.1f}x)"
    )
