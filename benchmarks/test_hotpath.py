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
* **Scored day estimate** — the production ``estimate_batch`` alone on
  the long-horizon-width net (70 context features, (64, 16) hidden
  layers), after enough fed-back days that every broker is past structured
  exploration with at least ``min_triples`` own trials: µs per scored
  broker of the day loop (bonus, pick, one-row commit).  Recorded, not
  gated, and no oracle ratio: ``estimate.speedup`` divides by the oracle
  side, so it moves when the oracles do.
* **CBS pruning** (Alg. 3) — one ``np.partition`` boundary pass over the
  whole utility matrix vs. the per-row quickselect union
  (``quickselect_union``), which Theorem 2 keeps as the correctness oracle.
* **Covariance commit** (Alg. 1 line 12) — ``D <- D + g*g`` for a day's
  chosen arms on the long-horizon-width net (70 context features, the
  default 11-arm grid and (64, 16) hidden layers): queued and applied per
  ``COMMIT_BLOCK`` rows vs one row at a time on the same kernel vs the
  per-row ``param_gradient`` oracle.  Recorded, not gated; all three must
  leave a bitwise-equal ``D``.
* **Training step** (Alg. 1 line 17, Eq. 6) — ``MLP.train_step`` on the
  long-horizon-width net ((82, 64, 16, 1), ``lam`` = 0.001, 64-row
  minibatches) with Adam, L2 and zero-grad in one pass over the flat
  parameter vector vs the per-layer step ``reference_train_step``.
  Recorded, not gated; both must leave a bitwise-equal ``theta`` and
  bitwise-equal Adam moments.
* **Small KM solves** — the list-based row insertion that ``hungarian``
  runs up to ``SMALL_KM_COLS`` columns vs. the NumPy array path, on the
  micro-batch shapes LACB-Opt serving solves (1x1, 2x4 and 3x9 utility
  matrices after CBS, plus one private zero column per row).  Recorded,
  not gated; the two paths must return the same matching.
* **Wide KM solves** — the array path's row insertion (``_km_insert_row``,
  with its step-one exit) vs. the reference row loop
  (``reference_hungarian`` over ``reference_km_insert_row``) on the two
  wide shapes the end-to-end benchmark solves: a day-dense batch after CBS
  (30x160 utilities, cost 30x190) and an uncut long-horizon batch (10x500,
  cost 10x510), each on uniform and on tied, contested utilities.
  Recorded, not gated; matchings and potentials must be bitwise equal.

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
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from benchmarks.common import SMOKE, write_artifact
from repro.bandits import PersonalizedCapacityEstimator
from repro.bandits.neural_ucb import COMMIT_BLOCK, NNUCBBandit
from repro.check.differential import (
    assert_km_insertions_match,
    install_reference_kernels,
    quickselect_union,
    reference_commit,
    reference_hungarian,
    reference_train_step,
)
from repro.check.property import contested_utilities
from repro.core.config import BanditConfig
from repro.core.selection import select_candidate_brokers
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec
from repro.matching import solve_assignment
from repro.matching.hungarian import _hungarian_arrays, _hungarian_lists, _padded_cost
from repro.obs.audit import AuditConfig, DecisionAudit
from repro.obs.telemetry import Telemetry
from repro.obs.telemetry import use as use_telemetry
from repro.simulation import SyntheticConfig

# CI smoke mode: small instances, floors relaxed to "fast is not slower".

REPEATS = 3 if SMOKE else 5
#: NeuralUCB scoring calls per timed pass (one per broker context).
NUM_CONTEXTS = 50 if SMOKE else 2000
CONTEXT_DIM = 12
#: CBS instance: (batch of requests, |B| brokers); |B| >= 2000 in full mode.
CBS_SHAPE = (16, 250) if SMOKE else (64, 2000)
CBS_TOP_K = 3
#: KM solve timed for context only (the work CBS pruning exists to shrink).
KM_SHAPE = (16, 250) if SMOKE else (64, 2000)
#: Micro-batch utility shapes (requests x CBS candidates) of serving solves.
KM_SMALL_SHAPES = ((1, 1), (2, 4), (3, 9))
#: Solves per timed pass of one small shape (they take microseconds each).
KM_SMALL_SOLVES = 200 if SMOKE else 2000
#: Wide utility shapes (requests x real columns) of the end-to-end
#: benchmark's solves: day-dense after CBS, long-horizon uncut.
KM_WIDE_SHAPES = ((30, 160), (10, 500))
#: Instances per timed pass of one wide shape and utility regime.
KM_WIDE_SOLVES = 4 if SMOKE else 40

#: Day-estimate instance: brokers per day, and the trained-up days before
#: the timed one (enough for every broker to finish structured personal
#: exploration and reach personalized UCB scoring).
ESTIMATE_BROKERS = 50 if SMOKE else 500
ESTIMATE_WARM_DAYS = 6

#: Covariance-commit instance: chosen-arm rows per timed pass, on the
#: context width of the e2ebench long-horizon city.
COMMIT_ROWS = 256 if SMOKE else 4096
COMMIT_CONTEXT_DIM = 70

#: Training-step instance: steps per timed pass on the commit bench's net,
#: each on one ``BanditConfig.minibatch``-row minibatch.
TRAIN_STEPS = 100 if SMOKE else 1000

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


def _make_bandit(context_dim: int = CONTEXT_DIM) -> NNUCBBandit:
    return NNUCBBandit(context_dim, BanditConfig(), np.random.default_rng(3))


def _trained_personalized(rng, context_dim: int = CONTEXT_DIM) -> PersonalizedCapacityEstimator:
    """A personalized LACB estimator after ``ESTIMATE_WARM_DAYS`` fed-back days."""
    estimator = PersonalizedCapacityEstimator(_make_bandit(context_dim))
    for _ in range(ESTIMATE_WARM_DAYS):
        contexts = rng.normal(0.0, 1.0, size=(ESTIMATE_BROKERS, context_dim))
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


def _capacity_rules(estimator, contexts) -> list[str]:
    """The rule behind each broker's capacity on a day of ``contexts``,
    read from a decision audit of a deep copy (the estimator is untouched)."""
    telemetry = Telemetry()
    telemetry.audit_session = DecisionAudit(AuditConfig(), 1, "hotpath")
    with use_telemetry(telemetry):
        copy.deepcopy(estimator).estimate_batch(contexts)
    return [note[2] for note in telemetry.audit_session._capacity_notes]


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
    # Scored day estimate: the production loop alone (recorded, not gated).
    # ------------------------------------------------------------------
    scored_rng = np.random.default_rng(17)
    scored_estimator = _trained_personalized(scored_rng, COMMIT_CONTEXT_DIM)
    scored_contexts = scored_rng.normal(0.0, 1.0, size=(ESTIMATE_BROKERS, COMMIT_CONTEXT_DIM))
    scored_rules = _capacity_rules(scored_estimator, scored_contexts)
    scored_brokers = sum(rule in ("ucb", "personal-ucb") for rule in scored_rules)
    scored_best, scored_times = _timed_estimates(
        REPEATS, scored_estimator, lambda twin: twin.estimate_batch(scored_contexts)
    )

    # ------------------------------------------------------------------
    # CBS pruning: one argpartition boundary pass vs. per-row quickselect.
    # ------------------------------------------------------------------
    utilities = rng.uniform(0.0, 10.0, size=CBS_SHAPE)
    # Quantize a band of entries so boundary ties — the regime where a
    # wrong tie-break kernel would diverge — actually occur at scale.
    tie_mask = rng.random(CBS_SHAPE) < 0.25
    utilities[tie_mask] = np.round(utilities[tie_mask])

    cbs_ref_best, cbs_ref_times = _best_of(
        REPEATS, lambda: quickselect_union(utilities, CBS_TOP_K)
    )
    cbs_fast_best, cbs_fast_times = _best_of(
        REPEATS, lambda: select_candidate_brokers(utilities, CBS_TOP_K)
    )
    cbs_speedup = cbs_ref_best / cbs_fast_best

    reference_union = quickselect_union(utilities, CBS_TOP_K)
    fast_union = select_candidate_brokers(utilities, CBS_TOP_K)
    np.testing.assert_array_equal(fast_union, reference_union)

    # ------------------------------------------------------------------
    # KM solve at the same scale, for context (recorded, not gated).
    # ------------------------------------------------------------------
    km_weights = rng.uniform(0.0, 10.0, size=KM_SHAPE)
    km_best, km_times = _best_of(
        max(1, REPEATS - 2), lambda: solve_assignment(km_weights)
    )

    # ------------------------------------------------------------------
    # Covariance commit: queued blocks vs one row at a time (recorded).
    # ------------------------------------------------------------------
    commit_bandit = NNUCBBandit(COMMIT_CONTEXT_DIM, BanditConfig(), np.random.default_rng(5))
    commit_contexts = rng.normal(0.0, 1.0, size=(COMMIT_ROWS, COMMIT_CONTEXT_DIM))
    commit_arms = rng.integers(0, commit_bandit.capacities.size, size=COMMIT_ROWS)

    def commit_blocked(twin):
        for arm, context in zip(commit_arms, commit_contexts):
            twin._commit(int(arm), context)
        twin._flush_commits()

    def commit_per_row(twin):
        for arm, context in zip(commit_arms, commit_contexts):
            twin._commit(int(arm), context)
            twin._flush_commits()

    def commit_reference(twin):
        for arm, context in zip(commit_arms, commit_contexts):
            reference_commit(twin, int(arm), context)

    commit_d = {}
    for label, commit in (
        ("blocked", commit_blocked),
        ("per_row", commit_per_row),
        ("reference", commit_reference),
    ):
        twin = copy.deepcopy(commit_bandit)
        commit(twin)
        commit_d[label] = twin._d_diag.tobytes()
    commit_identical = commit_d["blocked"] == commit_d["per_row"] == commit_d["reference"]
    assert commit_identical, "blocked covariance commits left a different D"
    commit_blocked_best, commit_blocked_times = _timed_estimates(
        REPEATS, commit_bandit, commit_blocked
    )
    commit_row_best, commit_row_times = _timed_estimates(REPEATS, commit_bandit, commit_per_row)
    commit_ref_best, _ = _timed_estimates(
        max(1, REPEATS - 2), commit_bandit, commit_reference
    )

    # ------------------------------------------------------------------
    # Training step: flat-vector step vs the per-layer oracle (recorded).
    # ------------------------------------------------------------------
    train_bandit = NNUCBBandit(COMMIT_CONTEXT_DIM, BanditConfig(), np.random.default_rng(6))
    train_config = train_bandit.config
    train_rows = rng.normal(0.0, 1.0, size=(train_config.minibatch, train_bandit.network.input_dim))
    train_targets = rng.uniform(0.0, 1.0, size=train_config.minibatch)

    def train(step, twin):
        for _ in range(TRAIN_STEPS):
            step(twin.network, train_rows, train_targets, twin.optimizer, lam=train_config.lam)

    def production_step(network, *args, **kwargs):
        return network.train_step(*args, **kwargs)

    train_state = {}
    for label, step in (("production", production_step), ("oracle", reference_train_step)):
        twin = copy.deepcopy(train_bandit)
        train(step, twin)
        train_state[label] = (
            twin.network.theta.tobytes(),
            twin.optimizer._first.tobytes(),
            twin.optimizer._second.tobytes(),
        )
    train_identical = train_state["production"] == train_state["oracle"]
    assert train_identical, "the flat-vector training step left a different theta or moments"
    train_best, train_times = _timed_estimates(
        REPEATS, train_bandit, lambda twin: train(production_step, twin)
    )
    train_ref_best, _ = _timed_estimates(
        REPEATS, train_bandit, lambda twin: train(reference_train_step, twin)
    )

    # ------------------------------------------------------------------
    # Small KM solves: list path vs array path (recorded, not gated).
    # ------------------------------------------------------------------
    km_small = []
    for n_rows, n_cols in KM_SMALL_SHAPES:
        # The maximizing solve's cost: negated utilities, one zero column per row.
        cost = -np.hstack([rng.uniform(0.0, 1.0, size=(n_rows, n_cols)),
                           np.zeros((n_rows, n_rows))])

        def solves(path, cost=cost):
            for _ in range(KM_SMALL_SOLVES):
                path(cost)

        lists_best, _ = _best_of(REPEATS, lambda: solves(_hungarian_lists))
        arrays_best, _ = _best_of(REPEATS, lambda: solves(_hungarian_arrays))
        km_small.append({
            "shape": [n_rows, n_cols],
            "cost_shape": list(cost.shape),
            "lists_us": lists_best / KM_SMALL_SOLVES * 1e6,
            "arrays_us": arrays_best / KM_SMALL_SOLVES * 1e6,
            "speedup": arrays_best / lists_best,
            "bit_identical": bool(
                np.array_equal(_hungarian_lists(cost), _hungarian_arrays(cost))
            ),
        })

    # ------------------------------------------------------------------
    # Wide KM solves: array path vs the reference row loop (recorded).
    # ------------------------------------------------------------------
    km_wide = []
    for n_rows, n_cols in KM_WIDE_SHAPES:
        for regime in ("uniform", "tied"):
            costs = [
                _padded_cost(
                    rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
                    if regime == "uniform"
                    else contested_utilities(rng, (n_rows, n_cols)),
                    pad_square=False,
                )
                for _ in range(KM_WIDE_SOLVES)
            ]

            def solves(path, costs=costs):
                for cost in costs:
                    path(cost)

            production_best, _ = _best_of(REPEATS, lambda: solves(_hungarian_arrays))
            oracle_best, _ = _best_of(REPEATS, lambda: solves(reference_hungarian))
            for cost in costs:  # raises on the first bit that differs
                assert_km_insertions_match(cost)
            km_wide.append({
                "shape": [n_rows, n_cols],
                "cost_shape": list(costs[0].shape),
                "regime": regime,
                "production_us": production_best / KM_WIDE_SOLVES * 1e6,
                "oracle_us": oracle_best / KM_WIDE_SOLVES * 1e6,
                "speedup": oracle_best / production_best,
            })

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
        "estimate_scored": {
            "num_brokers": ESTIMATE_BROKERS,
            "warm_days": ESTIMATE_WARM_DAYS,
            "layer_sizes": list(scored_estimator.base.network.layer_sizes),
            "min_history": min(len(h) for h in scored_estimator._history.values()),
            "min_triples": scored_estimator.min_triples,
            "rules": dict(Counter(scored_rules)),
            "scored_brokers": scored_brokers,
            "seconds": scored_times,
            "best": scored_best,
            "us_per_scored_broker": scored_best / scored_brokers * 1e6,
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
        "commit": {
            "rows": COMMIT_ROWS,
            "context_dim": COMMIT_CONTEXT_DIM,
            "num_params": int(commit_bandit.network.num_params),
            "block_rows": COMMIT_BLOCK,
            "blocked_seconds": commit_blocked_times,
            "per_row_seconds": commit_row_times,
            "blocked_us_per_row": commit_blocked_best / COMMIT_ROWS * 1e6,
            "per_row_us_per_row": commit_row_best / COMMIT_ROWS * 1e6,
            "reference_us_per_row": commit_ref_best / COMMIT_ROWS * 1e6,
            "speedup": commit_row_best / commit_blocked_best,
            "d_bit_identical": commit_identical,
        },
        "train_step": {
            "layer_sizes": list(train_bandit.network.layer_sizes),
            "minibatch": train_config.minibatch,
            "lam": train_config.lam,
            "steps_per_pass": TRAIN_STEPS,
            "production_seconds": train_times,
            "production_us": train_best / TRAIN_STEPS * 1e6,
            "oracle_us": train_ref_best / TRAIN_STEPS * 1e6,
            "speedup": train_ref_best / train_best,
            "bit_identical": train_identical,
        },
        "km_solve": {
            "shape": list(KM_SHAPE),
            "seconds": km_times,
            "best": km_best,
        },
        "km_small": {
            "solves_per_pass": KM_SMALL_SOLVES,
            "shapes": km_small,
            "bit_identical": all(entry["bit_identical"] for entry in km_small),
        },
        "km_wide": {
            "solves_per_pass": KM_WIDE_SOLVES,
            "shapes": km_wide,
            "bit_identical": True,
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
    write_artifact(RESULT_PATH, payload)

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
        f"Scored estimate:   {scored_best / scored_brokers * 1e6:.1f}us per scored broker "
        f"({scored_brokers} of {ESTIMATE_BROKERS} brokers scored, net "
        f"{scored_estimator.base.network.layer_sizes}, recorded only)"
    )
    print(
        f"CBS pruning:       {cbs_ref_best * 1e3:.2f}ms -> {cbs_fast_best * 1e3:.2f}ms "
        f"({cbs_speedup:.1f}x, floor {CBS_FLOOR:.0f}x, shape {CBS_SHAPE})"
    )
    print(
        f"Covariance commit: {commit_row_best / COMMIT_ROWS * 1e6:.1f}us/row one row at a "
        f"time -> {commit_blocked_best / COMMIT_ROWS * 1e6:.1f}us/row in "
        f"{COMMIT_BLOCK}-row blocks (oracle {commit_ref_best / COMMIT_ROWS * 1e6:.1f}us/row, "
        f"D identical={commit_identical}, recorded only)"
    )
    print(
        f"Training step:     {train_ref_best / TRAIN_STEPS * 1e6:.0f}us/step oracle -> "
        f"{train_best / TRAIN_STEPS * 1e6:.0f}us/step "
        f"(net {train_bandit.network.layer_sizes}, {train_config.minibatch}-row minibatch, "
        f"bit-identical={train_identical}, recorded only)"
    )
    print(f"KM solve:          {km_best:.3f}s (shape {KM_SHAPE}, context only)")
    for entry in km_small:
        print(
            f"KM small {entry['shape'][0]}x{entry['shape'][1]}:     "
            f"{entry['arrays_us']:.1f}us arrays -> {entry['lists_us']:.1f}us lists "
            f"({entry['speedup']:.1f}x, identical={entry['bit_identical']})"
        )
    for entry in km_wide:
        print(
            f"KM wide {entry['cost_shape'][0]}x{entry['cost_shape'][1]} {entry['regime']}: "
            f"{entry['oracle_us']:.0f}us oracle -> {entry['production_us']:.0f}us "
            f"({entry['speedup']:.1f}x, bit-identical)"
        )
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
    assert all(entry["bit_identical"] for entry in km_small), km_small
