"""Serving mode — adaptive micro-batching vs fixed windows, and saturation.

Two claims this bench tracks:

* **Adaptive beats fixed on tail latency at equal utility.**  On the
  bursty arrival profile, the max-wait/max-size policy closes batches
  long before the window boundary, so the p99 *queueing* wait drops by
  an order of magnitude while total realized utility stays within a
  small tolerance of the fixed-window run (micro-batches see less
  cross-request context, so a small utility give-back is expected and
  bounded).  Queue waits are **virtual-time** quantities — a pure
  function of the arrival schedule and the policy — so both gated
  metrics (``adaptive.p99_ratio``, ``adaptive.utility_ratio``) are
  deterministic and machine-independent, and the floors can be tight.
* **Saturation curve.**  Shrinking the virtual window raises the offered
  load (same measured solver seconds, less virtual time between
  arrivals); the recorded latency-vs-load curve shows end-to-end p99
  exploding as utilization approaches 1 — the real queueing behavior
  the :class:`~repro.serving.microbatch.LoadLevelingQueue` models.
  Latencies carry measured service time, so the curve is recorded for
  transparency, never gated.

Serving-vs-batch equivalence is asserted *before* any timing: the
boundary-flush serving twin of a batch run spec must be bit-identical to
it (results and final matcher/platform state) for every suite algorithm
(the neural VFGA-style matcher, LACB and LACB-Opt).  Every run here is a
serving :class:`~repro.engine.spec.RunSpec`, the path ``repro-lacb
serve`` takes.

Emits ``BENCH_serving.json`` (tracked by ``repro-lacb baseline``).

Run modes::

    PYTHONPATH=src python -m pytest benchmarks/test_serving.py --benchmark-only
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_serving.py --benchmark-only
"""

import dataclasses
import os

import numpy as np

from benchmarks.common import SMOKE, write_artifact
from repro.check.resume import _compare_results, _compare_states
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.serving import ServingSpec
from repro.simulation import SyntheticConfig
from repro.state import CheckpointStore

# CI smoke mode: small instances, floors relaxed.

#: Algorithms proven equivalent before any timing happens.
EQUIVALENCE_ALGORITHMS = ("AN",) if SMOKE else ("AN", "LACB", "LACB-Opt")

#: The bursty-profile comparison instance.
CITY = SyntheticConfig(
    num_brokers=20 if SMOKE else 40,
    num_requests=400 if SMOKE else 2000,
    num_days=2 if SMOKE else 3,
    imbalance=0.05,
    seed=13,
)
ALGORITHM = "LACB"
WINDOW_SECONDS = 60.0
ADAPTIVE = ServingSpec(window_seconds=WINDOW_SECONDS, profile="bursty", max_wait=5.0, max_size=32)
#: The fixed-window twin: max_wait defaults to the window length.
FIXED = ServingSpec(window_seconds=WINDOW_SECONDS, profile="bursty")

#: The small city the equivalence proof runs on: twelve requests per
#: window, so row order inside a window matters.
EQUIVALENCE_CITY = SyntheticConfig(
    num_brokers=12, num_requests=90, num_days=3, imbalance=1.0, seed=1
)

#: Deterministic floors: fixed-window p99 queue wait sits near the window
#: length while the adaptive policy's is bounded by max_wait, so the true
#: ratio is ~window/max_wait = 12x; utility gives back well under 1%.
P99_RATIO_FLOOR = 2.0 if SMOKE else 4.0
UTILITY_RATIO_FLOOR = 0.95 if SMOKE else 0.97

#: Saturation sweep: window lengths from relaxed to overloaded.  Offered
#: load = requests per virtual second; service seconds are measured, so
#: utilization climbs as the window shrinks, and the smallest windows sit
#: below the per-batch solve time — the regime where the load-leveling
#: queue backlogs and end-to-end p99 explodes.
SWEEP_WINDOWS = (
    (60.0, 0.5, 0.005, 0.0002) if SMOKE else (60.0, 1.0, 0.01, 0.0005, 0.0001)
)

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serving.json")


def _serve(serving, platform):
    spec = RunSpec(
        platform=PlatformSpec.synthetic(CITY),
        matcher=MatcherSpec(ALGORITHM, seed=7),
        serving=serving,
    )
    result = spec.run(platform)
    return result, result.serving


def _equivalence_violations(algorithm, root):
    """Batch spec vs its boundary-flush serving twin: results and the final
    matcher/platform checkpoints must match bitwise."""
    batch = RunSpec(
        platform=PlatformSpec.synthetic(EQUIVALENCE_CITY),
        matcher=MatcherSpec(algorithm, seed=7),
        store_outcomes=True,
        store_assignments=True,
        checkpoint_dir=root,
    )
    twin = dataclasses.replace(batch, serving=ServingSpec())
    results, states = [], []
    for spec in (batch, twin):
        results.append(spec.run())
        state = CheckpointStore(spec.run_directory(root)).load()
        states.append((state["matcher"], state["platform"]))
    report = results[1].serving
    sides = dict(prefix="serving", labels=("batch", "serving"))
    served = dataclasses.replace(results[1], serving=None)
    violations = _compare_results(results[0], served, algorithm, **sides)
    violations += _compare_states(states[0], states[1], algorithm, **sides)
    assert report.flush_reasons["boundary"] == report.micro_batches
    return violations


def test_serving_saturation(benchmark, tmp_path):
    # ------------------------------------------------------------------
    # Correctness before timing: boundary-flush serving is bit-identical
    # to the batch day loop for every suite algorithm.
    # ------------------------------------------------------------------
    for algorithm in EQUIVALENCE_ALGORITHMS:
        violations = _equivalence_violations(algorithm, str(tmp_path))
        assert violations == [], f"{algorithm}: {[str(v) for v in violations]}"

    # ------------------------------------------------------------------
    # Adaptive vs fixed windows on the bursty profile (gated ratios).
    # ------------------------------------------------------------------
    platform = PlatformSpec.synthetic(CITY).build()
    fixed_result, fixed = _serve(FIXED, platform)
    adaptive_result, adaptive = _serve(ADAPTIVE, platform)

    fixed_p99 = fixed.wait_quantiles()[2]
    adaptive_p99 = adaptive.wait_quantiles()[2]
    p99_ratio = fixed_p99 / adaptive_p99
    utility_ratio = (
        adaptive_result.total_realized_utility / fixed_result.total_realized_utility
    )

    # ------------------------------------------------------------------
    # Saturation: latency vs offered load, window-length sweep (recorded).
    # ------------------------------------------------------------------
    curve = []
    for window in SWEEP_WINDOWS:
        _, report = _serve(dataclasses.replace(ADAPTIVE, window_seconds=window), platform)
        offered = report.requests / (CITY.num_days * platform.batches_per_day * window)
        utilization = (
            float(report.service_seconds.sum()) / report.makespan
            if report.makespan > 0
            else 0.0
        )
        p50, p95, p99 = report.latency_quantiles()
        curve.append(
            {
                "window_seconds": window,
                "offered_rps": offered,
                "throughput_rps": report.throughput_rps,
                "utilization": utilization,
                "latency_p50": p50,
                "latency_p95": p95,
                "latency_p99": p99,
                "micro_batches": report.micro_batches,
            }
        )

    # One recorded pass for the pytest-benchmark tables: the adaptive
    # bursty serving run, the hot loop this bench exists to watch.
    benchmark.pedantic(lambda: _serve(ADAPTIVE, platform), rounds=1, iterations=1)

    payload = {
        "bench": "serving",
        "smoke": SMOKE,
        "instance": {
            "num_brokers": CITY.num_brokers,
            "num_requests": CITY.num_requests,
            "num_days": CITY.num_days,
            "algorithm": ALGORITHM,
            "window_seconds": WINDOW_SECONDS,
            "max_wait": ADAPTIVE.max_wait,
            "max_size": ADAPTIVE.max_size,
        },
        "equivalence": {"algorithms": list(EQUIVALENCE_ALGORITHMS), "bit_identical": True},
        "adaptive": {
            "fixed_wait_p99": fixed_p99,
            "adaptive_wait_p99": adaptive_p99,
            "p99_ratio": p99_ratio,
            "p99_ratio_floor": P99_RATIO_FLOOR,
            "fixed_utility": fixed_result.total_realized_utility,
            "adaptive_utility": adaptive_result.total_realized_utility,
            "utility_ratio": utility_ratio,
            "utility_ratio_floor": UTILITY_RATIO_FLOOR,
            "fixed_micro_batches": fixed.micro_batches,
            "adaptive_micro_batches": adaptive.micro_batches,
            "flush_reasons": adaptive.flush_reasons,
        },
        "saturation": curve,
    }
    write_artifact(RESULT_PATH, payload)

    print()
    print(
        f"equivalence:     bit-identical serving vs batch "
        f"({', '.join(EQUIVALENCE_ALGORITHMS)})"
    )
    print(
        f"wait p99:        fixed {fixed_p99:.2f}s -> adaptive {adaptive_p99:.2f}s "
        f"({p99_ratio:.1f}x, floor {P99_RATIO_FLOOR:.1f}x)"
    )
    print(
        f"utility:         fixed {fixed_result.total_realized_utility:.2f} vs "
        f"adaptive {adaptive_result.total_realized_utility:.2f} "
        f"(ratio {utility_ratio:.4f}, floor {UTILITY_RATIO_FLOOR:.2f})"
    )
    for point in curve:
        print(
            f"saturation:      window {point['window_seconds']:>6.2f}s  "
            f"offered {point['offered_rps']:>8.2f} req/s  "
            f"util {point['utilization']:.2f}  "
            f"latency p99 {point['latency_p99']:.4f}s"
        )

    assert p99_ratio >= P99_RATIO_FLOOR, (
        f"adaptive micro-batching cuts p99 queue wait only {p99_ratio:.2f}x "
        f"(floor {P99_RATIO_FLOOR:.1f}x)"
    )
    assert utility_ratio >= UTILITY_RATIO_FLOOR, (
        f"adaptive utility ratio {utility_ratio:.4f} below floor "
        f"{UTILITY_RATIO_FLOOR:.2f}"
    )
    # Offered load rises monotonically along the sweep; utilization must
    # respond (the load-leveling queue is actually queueing).
    assert curve[-1]["utilization"] >= curve[0]["utilization"]
    assert np.isfinite([p["latency_p99"] for p in curve]).all()
