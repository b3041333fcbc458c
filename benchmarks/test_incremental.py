"""Incremental matching — the warm-started KM solver on repeated solves.

:class:`repro.matching.incremental.IncrementalKMSolver` is a library
component no matcher uses: Alg. 2 solves each batch's new requests afresh,
and on the benchmark workloads every batch matrix is new, so a warm start
never applies.  This bench keeps the solver honest on the regime it was
built for, a stream of related instances (tail-row deltas, identical
repeats, full redraws), against a cold ``solve_assignment`` per step.  The
stream speedup carries a hard floor (>= 2x full mode, "not slower" in CI
smoke); every step is separately asserted bit-identical to the cold solver
before any timing happens.  An interior-delta stream (changed rows in the
middle of the matrix, where prefix resumption helps least) is recorded
alongside, ungated, for transparency.

Emits ``BENCH_incremental.json`` (tracked by ``repro-lacb baseline``).

Run modes::

    PYTHONPATH=src python -m pytest benchmarks/test_incremental.py --benchmark-only
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_incremental.py --benchmark-only
"""

import os
import time

import numpy as np

from benchmarks.common import SMOKE, write_artifact
from repro.matching import solve_assignment
from repro.matching.incremental import IncrementalKMSolver

# CI smoke mode: small instances, floors relaxed to "fast is not slower".

REPEATS = 3 if SMOKE else 5
#: Batch instance shape: |R| requests x |B| candidate brokers.
SOLVE_SHAPE = (12, 80) if SMOKE else (32, 600)
#: Steps in the repeated-solve stream.
NUM_STEPS = 60 if SMOKE else 400
#: Rows changed per tail-delta step (the value-refinement regime).
MAX_DELTA_ROWS = 4

WARM_FLOOR = 1.0 if SMOKE else 2.0

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_incremental.json")


def _best_of(repeats, fn):
    """Min-of-repeats wall clock — robust to scheduler noise."""
    times = []
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tick)
    return min(times), times


def _solve_stream(rng, tail_deltas: bool) -> list[np.ndarray]:
    """The repeated-solve instance stream.

    ~84% of steps redraw 1-``MAX_DELTA_ROWS`` rows (trailing rows when
    ``tail_deltas`` — the batch regime prefix resumption targets —
    uniformly placed otherwise), ~8% repeat the previous instance
    unchanged (pure cache hits), ~8% redraw the whole matrix (forced cold
    fallbacks), so the stream exercises hit, warm and cold modes in
    realistic proportion.
    """
    n_rows, n_cols = SOLVE_SHAPE
    current = rng.uniform(0.0, 10.0, size=SOLVE_SHAPE)
    stream = [current]
    for _ in range(NUM_STEPS - 1):
        draw = rng.random()
        if draw < 0.08:
            current = current.copy()
        elif draw < 0.16:
            current = rng.uniform(0.0, 10.0, size=SOLVE_SHAPE)
        else:
            k = int(rng.integers(1, MAX_DELTA_ROWS + 1))
            current = current.copy()
            if tail_deltas:
                current[n_rows - k:] = rng.uniform(0.0, 10.0, size=(k, n_cols))
            else:
                rows = rng.choice(n_rows, size=k, replace=False)
                current[rows] = rng.uniform(0.0, 10.0, size=(k, n_cols))
        stream.append(current)
    return stream


def _time_stream(stream) -> tuple[float, list, float, list, dict]:
    """Best-of warm vs cold wall clock over one instance stream."""

    def warm_pass():
        solver = IncrementalKMSolver()
        for weights in stream:
            solver.solve(weights)
        return solver

    def cold_pass():
        for weights in stream:
            solve_assignment(weights)

    cold_best, cold_times = _best_of(REPEATS, cold_pass)
    warm_best, warm_times = _best_of(REPEATS, warm_pass)
    stats = warm_pass().stats
    return warm_best, warm_times, cold_best, cold_times, stats


def test_incremental_matching(benchmark):
    rng = np.random.default_rng(29)

    # ------------------------------------------------------------------
    # Correctness before timing: every step of the tail-delta stream is
    # bit-identical to the cold reference.
    # ------------------------------------------------------------------
    tail_stream = _solve_stream(rng, tail_deltas=True)
    solver = IncrementalKMSolver()
    for step, weights in enumerate(tail_stream):
        warm = solver.solve(weights)
        cold = solve_assignment(weights)
        assert warm.pairs == cold.pairs, f"pair divergence at step {step}"
        assert warm.total_weight == cold.total_weight, f"total divergence at step {step}"
    assert solver.stats["warm"] > 0 and solver.stats["hit"] > 0

    # ------------------------------------------------------------------
    # The gated repeated-solve benchmark (tail deltas), plus the
    # interior-delta stream recorded for transparency.
    # ------------------------------------------------------------------
    warm_best, warm_times, cold_best, cold_times, warm_stats = _time_stream(tail_stream)
    warm_speedup = cold_best / warm_best

    interior_stream = _solve_stream(rng, tail_deltas=False)
    (
        interior_best,
        interior_times,
        interior_cold_best,
        interior_cold_times,
        interior_stats,
    ) = _time_stream(interior_stream)
    interior_speedup = interior_cold_best / interior_best

    # One recorded pass for the pytest-benchmark tables: the warm stream,
    # the quantity whose regression this bench exists to catch.
    def warm_pass():
        solver = IncrementalKMSolver()
        for weights in tail_stream:
            solver.solve(weights)

    benchmark.pedantic(warm_pass, rounds=1, iterations=1)

    payload = {
        "bench": "incremental",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "warm": {
            "shape": list(SOLVE_SHAPE),
            "steps": NUM_STEPS,
            "max_delta_rows": MAX_DELTA_ROWS,
            "cold_seconds": cold_times,
            "warm_seconds": warm_times,
            "cold_best": cold_best,
            "warm_best": warm_best,
            "speedup": warm_speedup,
            "floor": WARM_FLOOR,
            "solver_stats": warm_stats,
        },
        "interior": {
            "cold_seconds": interior_cold_times,
            "warm_seconds": interior_times,
            "cold_best": interior_cold_best,
            "warm_best": interior_best,
            "speedup": interior_speedup,
            "solver_stats": interior_stats,
        },
    }
    write_artifact(RESULT_PATH, payload)

    print()
    print(
        f"warm KM (tail deltas):    {cold_best:.3f}s -> {warm_best:.3f}s "
        f"({warm_speedup:.1f}x, floor {WARM_FLOOR:.1f}x, shape {SOLVE_SHAPE}, "
        f"{NUM_STEPS} steps, modes {warm_stats['hit']}h/{warm_stats['warm']}w/"
        f"{warm_stats['cold']}c)"
    )
    print(
        f"warm KM (interior):       {interior_cold_best:.3f}s -> {interior_best:.3f}s "
        f"({interior_speedup:.1f}x, recorded only)"
    )

    assert warm_speedup >= WARM_FLOOR, (
        f"warm-started KM stream is only {warm_speedup:.2f}x the cold stream "
        f"(floor {WARM_FLOOR:.1f}x)"
    )
