"""Telemetry overhead — engine wall-clock with observability off vs. on.

The :mod:`repro.obs` instrumentation sits on the hottest paths (batch
assignment, KM solve, CBS pruning, bandit updates), so its cost is a
standing perf budget: **telemetry on must stay within 5% of telemetry
off**, and telemetry off must be free (a single global read per call
site).  This bench runs the same LACB-Opt day loop both ways — telemetry
on *includes live streaming* (a day-boundary JSONL flush, the default
under ``--telemetry``), so the budget covers the whole v2 pipeline, not
just in-memory counters.  Results must be bit-identical both ways, the
budget is enforced on median-of-repeats per mode, and the bench emits
``BENCH_obs_overhead.json`` so ``repro-lacb baseline`` can track the
trajectory across PRs.

Median of per-mode repeats, not of pairwise ratios: a pair ratio divides
two single noisy samples, so one disturbed run poisons its pair in either
direction (an earlier artifact recorded a 0.857 "overhead" — telemetry-on
measured *faster* than off).  The per-mode median discards disturbed
repeats before the division, and the modes stay interleaved so drift
(thermal, cache) still hits both equally.

Spans are recorded at batch/day altitude (never per request-broker
pair) precisely so this bound holds; a regression here usually means an
instrumentation point slid into a per-pair loop.
"""

import os
import statistics
import tempfile

from benchmarks.common import SMOKE, write_artifact
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec, execute_spec_observed
from repro.obs import telemetry as obs
from repro.obs.stream import read_segment
from repro.simulation import SyntheticConfig

# CI smoke mode: tiny instance, budget relaxed to "not pathologically
# slower" — the full-size budget only means something when per-batch KM
# work dominates, as it does in real runs.

#: Near the CLI's default city scale (|B|=200): per-batch KM work must
#: dominate — tiny instances overstate the relative cost of the fixed
#: per-batch instrumentation.
CONFIG = SyntheticConfig(
    num_brokers=20 if SMOKE else 200,
    num_requests=150 if SMOKE else 5000,
    num_days=1 if SMOKE else 6,
    imbalance=0.02,
    seed=5,
)
REPEATS = 3 if SMOKE else 5
OVERHEAD_BUDGET = 2.0 if SMOKE else 1.05

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs_overhead.json")


def _spec() -> RunSpec:
    return RunSpec(
        platform=PlatformSpec.synthetic(CONFIG), matcher=MatcherSpec("LACB-Opt", seed=7)
    )


def test_obs_overhead(benchmark):
    obs.disable()
    off_runs, on_runs = [], []
    off_times, on_times = [], []
    span_count = metric_count = 0
    with tempfile.TemporaryDirectory(prefix="repro-obs-bench-") as stream_dir:
        # Interleave the two modes so drift (thermal, cache) hits both equally.
        for repeat in range(REPEATS):
            off = execute_spec(_spec())
            off_runs.append(off)
            off_times.append(off.decision_time)

            segment = f"{repeat:04d}-bench"
            on = execute_spec_observed(_spec(), stream_dir, segment=segment)
            on_runs.append(on)
            on_times.append(on.decision_time)
            streamed = read_segment(os.path.join(stream_dir, f"{segment}.jsonl"))
            span_count = len(streamed.spans)
            metric_count = len(streamed.registry_state["metrics"])

        # One recorded pass for the pytest-benchmark tables: telemetry on
        # with streaming, the quantity whose regression this bench catches.
        benchmark.pedantic(
            lambda: execute_spec_observed(_spec(), stream_dir),
            rounds=1,
            iterations=1,
        )
        streamed = [n for n in os.listdir(stream_dir) if n.endswith(".jsonl")]
        assert len(streamed) >= REPEATS  # every observed repeat streamed

    # Observability must never change results.
    for off, on in zip(off_runs, on_runs):
        assert off.total_realized_utility == on.total_realized_utility
        assert off.num_assigned == on.num_assigned

    off_best, on_best = min(off_times), min(on_times)
    # Median per mode first, ratio second: one disturbed repeat is
    # discarded outright instead of poisoning a pairwise ratio.
    off_median, on_median = statistics.median(off_times), statistics.median(on_times)
    overhead = on_median / off_median
    payload = {
        "bench": "obs_overhead",
        "smoke": SMOKE,
        "streaming": True,
        "instance": {
            "num_brokers": CONFIG.num_brokers,
            "num_requests": CONFIG.num_requests,
            "num_days": CONFIG.num_days,
            "imbalance": CONFIG.imbalance,
            "algorithm": "LACB-Opt",
        },
        "repeats": REPEATS,
        "telemetry_off_seconds": off_times,
        "telemetry_on_seconds": on_times,
        "telemetry_off_best": off_best,
        "telemetry_on_best": on_best,
        "telemetry_off_median": off_median,
        "telemetry_on_median": on_median,
        "overhead_ratio": overhead,
        "budget_ratio": OVERHEAD_BUDGET,
        "spans_recorded": span_count,
        "metrics_recorded": metric_count,
    }
    write_artifact(RESULT_PATH, payload)

    print()
    print(f"decision time, telemetry off: {off_median:.3f}s (median of {REPEATS})")
    print(f"decision time, on+streaming:  {on_median:.3f}s ({span_count} spans, "
          f"{metric_count} metric series)")
    print(f"overhead: {(overhead - 1) * 100:+.2f}% (budget +{(OVERHEAD_BUDGET - 1) * 100:.0f}%)")
    assert span_count > 0 and metric_count > 0
    assert overhead <= OVERHEAD_BUDGET, (
        f"telemetry overhead {(overhead - 1) * 100:.2f}% exceeds the "
        f"{(OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
