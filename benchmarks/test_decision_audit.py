"""Decision-audit overhead — telemetry+streaming with the audit off vs. on.

The provenance layer (:mod:`repro.obs.audit`) taps the hottest paths of
the run: every sampled batch captures its CBS candidate set, per-decision
raw/refined utilities and runner-up alternatives, and the bandit stashes
per-arm means/bonuses whenever an audit session is live.  Its cost is a
standing perf budget on top of the telemetry one: **audit on must stay
within 5% of audit off** (both with telemetry and live streaming enabled,
the configuration ``--telemetry DIR --audit`` actually ships), and the
records themselves must stay compact — a bounded number of bytes per
audited decision, so a season-scale run's stream stays readable and
shippable.

Methodology follows ``benchmarks/test_obs_overhead.py``: the two modes
are interleaved so drift hits both equally, the budget is enforced on the
median of per-mode repeats (one disturbed repeat is discarded outright
instead of poisoning a pairwise ratio), results must be bit-identical
both ways, and the bench emits ``BENCH_decision_audit.json`` so
``repro-lacb baseline`` can track the trajectory across PRs.
"""

import json
import os
import statistics
import tempfile

from benchmarks.common import SMOKE, write_artifact
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec_observed
from repro.obs import telemetry as obs
from repro.obs.audit import AuditConfig, read_audit
from repro.obs.stream import stream_dir_for
from repro.simulation import SyntheticConfig

# CI smoke mode: tiny instance, budget relaxed to "not pathologically
# slower" — on a tiny city the fixed per-batch bookkeeping dwarfs the
# KM work that dominates (and amortizes it) at real scale.

#: Near the CLI's default city scale, audited at the default ``--audit``
#: sampling (every batch): the worst case the flag actually ships.
CONFIG = SyntheticConfig(
    num_brokers=20 if SMOKE else 200,
    num_requests=150 if SMOKE else 5000,
    num_days=1 if SMOKE else 6,
    imbalance=0.02,
    seed=5,
)
SAMPLE_EVERY = 1
REPEATS = 3 if SMOKE else 5
OVERHEAD_BUDGET = 2.0 if SMOKE else 1.05
#: Compact-record budget: an audited decision (provenance fields plus its
#: share of the batch/capacity envelope) must serialize under this.
BYTES_PER_DECISION_BUDGET = 1024

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_decision_audit.json")


def _spec() -> RunSpec:
    return RunSpec(
        platform=PlatformSpec.synthetic(CONFIG), matcher=MatcherSpec("LACB-Opt", seed=7)
    )


def test_decision_audit_overhead(benchmark):
    obs.disable()
    off_runs, on_runs = [], []
    off_times, on_times = [], []
    audit_bytes = audit_decisions = audit_days = 0
    with tempfile.TemporaryDirectory(prefix="repro-audit-bench-") as workdir:
        stream_dir = stream_dir_for(workdir)
        # Interleave the modes so drift (thermal, cache) hits both equally.
        for repeat in range(REPEATS):
            off = execute_spec_observed(_spec(), stream_dir, segment=f"{repeat:04d}-off")
            off_runs.append(off)
            off_times.append(off.decision_time)

            on = execute_spec_observed(
                _spec(),
                stream_dir,
                segment=f"{repeat:04d}-on",
                audit=AuditConfig(sample_every=SAMPLE_EVERY),
            )
            on_runs.append(on)
            on_times.append(on.decision_time)

        # One recorded pass for the pytest-benchmark tables: the audited
        # configuration, the quantity whose regression this bench catches.
        benchmark.pedantic(
            lambda: execute_spec_observed(
                _spec(), stream_dir, audit=AuditConfig(sample_every=SAMPLE_EVERY)
            ),
            rounds=1,
            iterations=1,
        )

        # Audit records ride in the stream records: their size is the size
        # of the JSON the stream line carries for them.
        for record in read_audit(workdir).records:
            audit_bytes += len(json.dumps(record, sort_keys=True))
            audit_days += 1
            audit_decisions += sum(len(batch["decisions"]) for batch in record["batches"])

    # Provenance capture must never change results.
    for off, on in zip(off_runs, on_runs):
        assert off.total_realized_utility == on.total_realized_utility
        assert off.num_assigned == on.num_assigned

    assert audit_days > 0 and audit_decisions > 0
    bytes_per_decision = audit_bytes / audit_decisions

    off_median, on_median = statistics.median(off_times), statistics.median(on_times)
    overhead = on_median / off_median
    payload = {
        "bench": "decision_audit",
        "smoke": SMOKE,
        "sample_every": SAMPLE_EVERY,
        "instance": {
            "num_brokers": CONFIG.num_brokers,
            "num_requests": CONFIG.num_requests,
            "num_days": CONFIG.num_days,
            "imbalance": CONFIG.imbalance,
            "algorithm": "LACB-Opt",
        },
        "repeats": REPEATS,
        "audit_off_seconds": off_times,
        "audit_on_seconds": on_times,
        "audit_off_median": off_median,
        "audit_on_median": on_median,
        "overhead_ratio": overhead,
        "budget_ratio": OVERHEAD_BUDGET,
        "audit_bytes": audit_bytes,
        "audit_days": audit_days,
        "audit_decisions": audit_decisions,
        "bytes_per_decision": bytes_per_decision,
        "bytes_per_decision_budget": BYTES_PER_DECISION_BUDGET,
    }
    write_artifact(RESULT_PATH, payload)

    print()
    print(f"decision time, audit off: {off_median:.3f}s (median of {REPEATS})")
    print(f"decision time, audit on:  {on_median:.3f}s "
          f"({audit_decisions} decisions over {audit_days} day records)")
    print(f"overhead: {(overhead - 1) * 100:+.2f}% (budget +{(OVERHEAD_BUDGET - 1) * 100:.0f}%)")
    print(f"record size: {bytes_per_decision:.0f} B/decision "
          f"(budget {BYTES_PER_DECISION_BUDGET})")
    assert bytes_per_decision <= BYTES_PER_DECISION_BUDGET, (
        f"audit records average {bytes_per_decision:.0f} bytes/decision, over "
        f"the {BYTES_PER_DECISION_BUDGET}-byte budget"
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"decision-audit overhead {(overhead - 1) * 100:.2f}% exceeds the "
        f"{(OVERHEAD_BUDGET - 1) * 100:.0f}% budget"
    )
