"""Serving kill/resume: a checkpointed serving run must not be observable."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.check.resume import check_resume_equivalence
from repro.serving import MicroBatchPolicy, ServingEngine, derive_arrivals
from repro.simulation import SyntheticConfig, generate_city

NUM_DAYS = 5
KILL_DAY = 2
ADAPTIVE = MicroBatchPolicy(max_wait=5.0, max_size=4)


@dataclass(kw_only=True)
class _RecordingEngine(ServingEngine):
    """Keeps the report of every run that completes (interrupted ones raise)."""

    reports: list = field(default_factory=list)

    def run(self, *args, **kwargs):
        report = super().run(*args, **kwargs)
        self.reports.append(report)
        return report


def _check(algorithm, **city):
    # Twelve requests per window, so the policy actually splits windows.
    city = dict(imbalance=1.0, **city)
    # The same city check_resume_equivalence builds (instance seed 1).
    config = SyntheticConfig(num_brokers=12, num_requests=90, num_days=NUM_DAYS, seed=1, **city)
    schedule = derive_arrivals(
        generate_city(config).stream, window_seconds=20.0, profile="bursty", seed=3
    )
    engine = _RecordingEngine(policy=ADAPTIVE, schedule=schedule)
    violations = check_resume_equivalence(
        algorithm=algorithm,
        kill_day=KILL_DAY,
        num_days=NUM_DAYS,
        engine=engine,
        **city,
    )
    assert violations == [], [str(v) for v in violations]
    straight, resumed = engine.reports
    # Queue waits are virtual time: the resumed days wait exactly as long
    # as the same days did in the straight run.
    assert 0 < resumed.requests < straight.requests
    assert np.array_equal(resumed.queue_waits, straight.queue_waits[-resumed.requests :])
    assert resumed.flush_reasons["max_size"] > 0
    return straight


@pytest.mark.parametrize("algorithm", ["LACB", "LACB-Opt", "AN"])
def test_adaptive_serving_resume_is_bit_identical(algorithm):
    _check(algorithm)


def test_serving_resume_with_appeals_is_bit_identical():
    straight = _check("LACB", appeal_rate=0.5)
    # Appealed requests re-enter later windows as extra arrivals.
    assert straight.requests > 90
