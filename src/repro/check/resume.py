"""Checkpoint/resume equivalence: an interrupted run must not be observable.

The durable-state contract (:mod:`repro.state`, ``docs/state.md``) promises
that a run checkpointed at a day boundary, killed, and resumed in a fresh
process produces *bit-identical* results to the same run executed straight
through.  This module proves that promise on small simulated cities:

1. **Straight run** — execute all ``num_days`` days in one go, keeping the
   final matcher/platform objects for state comparison.
2. **Interrupted run** — fresh objects, checkpoint every day boundary, and
   raise :class:`~repro.state.RunInterrupted` right after day ``kill_day``'s
   checkpoint was written (the crash the layer is designed for: dying
   *after* the durable write).
3. **Resumed run** — a third set of fresh objects restored from the store's
   latest checkpoint, run from ``kill_day + 1`` to the horizon.

Straight and resumed runs are then compared field-by-field: every
:class:`~repro.engine.hooks.RunResult` number and array must match
bitwise (timing fields excluded — wall-clock is not replayable), every
logged assignment pair must match, and the final matcher and platform
snapshots must be :func:`~repro.state.state_equal`.

:func:`run_resume_suite` wraps this in a seeded property test drawing
random kill days (and cycling algorithms), so the equivalence holds at
*every* boundary, not just a hand-picked one.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import numpy as np

from repro.check.runtime import Violation
from repro.obs import telemetry as obs

#: RunResult fields excluded from the bitwise comparison: decision time is
#: wall-clock, so two segments can never reproduce one segment's timings.
#: Timer *state* still round-trips (totals accumulate across segments) —
#: that is covered by the hook round-trip tests, not by equivalence.
TIMING_FIELDS = ("decision_time", "daily_decision_time")

#: ServingReport fields excluded likewise: latencies, service seconds and
#: the makespan carry measured solver time.  Queue waits, batch sizes,
#: flush reasons and request counts are virtual time and compare bitwise.
SERVING_TIMING_FIELDS = ("latencies", "service_seconds", "makespan")

#: Algorithms cycled by :func:`run_resume_suite` — the stateless KM
#: baseline, the full LACB stack (bandit + value function + shared RNG)
#: and the neural-assignment matcher (deep bandit + optimizer state).
SUITE_ALGORITHMS = ("LACB", "AN", "Top-3")

#: Requests-to-brokers ratio of the scenario city.  At the default 0.015 a
#: 12-broker, 90-request city has one request per window at most, so no
#: case would ever solve a multi-row KM or see a within-window order; at
#: 1.0 it has two windows a day of up to eight requests each.
SUITE_IMBALANCE = 1.0


def _build(platform_spec, algorithm: str, seed: int):
    """One fresh (platform, matcher, collector) triple for one segment."""
    from repro.engine.hooks import MetricsCollector
    from repro.engine.spec import MatcherSpec

    platform = platform_spec.build()
    matcher = MatcherSpec(algorithm, seed=seed).build(platform)
    collector = MetricsCollector(store_outcomes=True, store_assignments=True)
    return platform, matcher, collector


def _compare_results(
    straight,
    resumed,
    algorithm: str,
    prefix: str = "resume",
    labels: tuple[str, str] = ("straight", "resumed"),
) -> list[Violation]:
    """Bitwise RunResult comparison, timing excluded.

    Shared by every ≡-style check: resume equivalence compares a straight
    run against a checkpoint/kill/resume run, serving equivalence a batch
    spec against its boundary-flush serving twin.  A serving report on
    both sides compares field by field, :data:`SERVING_TIMING_FIELDS`
    excluded.  ``prefix`` names the violations
    (``<prefix>.result_diverges`` etc.), ``labels`` the two sides.
    """
    violations: list[Violation] = []
    left, right = labels
    for field in dataclasses.fields(straight):
        if field.name in TIMING_FIELDS:
            continue
        a = getattr(straight, field.name)
        b = getattr(resumed, field.name)
        if field.name == "assignments":
            flat_a = [(x.day, x.batch, p.request_id, p.broker_id, p.utility) for x in a for p in x.pairs]
            flat_b = [(x.day, x.batch, p.request_id, p.broker_id, p.utility) for x in b for p in x.pairs]
            if flat_a != flat_b:
                violations.append(
                    Violation(
                        f"{prefix}.assignments_diverge",
                        f"{len(flat_a)} {left} vs {len(flat_b)} {right} assignment "
                        "pairs, or pair contents differ",
                        algorithm=algorithm,
                    )
                )
            continue
        if field.name == "outcomes":
            same = len(a) == len(b) and all(
                np.array_equal(x.workloads, y.workloads)
                and np.array_equal(x.signup_rates, y.signup_rates)
                and np.array_equal(x.realized_utility, y.realized_utility)
                for x, y in zip(a, b)
            )
            if not same:
                violations.append(
                    Violation(
                        f"{prefix}.outcomes_diverge",
                        f"stored day outcomes differ between {left} and {right} runs",
                        algorithm=algorithm,
                    )
                )
            continue
        pairs = [(field.name, a, b)]
        if field.name == "serving" and a is not None and b is not None:
            pairs = [
                (f"serving.{f.name}", getattr(a, f.name), getattr(b, f.name))
                for f in dataclasses.fields(a)
                if f.name not in SERVING_TIMING_FIELDS
            ]
        for name, x, y in pairs:
            if isinstance(x, np.ndarray):
                same = x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            elif isinstance(x, float):
                same = x == y or (np.isnan(x) and np.isnan(y))
            else:
                same = x == y
            if not same:
                violations.append(
                    Violation(
                        f"{prefix}.result_diverges",
                        f"RunResult.{name}: {left} {x!r} != {right} {y!r}",
                        algorithm=algorithm,
                    )
                )
    return violations


def _compare_states(
    left,
    right,
    algorithm: str,
    prefix: str = "resume",
    labels: tuple[str, str] = ("straight", "resumed"),
) -> list[Violation]:
    """Final ``(matcher, platform)`` snapshots must be state-equal.

    ``left`` / ``right`` are ``(matcher snapshot, platform snapshot)``
    pairs: taken from live objects, or loaded from a run's final
    checkpoint.  Shared like :func:`_compare_results`; violations are
    named ``<prefix>.matcher_state_diverges`` /
    ``<prefix>.platform_state_diverges``.
    """
    from repro.state import state_equal

    return [
        Violation(
            f"{prefix}.{name}_state_diverges",
            f"final {name} snapshots differ between {labels[0]} and {labels[1]} runs",
            algorithm=algorithm,
        )
        for name, a, b in zip(("matcher", "platform"), left, right)
        if not state_equal(a, b)
    ]


def check_resume_equivalence(
    algorithm: str = "LACB",
    kill_day: int = 2,
    num_brokers: int = 12,
    num_requests: int = 90,
    num_days: int = 6,
    seed: int = 7,
    instance_seed: int = 1,
    directory: str | None = None,
) -> list[Violation]:
    """Prove straight-through ≡ checkpoint/kill/resume for one scenario.

    Args:
        algorithm: registry name of the matcher under test.
        kill_day: day whose boundary the interrupted segment dies at
            (its checkpoint is written first; must be < ``num_days``).
        num_brokers / num_requests / num_days: simulated-city size (at
            :data:`SUITE_IMBALANCE`).
        seed / instance_seed: matcher and city seeds.
        directory: checkpoint store location; a throwaway temp directory
            (removed afterwards) when omitted.

    Returns:
        Violations (empty when the equivalence holds bitwise).
    """
    from repro.engine.loop import DayLoopEngine
    from repro.engine.spec import PlatformSpec
    from repro.simulation.datasets import SyntheticConfig
    from repro.state import (
        CheckpointHook,
        CheckpointStore,
        RunInterrupted,
        StopAfterDay,
    )

    if not 0 <= kill_day < num_days:
        raise ValueError(f"kill_day must be in [0, {num_days}), got {kill_day}")
    platform_spec = PlatformSpec.synthetic(
        SyntheticConfig(
            num_brokers=num_brokers,
            num_requests=num_requests,
            num_days=num_days,
            imbalance=SUITE_IMBALANCE,
            seed=instance_seed,
        )
    )
    temp_dir = None
    if directory is None:
        directory = temp_dir = tempfile.mkdtemp(prefix="repro-resume-check-")
    violations: list[Violation] = []
    engine = DayLoopEngine()
    try:
        platform, matcher, collector = _build(platform_spec, algorithm, seed)
        engine.run(platform, matcher, hooks=(collector,))
        straight = collector.result

        store = CheckpointStore(directory)
        run_id = f"{algorithm}-resume-check"
        platform2, matcher2, collector2 = _build(platform_spec, algorithm, seed)
        hook = CheckpointHook(store, run_id=run_id, components={"collector": collector2})
        try:
            engine.run(
                platform2,
                matcher2,
                hooks=(collector2, hook, StopAfterDay(kill_day)),
            )
        except RunInterrupted:
            pass
        else:
            violations.append(
                Violation(
                    "resume.interrupt_missed",
                    f"StopAfterDay({kill_day}) did not interrupt the run",
                    algorithm=algorithm,
                )
            )
            return violations

        record = store.latest(run_id=run_id)
        if record is None or record.day != kill_day:
            violations.append(
                Violation(
                    "resume.checkpoint_missing",
                    f"expected a day-{kill_day} checkpoint, found "
                    f"{'none' if record is None else f'day {record.day}'}",
                    algorithm=algorithm,
                )
            )
            return violations

        platform3, matcher3, collector3 = _build(platform_spec, algorithm, seed)
        state = store.load(record)
        platform3.restore(state["platform"])
        matcher3.restore(state["matcher"])
        collector3.restore(state["hooks"]["collector"])
        engine.run(platform3, matcher3, hooks=(collector3,), start_day=record.day + 1)
        resumed = collector3.result

        violations.extend(_compare_results(straight, resumed, algorithm))
        violations.extend(
            _compare_states(
                (matcher.snapshot(), platform.snapshot()),
                (matcher3.snapshot(), platform3.snapshot()),
                algorithm,
            )
        )
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    obs.add("check.resume_cases")
    if violations:
        obs.add("check.violations", invariant="resume.equivalence")
    return violations


def run_resume_suite(
    num_cases: int = 2,
    seed: int = 0,
    algorithms: tuple[str, ...] = SUITE_ALGORITHMS,
    num_days: int = 5,
    directory: str | None = None,
) -> tuple[int, list[Violation]]:
    """Seeded property test: equivalence at random kill points.

    Each case draws a kill day uniformly from ``[0, num_days - 1)`` and
    cycles through ``algorithms``, so repeated CI runs with different
    ``seed`` values sweep the whole boundary × algorithm grid over time.

    Returns:
        ``(cases_run, violations)``.
    """
    import os

    rng = np.random.default_rng(seed)
    violations: list[Violation] = []
    cases_run = 0
    for index in range(num_cases):
        algorithm = algorithms[index % len(algorithms)]
        kill_day = int(rng.integers(0, max(1, num_days - 1)))
        # Each case gets its own store so repeated (algorithm, kill_day)
        # draws never read another case's checkpoints.
        case_dir = None if directory is None else os.path.join(directory, f"case-{index}")
        with obs.span("check.resume_case", algorithm=algorithm, kill_day=str(kill_day)):
            violations.extend(
                check_resume_equivalence(
                    algorithm=algorithm,
                    kill_day=kill_day,
                    num_days=num_days,
                    directory=case_dir,
                )
            )
        cases_run += 1
    return cases_run, violations
