"""Serving/batch equivalence: boundary-flush serving must *be* the day loop.

The serving stack's foundational claim (:mod:`repro.serving`) is that the
event-driven engine generalizes the paper's fixed windows rather than
quietly replacing them: with the degenerate micro-batch policy
(``max_wait = window_seconds``, unbounded size) every window flushes as
exactly one micro-batch at the window boundary, and the run must be
**bit-identical** to the batch day loop — same assignments, same daily
utilities, same outcomes, same final matcher and platform state.

This module proves that claim the same way :mod:`repro.check.resume`
proves checkpoint transparency: run both engines on fresh copies of a
small simulated city, compare the :class:`~repro.engine.hooks.RunResult`
field-by-field (timing excluded — wall-clock is not replayable) via the
shared comparator, and compare final snapshots with
:func:`~repro.state.state_equal`.  The suite cycles algorithms — the
neural VFGA-style matcher, the full LACB stack and its CBS-enabled
variant — and both arrival profiles, so the equivalence is not an
artifact of one scheduler or one demand shape.
"""

from __future__ import annotations

from repro.check.resume import _build, _compare_results, _compare_states
from repro.check.runtime import Violation
from repro.obs import telemetry as obs

#: Algorithms cycled by :func:`run_serving_suite`: the neural assignment
#: matcher (VFGA with both switches off), the paper's LACB and the
#: CBS-enabled LACB-Opt.
SUITE_ALGORITHMS = ("AN", "LACB", "LACB-Opt")


def check_serving_equivalence(
    algorithm: str = "LACB",
    profile: str = "uniform",
    num_brokers: int = 12,
    num_requests: int = 90,
    num_days: int = 4,
    seed: int = 7,
    instance_seed: int = 1,
    window_seconds: float = 60.0,
    arrival_seed: int = 0,
) -> list[Violation]:
    """Prove batch day loop ≡ boundary-flush serving for one scenario.

    Args:
        algorithm: registry name of the matcher under test.
        profile: arrival profile; the equivalence must hold for *any*
            profile, because boundary flushing erases intra-window times.
        num_brokers / num_requests / num_days: simulated-city size.
        seed / instance_seed: matcher and city seeds.
        window_seconds: virtual window length of the serving timeline.
        arrival_seed: seed of the intra-window arrival draw.

    Returns:
        Violations (empty when the equivalence holds bitwise).
    """
    from repro.engine.loop import DayLoopEngine
    from repro.engine.spec import PlatformSpec
    from repro.serving import MicroBatchPolicy, ServingEngine, derive_arrivals
    from repro.simulation.datasets import SyntheticConfig

    platform_spec = PlatformSpec.synthetic(
        SyntheticConfig(
            num_brokers=num_brokers,
            num_requests=num_requests,
            num_days=num_days,
            seed=instance_seed,
        )
    )
    platform, matcher, collector = _build(platform_spec, algorithm, seed)
    DayLoopEngine().run(platform, matcher, hooks=(collector,))

    platform2, matcher2, collector2 = _build(platform_spec, algorithm, seed)
    engine = ServingEngine(
        policy=MicroBatchPolicy.boundary(window_seconds),
        schedule=derive_arrivals(
            platform2.stream, window_seconds=window_seconds, profile=profile, seed=arrival_seed
        ),
    )
    report = engine.run(platform2, matcher2, hooks=(collector2,))

    sides = dict(prefix="serving", labels=("batch", "serving"))
    violations = _compare_results(collector.result, collector2.result, algorithm, **sides)
    violations += _compare_states(
        (matcher, platform), (matcher2, platform2), algorithm, **sides
    )
    if report.flush_reasons["boundary"] != report.micro_batches:
        violations.append(
            Violation(
                "serving.policy_not_degenerate",
                f"boundary policy flushed {report.flush_reasons} — every "
                "micro-batch must close at the window boundary",
                algorithm=algorithm,
            )
        )
    obs.add("check.serving_cases")
    if violations:
        obs.add("check.violations", invariant="serving.equivalence")
    return violations


def run_serving_suite(
    algorithms: tuple[str, ...] = SUITE_ALGORITHMS,
    profiles: tuple[str, ...] = ("uniform", "bursty"),
    num_days: int = 4,
    seed: int = 7,
) -> tuple[int, list[Violation]]:
    """The full algorithm × profile equivalence grid.

    Returns:
        ``(cases_run, violations)``.
    """
    violations: list[Violation] = []
    cases_run = 0
    for algorithm in algorithms:
        for profile in profiles:
            with obs.span("check.serving_case", algorithm=algorithm, profile=profile):
                violations.extend(
                    check_serving_equivalence(
                        algorithm=algorithm,
                        profile=profile,
                        num_days=num_days,
                        seed=seed,
                    )
                )
            cases_run += 1
    return cases_run, violations
