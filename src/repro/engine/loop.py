"""The day-loop engine: one authoritative driver of the platform↔matcher protocol.

Every consumer of the reproduction — the experiment runner, the Fig. 8
sweeps, the real-like-city evaluation, the serving mode, the CLI and the
benchmark suite — ultimately drives the same loop::

    platform.reset()
    for each day:
        contexts = platform.start_day(day)
        matcher.begin_day(day, contexts)                       [timed]
        for each window:
            window_ids = platform.batch_requests(day, window)
            for request_ids in split(window_ids):              [engine step]
                utilities = platform.predicted_utilities(ids)  [environment]
                assignment = matcher.assign_batch(...)         [timed]
                platform.submit_assignment(assignment)
                served(matcher_seconds)                        [engine step]
        outcome = platform.finish_day()
        matcher.end_day(day, outcome, contexts)                [timed]
    finish(context)                                            [engine step]

:class:`DayLoopEngine` owns this protocol and emits lifecycle events to
:class:`~repro.engine.hooks.RunHook` observers, so result accumulation,
timing, logging and progress reporting compose instead of being hard-coded
into one runner function.  While :mod:`repro.obs` telemetry is active
(:func:`repro.obs.telemetry.enable`), the engine additionally attaches a
:class:`~repro.obs.hook.TelemetryHook` so metrics and spans ride along with
every run without caller wiring; likewise, while runtime invariant checks
are active (:func:`repro.check.runtime.enable` / ``REPRO_CHECK=1``) it
attaches a :class:`~repro.check.hook.CheckHook` enforcing per-batch
feasibility and end-of-day accounting invariants.

The ``[engine step]`` lines are the only place batch and serving mode
differ: here a window goes to the matcher whole and the other two steps
do nothing (Alg. 2); :class:`~repro.serving.engine.ServingEngine` splits
it into micro-batches and books each into its queue.  Hooks, timing and
``start_day`` resume exist once, here.

Timing seam
-----------

The engine is the single place where matcher time is measured.  The clock
runs only around the three matcher calls (``begin_day``, ``assign_batch``,
``end_day``); environment work — request sampling, the deployed utility
model (``predicted_utilities``), outcome realization — is never charged to
decision time.  This reproduces the paper's running-time axis, which
measures algorithm time, not simulator time.  Hooks receive the measured
``matcher_seconds`` on each event and must not re-time anything themselves;
:class:`~repro.engine.hooks.DecisionTimer` is the canonical accumulator.

With telemetry off, a matcher call costs two clock reads.  With it on,
the call runs inside a live ``engine.<call>`` span opened before the clock
starts, so every span the matcher records nests under it; the span closes
with the engine's tick, its ``matcher_seconds`` bit for bit and the call's
CPU seconds, the only ``process_time`` reads the loop makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep the engine import-light
    from repro.algorithms.base import Matcher
    from repro.core.types import Assignment, DayOutcome
    from repro.engine.hooks import RunHook
    from repro.obs.telemetry import Telemetry
    from repro.simulation.platform import RealEstatePlatform


@dataclass(frozen=True)
class RunContext:
    """Immutable facts about one run, handed to hooks at start and end.

    Attributes:
        platform: the environment being driven.
        matcher: the algorithm under test.
        num_days: horizon length.
        num_brokers: broker-pool size ``|B|``.
        batches_per_day: time intervals per day.
    """

    platform: RealEstatePlatform
    matcher: Matcher
    num_days: int
    num_brokers: int
    batches_per_day: int


@dataclass(frozen=True)
class DayStartEvent:
    """Emitted after ``matcher.begin_day`` returns.

    Attributes:
        day: day index.
        contexts: the day's broker working-status contexts ``x_b``.
        matcher_seconds: wall-clock seconds spent inside ``begin_day``.
    """

    day: int
    contexts: np.ndarray
    matcher_seconds: float


@dataclass(frozen=True)
class BatchAssignedEvent:
    """Emitted after one batch assignment has been submitted.

    Attributes:
        day / batch: interval coordinates.
        request_ids: global ids of the batch's requests.
        utilities: the ``(|R_batch|, |B|)`` predicted utilities the matcher saw.
        assignment: the matching ``M^(i)`` the matcher produced.
        matcher_seconds: wall-clock seconds spent inside ``assign_batch``
            (excludes ``predicted_utilities`` and ``submit_assignment``).
    """

    day: int
    batch: int
    request_ids: np.ndarray
    utilities: np.ndarray
    assignment: Assignment
    matcher_seconds: float


@dataclass(frozen=True)
class DayEndEvent:
    """Emitted after ``matcher.end_day`` consumed the realized feedback.

    Attributes:
        day: day index.
        outcome: the platform's realized end-of-day feedback.
        contexts: the contexts the day started with.
        matcher_seconds: wall-clock seconds spent inside ``end_day``.
    """

    day: int
    outcome: DayOutcome
    contexts: np.ndarray
    matcher_seconds: float


@dataclass
class DayLoopEngine:
    """Drives one matcher over a platform's whole horizon, emitting events.

    The platform is reset first, so repeated runs on the same instance are
    independent and face identical request streams and utility inputs
    (bit-for-bit, given the repo's seeding discipline).

    Attributes:
        clock: the monotonic timer charged for matcher calls; injectable
            for deterministic timing tests.
    """

    clock: Callable[[], float] = time.perf_counter

    def run(
        self,
        platform: RealEstatePlatform,
        matcher: Matcher,
        hooks: Sequence[RunHook] | Iterable[RunHook] = (),
        start_day: int = 0,
    ) -> RunContext:
        """Run the day loop from ``start_day``, notifying ``hooks`` throughout.

        Args:
            platform: the environment.  Reset before the first day when the
                run starts from day 0; a resumed run (``start_day > 0``)
                must arrive with platform, matcher and hooks already
                restored to their day-``start_day - 1`` checkpoint state,
                and the engine deliberately leaves them untouched.
            matcher: the algorithm under test.
            hooks: observers notified in the given order at every event.
            start_day: first day to execute (0 for a fresh run).  May equal
                ``num_days``, in which case the loop body is empty and only
                the run-start/run-end events fire — how a run resumed from
                its final checkpoint rebuilds its result.

        Returns:
            The run's :class:`RunContext` (also handed to every hook).
        """
        from repro.obs.telemetry import current

        telemetry = current()
        hooks = tuple(hooks)
        hooks += _telemetry_hooks(hooks, telemetry)
        hooks += _check_hooks(hooks)
        if not 0 <= start_day <= platform.num_days:
            raise ValueError(
                f"start_day must be in [0, {platform.num_days}], got {start_day}"
            )
        if start_day == 0:
            platform.reset()
        context = RunContext(
            platform=platform,
            matcher=matcher,
            num_days=platform.num_days,
            num_brokers=platform.num_brokers,
            batches_per_day=platform.batches_per_day,
        )
        for hook in hooks:
            hook.on_run_start(context)

        clock, traced = self.clock, partial(self._traced, telemetry, matcher)
        try:
            for day in range(start_day, context.num_days):
                _set_observed_day(telemetry, day)
                contexts = platform.start_day(day)
                if telemetry is None:
                    tick = clock()
                    matcher.begin_day(day, contexts)
                    seconds = clock() - tick
                else:
                    _, seconds = traced("begin_day", (day, contexts), day=str(day))
                day_event = DayStartEvent(day, contexts, seconds)
                for hook in hooks:
                    hook.on_day_start(day_event)

                for batch in range(context.batches_per_day):
                    window_ids = platform.batch_requests(day, batch)
                    if window_ids.size == 0:
                        continue
                    for request_ids in self._split(day, batch, window_ids):
                        # Environment work: the deployed model's predictions are
                        # computed outside the matcher clock by construction.
                        utilities = platform.predicted_utilities(request_ids)
                        if telemetry is None:
                            tick = clock()
                            assignment = matcher.assign_batch(day, batch, request_ids, utilities)
                            seconds = clock() - tick
                        else:
                            assignment, seconds = traced(
                                "assign_batch", (day, batch, request_ids, utilities),
                                day=str(day), batch=str(batch),
                            )
                        platform.submit_assignment(assignment)
                        self._served(seconds)
                        batch_event = BatchAssignedEvent(
                            day, batch, request_ids, utilities, assignment, seconds
                        )
                        for hook in hooks:
                            hook.on_batch_assigned(batch_event)

                outcome = platform.finish_day()
                if telemetry is None:
                    tick = clock()
                    matcher.end_day(day, outcome, contexts)
                    seconds = clock() - tick
                else:
                    _, seconds = traced("end_day", (day, outcome, contexts), day=str(day))
                end_event = DayEndEvent(day, outcome, contexts, seconds)
                for hook in hooks:
                    hook.on_day_end(end_event)
        except BaseException:
            # An interrupt (StopAfterDay) or a fault: no run-end event, but
            # hooks still release what they scoped to this run.
            _set_observed_day(telemetry, -1)
            for hook in hooks:
                hook.on_run_abort(context)
            raise

        _set_observed_day(telemetry, -1)
        self._finish(context)
        for hook in hooks:
            hook.on_run_end(context)
        return context

    def _traced(
        self, telemetry: Telemetry, matcher: Matcher, call: str, args: tuple, **attrs: str
    ) -> tuple[object, float]:
        """``matcher.<call>(*args)`` on the matcher clock inside its live
        ``engine.<call>`` span (see "Timing seam"): ``(result, seconds)``."""
        with telemetry.measured_span(f"engine.{call}", **attrs) as span:
            cpu_tick = time.process_time()
            tick = self.clock()
            result = getattr(matcher, call)(*args)
            seconds = self.clock() - tick
            span.measured(tick, seconds, time.process_time() - cpu_tick)
        return result, seconds

    def _split(
        self, day: int, batch: int, request_ids: np.ndarray
    ) -> Iterable[np.ndarray]:
        """The matcher batches one platform window is served as (whole here)."""
        return (request_ids,)

    def _served(self, seconds: float) -> None:
        """Called after each batch submission with its matcher seconds."""

    def _finish(self, context: RunContext) -> None:
        """Called after the last day, before the run-end hooks fire."""


def _set_observed_day(telemetry: Telemetry | None, day: int) -> None:
    """Stamp the executing day onto the run's tracer (no-op when off).

    Interior spans (KM solve, CBS pruning, bandit predict/update) open
    during matcher calls, before any lifecycle event fires — so per-day
    attribution cannot come from hooks.  The loop marks the day on the
    tracer instead, and every span finished while it is set carries it
    (see :attr:`repro.obs.tracing.SpanRecord.day`).
    """
    if telemetry is not None:
        telemetry.tracer.day = day


def _telemetry_hooks(hooks: tuple, telemetry: Telemetry | None) -> tuple:
    """The auto-attached telemetry hook, if telemetry is on for this run.

    Imported lazily: :mod:`repro.obs.hook` depends on this module's event
    types, so a top-level import would be circular.  With telemetry off
    (the default) nothing is imported.
    """
    if telemetry is None:
        return ()
    from repro.obs.hook import TelemetryHook

    if any(isinstance(hook, TelemetryHook) for hook in hooks):
        return ()
    return (TelemetryHook(telemetry),)


def _check_hooks(hooks: tuple) -> tuple:
    """The auto-attached invariant hook, if runtime checks are on.

    Same lazy-import pattern as :func:`_telemetry_hooks`:
    :mod:`repro.check.hook` depends on this module's event types.  With
    checks off (the default) the cost is one ``sys.modules`` lookup per run.
    """
    from repro.check.hook import CheckHook
    from repro.check.runtime import current

    state = current()
    if state is None:
        return ()
    if any(isinstance(hook, CheckHook) for hook in hooks):
        return ()
    return (CheckHook(state),)
