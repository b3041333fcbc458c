"""Lifecycle hooks: composable observers of the day-loop engine.

A :class:`RunHook` receives the engine's lifecycle events.  The built-ins
cover everything the old monolithic runner hard-coded — result
accumulation (:class:`MetricsCollector`, which also keeps the assignment
log and day outcomes on request) and decision-time accounting
(:class:`DecisionTimer`).  Custom hooks subclass :class:`RunHook` and
override only the events they care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.types import Assignment, DayOutcome
from repro.engine.loop import BatchAssignedEvent, DayEndEvent, DayStartEvent, RunContext
from repro.state.protocol import StateError, expect, versioned

if TYPE_CHECKING:  # repro.serving imports the engine; typing only
    from repro.serving import ServingReport


@dataclass
class RunResult:
    """Everything measured over one algorithm's run on one instance.

    Attributes:
        algorithm: the matcher's display name.
        total_realized_utility: sum of workload-degraded realized utility
            over all brokers and days — the paper's "total utility" axis.
        total_predicted_utility: sum of input utilities over matched pairs
            (the objective of Eq. 1; useful to contrast with realized).
        daily_utility: ``(days,)`` realized utility per day.
        broker_utility: ``(|B|,)`` realized utility per broker over the run.
        broker_workload: ``(|B|,)`` mean daily workload per broker.
        broker_peak_workload: ``(|B|,)`` max daily workload per broker.
        broker_signup: ``(|B|,)`` mean daily sign-up rate over served days.
        decision_time: seconds spent inside the matcher (the paper's
            running-time axis measures algorithm time, not environment time).
        daily_decision_time: ``(days,)`` per-day matcher seconds.
        num_assigned: total matched request count.
        outcomes: the raw day outcomes (kept only when requested).
        assignments: the per-pair assignment log (kept only when requested;
            the raw material for trace export and utility-model training).
        serving: the :class:`~repro.serving.ServingReport` of a serving
            run spec (``None`` for batch runs).
    """

    algorithm: str
    total_realized_utility: float
    total_predicted_utility: float
    daily_utility: np.ndarray
    broker_utility: np.ndarray
    broker_workload: np.ndarray
    broker_peak_workload: np.ndarray
    broker_signup: np.ndarray
    decision_time: float
    daily_decision_time: np.ndarray
    num_assigned: int
    outcomes: list[DayOutcome] = field(default_factory=list)
    assignments: list[Assignment] = field(default_factory=list)
    serving: ServingReport | None = None


class RunHook:
    """Base observer of the day-loop lifecycle; every method is a no-op.

    Subclasses override the events they need.  Hooks are notified in
    registration order; they must treat event payloads as read-only and
    must not re-time matcher work (the engine's ``matcher_seconds`` is the
    single source of truth for decision time).
    """

    def on_run_start(self, context: RunContext) -> None:
        """The platform was reset and the horizon is about to start."""

    def on_day_start(self, event: DayStartEvent) -> None:
        """``matcher.begin_day`` returned for ``event.day``."""

    def on_batch_assigned(self, event: BatchAssignedEvent) -> None:
        """One batch assignment was produced and submitted."""

    def on_day_end(self, event: DayEndEvent) -> None:
        """``matcher.end_day`` consumed the day's realized feedback."""

    def on_run_end(self, context: RunContext) -> None:
        """The whole horizon finished."""

    def on_run_abort(self, context: RunContext) -> None:
        """The run raised after ``on_run_start``; the error propagates next.

        Fires instead of :meth:`on_run_end`, so a hook can undo what it
        scoped to the run (process-wide labels, sessions) on every exit.
        """


class DecisionTimer(RunHook):
    """Accumulates the engine-measured matcher seconds, per day and total.

    This is the canonical decision-time accountant: it only ever sums the
    ``matcher_seconds`` the engine measured around ``begin_day`` /
    ``assign_batch`` / ``end_day``, so environment time (request sampling,
    ``predicted_utilities``, outcome realization) is excluded by
    construction.
    """

    def __init__(self) -> None:
        self.daily_seconds: np.ndarray = np.zeros(0)
        self._pending_restore: np.ndarray | None = None

    def on_run_start(self, context: RunContext) -> None:
        self.daily_seconds = np.zeros(context.num_days)
        if self._pending_restore is not None:
            if self._pending_restore.shape != self.daily_seconds.shape:
                raise StateError(
                    f"timer snapshot covers {self._pending_restore.size} days, "
                    f"this run has {context.num_days}"
                )
            self.daily_seconds = self._pending_restore.copy()
            self._pending_restore = None

    def on_day_start(self, event: DayStartEvent) -> None:
        self.daily_seconds[event.day] += event.matcher_seconds

    def on_batch_assigned(self, event: BatchAssignedEvent) -> None:
        self.daily_seconds[event.day] += event.matcher_seconds

    def on_day_end(self, event: DayEndEvent) -> None:
        self.daily_seconds[event.day] += event.matcher_seconds

    @property
    def total_seconds(self) -> float:
        """Matcher seconds summed over the horizon."""
        return float(self.daily_seconds.sum())

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of the per-day accumulators."""
        return versioned(
            "engine.decision_timer", {"daily_seconds": self.daily_seconds.copy()}
        )

    def restore(self, state) -> None:
        """Stash the snapshot; it is applied inside the next ``on_run_start``.

        The engine zeroes every hook's accumulators at run start, so a
        restore applied eagerly would be wiped.  Stash-then-apply lets a
        resumed run initialize on the run's real shape and *then* reload
        the completed days' totals.
        """
        payload = expect(state, "engine.decision_timer")
        self._pending_restore = np.array(payload["daily_seconds"], dtype=float)


class MetricsCollector(RunHook):
    """Reproduces the classic :class:`RunResult` as a composable observer.

    Owns a :class:`DecisionTimer` internally (exposed as ``timer``) so the
    result's decision-time fields come from the canonical accountant.

    Args:
        store_outcomes: keep the raw :class:`~repro.core.types.DayOutcome`
            objects on the result.
        store_assignments: keep the per-batch assignment log on the result.
    """

    def __init__(self, store_outcomes: bool = False, store_assignments: bool = False) -> None:
        self.store_outcomes = store_outcomes
        self.store_assignments = store_assignments
        self.timer = DecisionTimer()
        self._result: RunResult | None = None
        self._pending_restore: dict | None = None

    def on_run_start(self, context: RunContext) -> None:
        self.timer.on_run_start(context)
        self._result = None
        self._num_days = context.num_days
        self._daily_utility = np.zeros(context.num_days)
        self._broker_utility = np.zeros(context.num_brokers)
        self._workload_sum = np.zeros(context.num_brokers)
        self._workload_peak = np.zeros(context.num_brokers)
        self._signup_sum = np.zeros(context.num_brokers)
        self._signup_days = np.zeros(context.num_brokers)
        self._predicted_total = 0.0
        self._num_assigned = 0
        self._outcomes: list[DayOutcome] = []
        self._assignments: list[Assignment] = []
        if self._pending_restore is not None:
            self._apply_restore(self._pending_restore, context)
            self._pending_restore = None

    def _apply_restore(self, payload: dict, context: RunContext) -> None:
        daily_utility = np.array(payload["daily_utility"], dtype=float)
        broker_utility = np.array(payload["broker_utility"], dtype=float)
        if daily_utility.shape != (context.num_days,) or broker_utility.shape != (
            context.num_brokers,
        ):
            raise StateError(
                f"collector snapshot shape ({daily_utility.size} days, "
                f"{broker_utility.size} brokers) does not match the run "
                f"({context.num_days} days, {context.num_brokers} brokers)"
            )
        self._daily_utility = daily_utility
        self._broker_utility = broker_utility
        self._workload_sum = np.array(payload["workload_sum"], dtype=float)
        self._workload_peak = np.array(payload["workload_peak"], dtype=float)
        self._signup_sum = np.array(payload["signup_sum"], dtype=float)
        self._signup_days = np.array(payload["signup_days"], dtype=float)
        self._predicted_total = float(payload["predicted_total"])
        self._num_assigned = int(payload["num_assigned"])
        self._outcomes = [DayOutcome.from_state(s) for s in payload["outcomes"]]
        self._assignments = [Assignment.from_state(s) for s in payload["assignments"]]

    def on_day_start(self, event: DayStartEvent) -> None:
        self.timer.on_day_start(event)

    def on_batch_assigned(self, event: BatchAssignedEvent) -> None:
        self.timer.on_batch_assigned(event)
        self._predicted_total += event.assignment.predicted_utility
        self._num_assigned += len(event.assignment)
        if self.store_assignments:
            self._assignments.append(event.assignment)

    def on_day_end(self, event: DayEndEvent) -> None:
        self.timer.on_day_end(event)
        outcome = event.outcome
        self._daily_utility[event.day] = outcome.total_realized_utility
        self._broker_utility += outcome.realized_utility
        self._workload_sum += outcome.workloads
        self._workload_peak = np.maximum(self._workload_peak, outcome.workloads)
        served = outcome.workloads > 0
        self._signup_sum[served] += outcome.signup_rates[served]
        self._signup_days += served
        if self.store_outcomes:
            self._outcomes.append(outcome)

    def on_run_end(self, context: RunContext) -> None:
        with np.errstate(invalid="ignore"):
            broker_signup = np.where(
                self._signup_days > 0, self._signup_sum / np.maximum(self._signup_days, 1), 0.0
            )
        self._result = RunResult(
            algorithm=context.matcher.name,
            total_realized_utility=float(self._daily_utility.sum()),
            total_predicted_utility=float(self._predicted_total),
            daily_utility=self._daily_utility,
            broker_utility=self._broker_utility,
            broker_workload=self._workload_sum / self._num_days,
            broker_peak_workload=self._workload_peak,
            broker_signup=broker_signup,
            decision_time=self.timer.total_seconds,
            daily_decision_time=self.timer.daily_seconds,
            num_assigned=self._num_assigned,
            outcomes=self._outcomes,
            assignments=self._assignments,
        )

    @property
    def result(self) -> RunResult:
        """The finished run's result; raises if the run has not completed."""
        if self._result is None:
            raise RuntimeError("MetricsCollector has no result: the run has not completed")
        return self._result

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of every accumulator (timer included)."""
        return versioned(
            "engine.metrics_collector",
            {
                "timer": self.timer.snapshot(),
                "daily_utility": self._daily_utility.copy(),
                "broker_utility": self._broker_utility.copy(),
                "workload_sum": self._workload_sum.copy(),
                "workload_peak": self._workload_peak.copy(),
                "signup_sum": self._signup_sum.copy(),
                "signup_days": self._signup_days.copy(),
                "predicted_total": float(self._predicted_total),
                "num_assigned": int(self._num_assigned),
                "outcomes": [outcome.to_state() for outcome in self._outcomes],
                "assignments": [a.to_state() for a in self._assignments],
            },
        )

    def restore(self, state) -> None:
        """Stash the snapshot; applied inside the next ``on_run_start``.

        Same rationale as :meth:`DecisionTimer.restore`: the engine zeroes
        accumulators at run start, so the completed days' totals are
        reloaded right after that initialization.
        """
        payload = expect(state, "engine.metrics_collector")
        self.timer.restore(payload["timer"])
        self._pending_restore = payload
