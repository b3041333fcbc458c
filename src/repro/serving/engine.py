"""ServingEngine: the day loop with windows served as arrival events.

:class:`~repro.engine.loop.DayLoopEngine` runs the serving mode too; this
subclass only changes how a platform window reaches the matcher.  It
replays the window's requests as *arrival events* (see
:mod:`repro.serving.arrivals`), cuts them into micro-batches with an
adaptive policy (:mod:`repro.serving.microbatch`), and books each served
micro-batch into a load-leveling queue.  The day loop, the hooks, the
timing seam and resume via ``start_day`` are the base engine's, so every
existing hook (metrics collection, telemetry, runtime checks,
checkpointing) composes unchanged.  Each micro-batch is one fresh solve
over its own new requests, as in the batch loop: consecutive micro-batches
share no rows, so there is no solver state worth carrying between them.

Latency accounting happens on two clocks, deliberately kept apart:

- **virtual time** drives arrivals and batch closing — micro-batch
  composition is a pure function of the schedule and the policy, so
  assignments are bit-identical across machines and runs;
- **measured time** (the engine's matcher clock) provides each
  micro-batch's service duration, which the
  :class:`~repro.serving.microbatch.LoadLevelingQueue` folds back onto
  the virtual timeline: completion = service start + measured seconds.
  Queue waits are therefore deterministic; end-to-end latencies carry
  real solver cost and saturate like a real server.

Per-request queue wait and end-to-end latency are recorded into
``repro.obs`` histograms (``serving.queue_wait`` / ``serving.latency``),
whose embedded quantile sketches answer p50/p95/p99; micro-batch sizes and
flush reasons ride along (``serving.microbatch_size``,
``serving.flushes``), and the ``serving.makespan`` /
``serving.throughput_rps`` gauges are set while the run's algorithm label
is still active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.loop import DayLoopEngine, RunContext
from repro.obs import telemetry as obs
from repro.serving.arrivals import ArrivalSchedule
from repro.serving.microbatch import FLUSH_REASONS, LoadLevelingQueue, MicroBatchPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.algorithms.base import Matcher
    from repro.engine.hooks import RunHook
    from repro.simulation.platform import RealEstatePlatform

#: Histogram boundaries for virtual-time waits/latencies (sub-second
#: micro-batch waits through minute-scale saturated backlogs).
WAIT_BOUNDARIES = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Report quantiles, matching the repo-wide sketch convention.
REPORT_QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class ServingReport:
    """Everything the serving engine measured over one run.

    The run's :class:`~repro.engine.hooks.RunResult` still comes from a
    :class:`~repro.engine.hooks.MetricsCollector` hook, exactly as in
    batch mode; this report adds the serving-only quantities.

    Attributes:
        context: the run's context (as handed to every hook).
        profile / window_seconds / policy: the serving configuration.
        requests: total request events served.
        micro_batches: micro-batches flushed.
        flush_reasons: count per close reason (max_size/max_wait/boundary).
        queue_waits: ``(requests,)`` virtual seconds from arrival to batch
            close, in service order (deterministic).
        latencies: ``(requests,)`` virtual seconds from arrival to service
            completion (carries measured solver time).
        batch_sizes: ``(micro_batches,)`` requests per micro-batch.
        service_seconds: ``(micro_batches,)`` measured solver seconds.
        makespan: virtual completion time of the last micro-batch.
    """

    context: RunContext
    profile: str
    window_seconds: float
    policy: MicroBatchPolicy
    requests: int
    micro_batches: int
    flush_reasons: dict[str, int]
    queue_waits: np.ndarray
    latencies: np.ndarray
    batch_sizes: np.ndarray
    service_seconds: np.ndarray
    makespan: float

    @property
    def throughput_rps(self) -> float:
        """Requests per virtual second over the run's makespan."""
        return self.requests / self.makespan if self.makespan > 0 else 0.0

    def wait_quantiles(self) -> tuple[float, float, float]:
        """p50/p95/p99 of the deterministic queueing wait."""
        return self._quantiles(self.queue_waits)

    def latency_quantiles(self) -> tuple[float, float, float]:
        """p50/p95/p99 of end-to-end latency (includes measured service)."""
        return self._quantiles(self.latencies)

    @staticmethod
    def _quantiles(values: np.ndarray) -> tuple[float, float, float]:
        if values.size == 0:
            return (0.0, 0.0, 0.0)
        p50, p95, p99 = np.quantile(values, REPORT_QUANTILES)
        return (float(p50), float(p95), float(p99))


@dataclass(kw_only=True)
class ServingEngine(DayLoopEngine):
    """The day loop serving each window as adaptive micro-batches.

    Attributes:
        policy: the micro-batch closing policy.
            :meth:`MicroBatchPolicy.boundary` reproduces fixed windows.
        schedule: the arrival schedule; must match the platform's window
            geometry (derive it with
            :func:`~repro.serving.arrivals.derive_arrivals`).
        clock: inherited matcher clock (the same timing seam as the day
            loop: only ``begin_day`` / ``assign_batch`` / ``end_day`` are
            measured).
    """

    policy: MicroBatchPolicy
    schedule: ArrivalSchedule

    def run(
        self,
        platform: RealEstatePlatform,
        matcher: Matcher,
        hooks: Sequence[RunHook] | Iterable[RunHook] = (),
        start_day: int = 0,
    ) -> ServingReport:
        """Serve the horizon from ``start_day``, notifying ``hooks`` throughout.

        A resumed run (``start_day > 0``) reports only the days it served:
        the queue starts empty, which no decision depends on.
        """
        schedule = self.schedule
        if (
            schedule.num_days != platform.num_days
            or schedule.batches_per_day != platform.batches_per_day
        ):
            raise ValueError(
                f"arrival schedule geometry ({schedule.num_days} days x "
                f"{schedule.batches_per_day} windows) does not match the "
                f"platform ({platform.num_days} x {platform.batches_per_day})"
            )
        self._queue = LoadLevelingQueue()
        self._waits: list[np.ndarray] = []
        self._latencies: list[np.ndarray] = []
        self._sizes: list[int] = []
        self._services: list[float] = []
        self._reasons = dict.fromkeys(FLUSH_REASONS, 0)
        super().run(platform, matcher, hooks, start_day)
        return self._report

    def _split(
        self, day: int, batch: int, request_ids: np.ndarray
    ) -> Iterator[np.ndarray]:
        times = self.schedule.arrivals_for(day, batch, request_ids)
        # Stable sort: appealed re-queues (arriving at window open) move to
        # the front; without appeals this is the identity, which is what
        # boundary-flush bit-identity rests on.
        order = np.argsort(times, kind="stable")
        ids = request_ids[order]
        times = times[order]
        for micro in self.policy.split(times, self.schedule.window_end(day, batch)):
            self._micro = micro, times[micro.start : micro.stop]
            yield ids[micro.start : micro.stop]

    def _served(self, seconds: float) -> None:
        micro, times = self._micro
        _service_start, completion = self._queue.admit(micro.close_time, seconds)
        waits = micro.close_time - times
        latencies = completion - times
        self._waits.append(waits)
        self._latencies.append(latencies)
        self._sizes.append(micro.size)
        self._services.append(seconds)
        self._reasons[micro.reason] += 1
        if not obs.enabled():
            return
        for wait, latency in zip(waits, latencies):
            obs.observe("serving.queue_wait", float(wait), boundaries=WAIT_BOUNDARIES)
            obs.observe("serving.latency", float(latency), boundaries=WAIT_BOUNDARIES)
        obs.observe("serving.microbatch_size", float(micro.size))
        obs.add("serving.flushes", reason=micro.reason)
        obs.add("serving.requests", micro.size)

    def _finish(self, context: RunContext) -> None:
        waits = np.concatenate(self._waits) if self._waits else np.zeros(0)
        self._report = report = ServingReport(
            context=context,
            profile=self.schedule.profile,
            window_seconds=self.schedule.window_seconds,
            policy=self.policy,
            requests=int(waits.size),
            micro_batches=len(self._sizes),
            flush_reasons=self._reasons,
            queue_waits=waits,
            latencies=np.concatenate(self._latencies) if self._latencies else np.zeros(0),
            batch_sizes=np.asarray(self._sizes, dtype=int),
            service_seconds=np.asarray(self._services),
            makespan=self._queue.last_completion,
        )
        # Set before the run-end hooks: the telemetry hook still carries
        # this run's algorithm label and has not made its final flush.
        obs.set_gauge("serving.makespan", report.makespan)
        obs.set_gauge("serving.throughput_rps", report.throughput_rps)


__all__ = ["REPORT_QUANTILES", "WAIT_BOUNDARIES", "ServingEngine", "ServingReport"]
