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
``repro.obs`` distributions (``serving.queue_wait`` / ``serving.latency``)
with one ``observe_many`` call per micro-batch; their quantile sketches
answer p50/p95/p99.  Micro-batch sizes and flush reasons ride along
(``serving.microbatch_size``, ``serving.flushes``), and the
``serving.makespan`` / ``serving.throughput_rps`` gauges are set while the
run's algorithm label is still active.

A :class:`ServingSpec` is the same engine as plain data: set it as
:attr:`~repro.engine.spec.RunSpec.serving` and the run goes through the
executor like any batch run, with its report on ``RunResult.serving``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.loop import DayLoopEngine, RunContext
from repro.obs import telemetry as obs
from repro.obs.quantiles import REPORT_QUANTILES
from repro.serving.arrivals import (
    DEFAULT_BURST_AMPLITUDE,
    DEFAULT_WINDOW_SECONDS,
    ArrivalSchedule,
    derive_arrivals,
)
from repro.serving.microbatch import FLUSH_REASONS, LoadLevelingQueue, MicroBatchPolicy
from repro.state.protocol import expect, versioned

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.algorithms.base import Matcher
    from repro.engine.hooks import RunHook
    from repro.simulation.platform import RealEstatePlatform


@dataclass
class ServingReport:
    """Everything the serving engine measured over one run.

    The run's :class:`~repro.engine.hooks.RunResult` still comes from a
    :class:`~repro.engine.hooks.MetricsCollector` hook, exactly as in
    batch mode; this report adds the serving-only quantities (a serving
    :class:`~repro.engine.spec.RunSpec` puts it on ``RunResult.serving``).
    Plain data, so it crosses a process pool with the result.

    Attributes:
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
    _pending: dict | None = field(default=None, init=False, repr=False, compare=False)

    def run(
        self,
        platform: RealEstatePlatform,
        matcher: Matcher,
        hooks: Sequence[RunHook] | Iterable[RunHook] = (),
        start_day: int = 0,
    ) -> ServingReport:
        """Serve the horizon from ``start_day``, notifying ``hooks`` throughout.

        The report covers the days this call served, preceded by the days
        a :meth:`restore` reinstalled (how a resumed run reports its whole
        horizon).  Without a restore, a resumed run reports only its own
        days.
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
        if self._pending is not None:
            self._apply_restore(self._pending)
            self._pending = None
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
        obs.observe_many("serving.queue_wait", waits)
        obs.observe_many("serving.latency", latencies)
        obs.observe("serving.microbatch_size", float(micro.size))
        obs.add("serving.flushes", reason=micro.reason)
        obs.add("serving.requests", micro.size)

    def _finish(self, context: RunContext) -> None:
        waits = _concat(self._waits)
        self._report = report = ServingReport(
            profile=self.schedule.profile,
            window_seconds=self.schedule.window_seconds,
            policy=self.policy,
            requests=int(waits.size),
            micro_batches=len(self._sizes),
            flush_reasons=self._reasons,
            queue_waits=waits,
            latencies=_concat(self._latencies),
            batch_sizes=np.asarray(self._sizes, dtype=int),
            service_seconds=np.asarray(self._services, dtype=float),
            makespan=self._queue.last_completion,
        )
        # Set before the run-end hooks: the telemetry hook still carries
        # this run's algorithm label and has not made its final flush.
        obs.set_gauge("serving.makespan", report.makespan)
        obs.set_gauge("serving.throughput_rps", report.throughput_rps)

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of the report accumulated so far (queue included)."""
        return versioned(
            "serving.engine",
            {
                "queue_waits": _concat(self._waits),
                "latencies": _concat(self._latencies),
                "batch_sizes": np.asarray(self._sizes, dtype=int),
                "service_seconds": np.asarray(self._services, dtype=float),
                "flush_reasons": dict(self._reasons),
                "last_completion": self._queue.last_completion,
            },
        )

    def restore(self, state) -> None:
        """Stash the snapshot; :meth:`run` applies it after zeroing the report."""
        self._pending = expect(state, "serving.engine")

    def _apply_restore(self, payload: dict) -> None:
        self._waits = [np.array(payload["queue_waits"], dtype=float)]
        self._latencies = [np.array(payload["latencies"], dtype=float)]
        self._sizes = [int(size) for size in payload["batch_sizes"]]
        self._services = [float(seconds) for seconds in payload["service_seconds"]]
        self._reasons.update(payload["flush_reasons"])
        self._queue.last_completion = float(payload["last_completion"])


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(frozen=True)
class ServingSpec:
    """Recipe for a serving run as plain, picklable data.

    Set as :attr:`~repro.engine.spec.RunSpec.serving` to serve that run's
    windows as arrival events instead of whole batches.

    Attributes:
        window_seconds: virtual length of one platform window.
        profile: intra-window arrival profile (``"uniform"`` / ``"bursty"``).
        arrival_seed: seed of the intra-window arrival draw.
        burst_amplitude: bursty-profile amplitude in ``[0, 2)``.
        max_wait: micro-batch max wait in virtual seconds; ``None`` means
            the window length, i.e. the paper's fixed windows.
        max_size: close a micro-batch at this many requests (``None`` =
            unbounded).
    """

    window_seconds: float = DEFAULT_WINDOW_SECONDS
    profile: str = "uniform"
    arrival_seed: int = 0
    burst_amplitude: float = DEFAULT_BURST_AMPLITUDE
    max_wait: float | None = None
    max_size: int | None = None

    @property
    def policy(self) -> MicroBatchPolicy:
        """The micro-batch closing policy this recipe describes."""
        max_wait = self.window_seconds if self.max_wait is None else self.max_wait
        return MicroBatchPolicy(max_wait=max_wait, max_size=self.max_size)

    def build(self, platform: RealEstatePlatform) -> ServingEngine:
        """The engine serving ``platform``'s request stream under this recipe."""
        schedule = derive_arrivals(
            platform.stream,
            window_seconds=self.window_seconds,
            profile=self.profile,
            seed=self.arrival_seed,
            burst_amplitude=self.burst_amplitude,
        )
        return ServingEngine(policy=self.policy, schedule=schedule)


__all__ = ["REPORT_QUANTILES", "ServingEngine", "ServingReport", "ServingSpec"]
