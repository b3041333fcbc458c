"""Adaptive micro-batching: max-wait + max-size closing over arrival events.

The paper's interval is a constant; here it becomes a *policy*.  A
:class:`MicroBatchPolicy` closes a forming micro-batch when the oldest
queued request has waited ``max_wait`` virtual seconds, when the batch
reaches ``max_size`` requests (load-adaptive: bursts close batches early,
quiet stretches wait out the clock), or when the platform window ends —
micro-batches never span windows, because utilities and the value-function
time axis are per-window quantities.

Two properties the rest of the serving stack leans on:

- **Degeneracy**: ``max_wait >= window_seconds`` with unbounded size
  yields exactly one micro-batch per window, closed at the window
  boundary — today's fixed windows, which
  ``tests/serving/test_equivalence.py`` proves bit-identical to the
  batch day loop.
- **Determinism**: splitting is a pure function of the arrival
  timestamps and the policy — service times never feed back into batch
  composition, so assignments stay machine-independent even though
  measured latencies are not.

The :class:`LoadLevelingQueue` is the queue-based load-leveling stage
between the batcher and the solver: a single-server FIFO on the virtual
timeline whose service durations are the *measured* solver seconds, so
completion latencies exhibit real saturation behavior (waits explode as
offered load approaches service capacity) without the backlog ever
influencing which requests share a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Close reasons, in the order they are checked.
FLUSH_REASONS = ("max_size", "max_wait", "boundary")


@dataclass(frozen=True)
class MicroBatch:
    """One closed micro-batch: a row range of the window's arrival order.

    Attributes:
        start / stop: half-open row range into the window's
            arrival-ordered request array.
        close_time: virtual timestamp the batch closed at.
        reason: which rule closed it (``"max_size"`` / ``"max_wait"`` /
            ``"boundary"``).
    """

    start: int
    stop: int
    close_time: float
    reason: str

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class MicroBatchPolicy:
    """Max-wait + max-size micro-batch closing policy.

    Args:
        max_wait: virtual seconds the *first* request of a forming batch
            may wait before the batch closes (``inf`` = close at the
            window boundary; NaN is rejected).
        max_size: close as soon as the batch holds this many requests
            (``None`` = unbounded).
    """

    max_wait: float
    max_size: int | None = None

    def __post_init__(self) -> None:
        # ``not >`` also rejects NaN; ``inf`` stays valid ("close at the boundary").
        if not self.max_wait > 0.0:
            raise ValueError(f"max_wait must be positive, got {self.max_wait}")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")

    @classmethod
    def boundary(cls, window_seconds: float) -> MicroBatchPolicy:
        """The degenerate policy reproducing the paper's fixed windows."""
        return cls(max_wait=float(window_seconds), max_size=None)

    def split(self, arrivals: np.ndarray, window_end: float) -> list[MicroBatch]:
        """Split one window's sorted arrival timestamps into micro-batches.

        Args:
            arrivals: the window's arrival timestamps, non-decreasing.
            window_end: the window's closing time; every batch closes at
                or before it regardless of ``max_wait``.

        Returns:
            Contiguous micro-batches covering ``[0, len(arrivals))``.
        """
        batches: list[MicroBatch] = []
        n = len(arrivals)
        i = 0
        while i < n:
            start = i
            deadline = min(float(arrivals[start]) + self.max_wait, window_end)
            i += 1
            while (
                i < n
                and arrivals[i] <= deadline
                and (self.max_size is None or i - start < self.max_size)
            ):
                i += 1
            if self.max_size is not None and i - start >= self.max_size:
                # Full the instant its last member arrived: waiting out the
                # deadline would add latency with no chance of more members.
                close, reason = float(arrivals[i - 1]), "max_size"
            elif deadline < window_end:
                close, reason = deadline, "max_wait"
            else:
                close, reason = window_end, "boundary"
            batches.append(MicroBatch(start=start, stop=i, close_time=close, reason=reason))
        return batches


class LoadLevelingQueue:
    """Single-server FIFO between micro-batcher and solver (virtual time).

    Closed micro-batches queue here; each is served for its *measured*
    solver duration.  ``admit`` returns the batch's service start and
    completion timestamps, from which per-request end-to-end latency
    (completion minus arrival) follows.
    """

    def __init__(self) -> None:
        #: Completion time of the last admitted batch (the server is free
        #: from then on).
        self.last_completion = 0.0

    def admit(self, ready_time: float, service_seconds: float) -> tuple[float, float]:
        """Queue one closed batch; returns ``(service_start, completion)``."""
        if service_seconds < 0.0:
            raise ValueError(f"service_seconds must be >= 0, got {service_seconds}")
        start = max(float(ready_time), self.last_completion)
        completion = start + float(service_seconds)
        self.last_completion = completion
        return start, completion


__all__ = [
    "FLUSH_REASONS",
    "LoadLevelingQueue",
    "MicroBatch",
    "MicroBatchPolicy",
]
