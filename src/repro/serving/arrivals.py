"""Deterministic arrival process over a pre-generated request stream.

The paper buckets requests into preset time windows (Sec. III); the
serving mode needs the finer truth those buckets discard — *when inside
its window* each request arrived.  This module derives per-request
arrival timestamps from the existing :class:`~repro.simulation.requests.
RequestStream`: every window of the stream gets a seeded draw of
intra-window offsets, so all algorithms face the identical continuous
demand sequence, exactly as they already face the identical bucketed one.

Two rate profiles:

- ``"uniform"`` — arrivals spread evenly through each window (a Poisson
  process conditioned on the window's count);
- ``"bursty"`` — the intra-day ramp machinery of
  :func:`~repro.simulation.requests.generate_stream` (the
  ``value_multiplier`` formula ``1 + amplitude * (position - 0.5)``)
  reused as a *density shape*: the ramp position of a window sets the
  exponent that skews its arrival offsets, so morning windows cluster
  arrivals near the window close and evening windows near the window
  open — sustained quiet stretches punctuated by clumps, the regime
  where adaptive micro-batching pays.

Determinism discipline: offsets are drawn once per stream from a single
seeded generator, windows in flat order, and **sorted within each
window** — so arrival order equals stream-id order and a micro-batcher
flushing at window boundaries reproduces the batch day loop's row order
bit for bit.  Burstiness shapes the arrival *density*, never the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.requests import RequestStream

#: Supported arrival rate profiles.
PROFILES = ("uniform", "bursty")

#: Default virtual length of one platform window, in seconds.
DEFAULT_WINDOW_SECONDS = 60.0

#: Default burst amplitude; must stay in [0, 2) like the value ramp's.
DEFAULT_BURST_AMPLITUDE = 1.2


@dataclass(frozen=True)
class ArrivalSchedule:
    """Per-request arrival timestamps on a virtual serving timeline.

    Time zero is the opening of day 0's first window; day ``d`` spans
    ``[d * batches_per_day * window_seconds, (d+1) * ...)``.

    Attributes:
        window_seconds: virtual length of one platform window.
        num_days / batches_per_day: window geometry (copied from the stream).
        profile: the rate profile the offsets were drawn from.
        seed: the draw's seed.
        offsets: ``(|R|,)`` arrival offset of each request *within its own
            window*, sorted within every window (arrival order = id order).
        batch_offsets: the stream's flat-window index delimiters.
    """

    window_seconds: float
    num_days: int
    batches_per_day: int
    profile: str
    seed: int
    offsets: np.ndarray
    batch_offsets: np.ndarray

    def window_start(self, day: int, batch: int) -> float:
        """Opening time of window ``(day, batch)``."""
        return (day * self.batches_per_day + batch) * self.window_seconds

    def window_end(self, day: int, batch: int) -> float:
        """Closing time of window ``(day, batch)``."""
        return self.window_start(day, batch) + self.window_seconds

    def arrival_times(self, day: int, batch: int) -> np.ndarray:
        """Timestamps of the window's *scheduled* requests, in id order."""
        flat = day * self.batches_per_day + batch
        rows = slice(int(self.batch_offsets[flat]), int(self.batch_offsets[flat + 1]))
        return self.window_start(day, batch) + self.offsets[rows]

    def arrivals_for(self, day: int, batch: int, request_ids: np.ndarray) -> np.ndarray:
        """Timestamps aligned with a platform ``batch_requests`` id array.

        The platform appends appealed re-queues *after* the window's
        scheduled ids; those extras were already waiting when the window
        opened, so they arrive at the window start.  Scheduled ids keep
        their drawn offsets.
        """
        scheduled = self.arrival_times(day, batch)
        extras = len(request_ids) - scheduled.size
        if extras <= 0:
            return scheduled[: len(request_ids)]
        return np.concatenate(
            [scheduled, np.full(extras, self.window_start(day, batch))]
        )


def derive_arrivals(
    stream: RequestStream,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    profile: str = "uniform",
    seed: int = 0,
    burst_amplitude: float = DEFAULT_BURST_AMPLITUDE,
) -> ArrivalSchedule:
    """Derive a deterministic arrival schedule from a request stream.

    Args:
        stream: the pre-generated demand sequence.
        window_seconds: virtual length of one platform window (positive
            and finite).
        profile: ``"uniform"`` or ``"bursty"``.
        seed: seed of the intra-window offset draw.
        burst_amplitude: ramp amplitude of the bursty profile, in
            ``[0, 2)`` — the same constraint as the value ramp it reuses
            (amplitude 0 degenerates to uniform).

    Returns:
        The schedule; offsets are sorted within every window.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown arrival profile {profile!r} (known: {PROFILES})")
    if not 0.0 < window_seconds < np.inf:
        raise ValueError(
            f"window_seconds must be positive and finite, got {window_seconds}"
        )
    if not 0.0 <= burst_amplitude < 2.0:
        raise ValueError(
            f"burst_amplitude must be in [0, 2), got {burst_amplitude}"
        )
    rng = np.random.default_rng(seed)
    offsets = np.empty(stream.num_requests)
    batch_offsets = np.asarray(stream.offsets, dtype=int)
    num_windows = stream.num_days * stream.batches_per_day
    for flat in range(num_windows):
        start, stop = int(batch_offsets[flat]), int(batch_offsets[flat + 1])
        count = stop - start
        if count == 0:
            continue
        draw = rng.random(count)
        if profile == "bursty":
            # The value ramp's position/multiplier machinery, reused as a
            # density exponent: draw**shape with shape < 1 piles mass near
            # the window end, shape > 1 near the window open.
            batch = flat % stream.batches_per_day
            if stream.batches_per_day > 1:
                position = batch / (stream.batches_per_day - 1)
            else:
                position = 0.5
            shape = 1.0 + burst_amplitude * (position - 0.5)
            draw = draw**shape
        offsets[start:stop] = np.sort(draw) * window_seconds
    return ArrivalSchedule(
        window_seconds=float(window_seconds),
        num_days=stream.num_days,
        batches_per_day=stream.batches_per_day,
        profile=profile,
        seed=int(seed),
        offsets=offsets,
        batch_offsets=batch_offsets,
    )


__all__ = [
    "ArrivalSchedule",
    "DEFAULT_BURST_AMPLITUDE",
    "DEFAULT_WINDOW_SECONDS",
    "PROFILES",
    "derive_arrivals",
]
