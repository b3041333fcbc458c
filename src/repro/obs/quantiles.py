"""Mergeable quantile sketches: log-bucketed, bounded relative error.

:class:`QuantileSketch` is a zero-dependency DDSketch/HDR-style sketch:
values land in geometrically spaced buckets ``(gamma^(i-1), gamma^i]``
with ``gamma = (1 + alpha) / (1 - alpha)``, so any reported quantile is
within relative error ``alpha`` of an exact order statistic (for values
inside the trackable range).  Memory is ``O(log(max/min) / alpha)`` —
a few hundred buckets even for nanoseconds-to-hours data.

It is also the metrics registry's one distribution type, and so the
percentile half of the registry's cross-process merge guarantee: bucket
counts are integers (merge is exact and order-independent) and the float
``sum`` folds in caller-controlled order, so a ``jobs=N`` run's merged
sketch — and therefore its p50/p95/p99 — is bit-for-bit equal to the
``jobs=1`` run's.  Quantile *queries* are pure functions of the bucket
counts: two sketches with equal state return equal quantiles, always.

Edge values:

- ``0`` and magnitudes below :data:`MIN_TRACKABLE` share an exact zero
  bucket (durations and counts hit 0 routinely);
- negative values are tracked in mirrored buckets with the same bound;
- magnitudes above :data:`MAX_TRACKABLE` (including infinities) clamp to
  the outermost bucket — ``min``/``max`` keep the true extremes;
- ``NaN`` observations are counted separately and excluded from
  quantiles (one NaN must not poison every percentile of a series).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

#: Default relative accuracy: reported quantiles are within 1%.
DEFAULT_ALPHA = 0.01

#: Magnitudes at or below this are exactly zero for bucketing purposes.
MIN_TRACKABLE = 1e-12

#: Magnitudes above this clamp to the outermost bucket (keeps bucket
#: indices bounded even for ``inf`` observations).
MAX_TRACKABLE = 1e15

#: The percentiles surfaced by reports and exporters.
REPORT_QUANTILES = (0.5, 0.95, 0.99)


class QuantileSketch:
    """Log-bucketed quantile sketch with exact, order-independent merge.

    This is also the metrics registry's distribution type
    (:meth:`~repro.obs.metrics.MetricsRegistry.distribution`).

    Args:
        alpha: relative accuracy bound of reported quantiles; two sketches
            merge only when their ``alpha`` matches exactly.
    """

    kind = "distribution"
    __slots__ = ("alpha", "_gamma", "_inv_log_gamma", "count", "sum",
                 "min", "max", "zero", "nan", "pos", "neg")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._inv_log_gamma = 1.0 / math.log(self._gamma)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero = 0
        self.nan = 0
        #: Sparse bucket counts, keyed by index ``i`` covering
        #: ``(gamma^(i-1), gamma^i]`` (``neg`` indexes the magnitude).
        self.pos: dict[int, int] = {}
        self.neg: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _index(self, magnitude: float) -> int:
        if magnitude > MAX_TRACKABLE:
            magnitude = MAX_TRACKABLE
        return math.ceil(math.log(magnitude) * self._inv_log_gamma)

    def observe(self, value: float) -> None:
        """Fold one observation in (``NaN`` counted but never bucketed)."""
        value = float(value)
        if value != value:  # NaN
            self.nan += 1
            self.count += 1
            return
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if -MIN_TRACKABLE <= value <= MIN_TRACKABLE:
            self.zero += 1
        elif value > 0:
            index = self._index(value)
            self.pos[index] = self.pos.get(index, 0) + 1
        else:
            index = self._index(-value)
            self.neg[index] = self.neg.get(index, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch in, exactly as :meth:`observe` on each value in order."""
        for value in values:
            self.observe(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _bucket_value(self, index: int) -> float:
        # Midpoint (harmonic) representative: guarantees the alpha bound
        # on both edges of the bucket.
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (relative error <= ``alpha``).

        Deterministic: a pure function of the bucket counts, clamped to
        the observed ``[min, max]``.  Returns ``nan`` when the sketch has
        no non-NaN observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count - self.nan
        if total <= 0:
            return math.nan
        # The extremes are tracked exactly; report them exactly (also what
        # clamps every interior estimate into the observed range).
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (total - 1)
        cumulative = 0
        # Ascending value order: most negative first (descending magnitude
        # index), then zero, then positive ascending.
        for index in sorted(self.neg, reverse=True):
            cumulative += self.neg[index]
            if cumulative > rank:
                return self._clamp(-self._bucket_value(index))
        cumulative += self.zero
        if cumulative > rank:
            return self._clamp(0.0)
        for index in sorted(self.pos):
            cumulative += self.pos[index]
            if cumulative > rank:
                return self._clamp(self._bucket_value(index))
        return self.max

    def quantiles(self, qs: Iterable[float] = REPORT_QUANTILES) -> tuple[float, ...]:
        """Several quantiles at once (defaults to the reporting trio)."""
        return tuple(self.quantile(q) for q in qs)

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    # ------------------------------------------------------------------
    # Merge and codec
    # ------------------------------------------------------------------
    def merge(self, other: QuantileSketch) -> None:
        """Fold another sketch in; bucket-count merge is exact."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha: "
                f"{self.alpha} vs {other.alpha}"
            )
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.zero += other.zero
        self.nan += other.nan
        for index, bucket_count in other.pos.items():
            self.pos[index] = self.pos.get(index, 0) + bucket_count
        for index, bucket_count in other.neg.items():
            self.neg[index] = self.neg.get(index, 0) + bucket_count

    def state(self) -> dict:
        """Plain-data dump (sorted bucket lists, JSON-safe)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "nan": self.nan,
            "pos": [[index, self.pos[index]] for index in sorted(self.pos)],
            "neg": [[index, self.neg[index]] for index in sorted(self.neg)],
        }

    def load(self, state: Mapping) -> None:
        self.alpha = float(state["alpha"])
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._inv_log_gamma = 1.0 / math.log(self._gamma)
        self.count = int(state["count"])
        self.sum = float(state["sum"])
        self.min = float(state["min"])
        self.max = float(state["max"])
        self.zero = int(state["zero"])
        self.nan = int(state["nan"])
        self.pos = {int(index): int(count) for index, count in state["pos"]}
        self.neg = {int(index): int(count) for index, count in state["neg"]}

    @classmethod
    def from_state(cls, state: Mapping) -> QuantileSketch:
        sketch = cls(alpha=float(state["alpha"]))
        sketch.load(state)
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self.pos) + len(self.neg)})"
        )
