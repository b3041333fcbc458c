"""Capacity-aware value function (Sec. VI-B).

The batched assignment is modeled as an MDP whose per-broker state is the
residual capacity ``cr``.  The paper defines ``V(i, cr)`` — "the expected
utility of the broker after batch i, where cr is the broker's residue
capacity" — learned online by the temporal-difference rule of Eq. 14:

    V(cr) <- V(cr) + beta * (u + gamma * V(cr') - V(cr))

and consumed by the utility refinement of Eq. 15, which charges an edge the
opportunity cost ``gamma * V(cr - 1) - V(cr)`` of spending one unit of a
top broker's scarce residual capacity.

The *time* index matters: one unit of a top broker's capacity is expensive
in the morning (many valuable batches remain) and worthless in the last
batch of the day.  States are therefore ``(time bucket, capacity bucket)``
pairs; the row past the final time bucket is pinned at zero (capacity left
at the end of a day expires worthless), which is what calibrates the
refinement between "reserve for later" and "use it or lose it".

Both axes are bucketed: per-integer states receive too few, too-noisy TD
updates for the Eq. 15 *difference* of neighbouring values to carry signal.
"""

from __future__ import annotations

import numpy as np

from repro.state.protocol import StateError, expect, versioned


class CapacityAwareValueFunction:
    """Tabular ``V`` over (time-of-day, residual-capacity) buckets.

    Args:
        max_state: largest representable residual capacity; states above it
            are clamped (their marginal value is indistinguishable anyway).
        learning_rate: TD step size ``beta`` (paper default 0.25).
        discount: TD discount ``gamma`` (paper default 0.9).
        bucket_size: residual capacities per capacity bucket.
        time_buckets: within-day time resolution.
    """

    def __init__(
        self,
        max_state: int = 200,
        learning_rate: float = 0.25,
        discount: float = 0.9,
        bucket_size: int = 5,
        time_buckets: int = 8,
    ) -> None:
        if max_state <= 0:
            raise ValueError(f"max_state must be positive, got {max_state}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 <= discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {discount}")
        if bucket_size <= 0 or time_buckets <= 0:
            raise ValueError("bucket_size and time_buckets must be positive")
        self.max_state = max_state
        self.learning_rate = learning_rate
        self.discount = discount
        self.bucket_size = bucket_size
        self.time_buckets = time_buckets
        # Row `time_buckets` is the terminal row, pinned at zero: residual
        # capacity expires worthless at the end of the day.
        self._table = np.zeros((time_buckets + 1, max_state // bucket_size + 1))
        self.num_updates = 0

    # ------------------------------------------------------------------
    # State indexing
    # ------------------------------------------------------------------
    # Scalar ``min``/``max`` rather than ``np.clip``: these run once per TD
    # update, where ``np.clip``'s array dispatch costs ~10x the arithmetic.
    # The indices are identical, and NaN/inf raise the same exceptions
    # (``round`` raises before the clamp; ``int(nan)`` after it).
    def _capacity_state(self, residual_capacity: float) -> int:
        clamped = min(max(round(residual_capacity), 0), self.max_state)
        return int(clamped) // self.bucket_size

    def _time_state(self, time_fraction: float) -> int:
        if time_fraction >= 1.0:
            return self.time_buckets  # terminal (zero) row
        return int(max(time_fraction, 0.0) * self.time_buckets)

    def value(self, time_fraction: float, residual_capacity: float) -> float:
        """``V(i, cr)`` with clamping to the representable state grid."""
        return float(
            self._table[self._time_state(time_fraction), self._capacity_state(residual_capacity)]
        )

    # ------------------------------------------------------------------
    # Learning (Eq. 14)
    # ------------------------------------------------------------------
    def td_update(
        self,
        time_fraction: float,
        residual_capacity: float,
        reward: float,
        next_time_fraction: float,
        next_residual: float,
    ) -> None:
        """One TD step for a broker that served a request.

        ``V(i, cr) += beta * (u + gamma * V(i', cr') - V(i, cr))`` where
        ``(i', cr')`` is the successor state.  Transitions into
        ``next_time_fraction >= 1`` bootstrap from the zero terminal row.
        """
        time_state = self._time_state(time_fraction)
        if time_state >= self.time_buckets:
            return  # terminal states hold no value by definition
        cap_state = self._capacity_state(residual_capacity)
        target = reward + self.discount * self._table[
            self._time_state(next_time_fraction), self._capacity_state(next_residual)
        ]
        self._table[time_state, cap_state] += self.learning_rate * (
            target - self._table[time_state, cap_state]
        )
        self.num_updates += 1

    def expire_day_end(self, residual_capacity: float) -> None:
        """Terminal update: unused residual capacity expired worthless.

        Pulls the *late-day* value of the expired state toward zero so the
        TD chain learns that capacity cannot be hoarded across days.
        """
        last = self.time_buckets - 1
        cap_state = self._capacity_state(residual_capacity)
        self._table[last, cap_state] += self.learning_rate * (
            0.0 - self._table[last, cap_state]
        )
        self.num_updates += 1

    # ------------------------------------------------------------------
    # Refinement (Eq. 15)
    # ------------------------------------------------------------------
    def refinement(self, time_fraction: float, residual_capacity: float) -> float:
        """The Eq. 15 adjustment: the marginal cost ``V(i, cr-1) - V(i, cr)``.

        Eq. 15 writes ``gamma * V(cr') - V(cr)``, but with a *time-indexed*
        value function the within-day horizon is already encoded by the
        terminal row, and re-applying ``gamma`` adds a ``-(1-gamma) V``
        leak proportional to the value's absolute level — an order of
        magnitude larger than the marginal value of one capacity unit,
        which locks frequently-capped brokers out of matching entirely.
        The pure marginal is the intended opportunity cost: negative when
        one capacity unit carries future value (morning, top broker), zero
        late in the day.  Clamped at zero — spending capacity can never
        *increase* future value, so a positive difference is noise.
        """
        time_state = self._time_state(time_fraction)
        if time_state >= self.time_buckets:
            return 0.0
        current = self._capacity_state(residual_capacity)
        after = self._capacity_state(residual_capacity - 1)
        row = self._table[time_state]
        return min(float(row[after] - row[current]), 0.0)

    def refinement_batch(
        self, time_fraction: float, residual_capacities: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`refinement` over many brokers."""
        time_state = self._time_state(time_fraction)
        residuals = np.asarray(residual_capacities, dtype=float)
        if time_state >= self.time_buckets:
            return np.zeros(residuals.shape)
        states = (
            np.clip(np.round(residuals).astype(int), 0, self.max_state) // self.bucket_size
        )
        after = (
            np.clip(np.round(residuals - 1).astype(int), 0, self.max_state)
            // self.bucket_size
        )
        row = self._table[time_state]
        return np.minimum(row[after] - row[states], 0.0)

    def table(self) -> np.ndarray:
        """A copy of the current value table (for analysis/plots)."""
        return self._table.copy()

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of the value table and update counter."""
        return versioned(
            "core.value_function",
            {"table": self._table.copy(), "num_updates": int(self.num_updates)},
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot`; bucketing must match exactly."""
        payload = expect(state, "core.value_function")
        table = np.array(payload["table"], dtype=float)
        if table.shape != self._table.shape:
            raise StateError(
                f"value-function snapshot table shape {table.shape} does not "
                f"match this function's {self._table.shape} (bucketing changed?)"
            )
        self._table = table
        self.num_updates = int(payload["num_updates"])
