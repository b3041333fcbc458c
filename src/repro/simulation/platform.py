"""The real-estate platform environment.

This is the counterpart of the paper's "simulator of Beike" (Sec. VII-A):
it reveals broker working-status contexts and the deployed utility model's
predictions, executes whatever assignment an algorithm submits, and then
realizes the day's outcomes — workload-degraded utilities and per-broker
sign-up rates — which feed the bandit as rewards.

The environment is deliberately *reactive*: daily contexts include fatigue
and recent-workload features that depend on past assignments, so different
matchers steer the same city into different states, while the underlying
population, request stream and utility predictions stay identical across
algorithms (fair comparison on the same instance).
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Assignment, DayOutcome
from repro.simulation.brokers import BrokerPopulation
from repro.simulation.requests import RequestStream
from repro.simulation.utility import ground_truth_affinity, predicted_utility
from repro.state.protocol import (
    StateError,
    expect,
    rng_state,
    set_rng_state,
    versioned,
)

#: Number of dynamic working-status features appended to the static profile.
DYNAMIC_CONTEXT_DIM = 7

#: Maximum fraction of capacity lost to accumulated fatigue.
FATIGUE_CAPACITY_LOSS = 0.35

#: Amplitude of the weekly seasonality on effective capacity.
SEASONAL_AMPLITUDE = 0.08

#: Workload normalizer used inside dynamic context features.
WORKLOAD_NORM = 60.0


class RealEstatePlatform:
    """Environment for one city over a fixed horizon of days.

    The protocol per day is::

        contexts = platform.start_day(day)
        for batch in range(platform.batches_per_day):
            requests = platform.batch_requests(day, batch)
            utilities = platform.predicted_utilities(requests)
            platform.submit_assignment(assignment)
        outcome = platform.finish_day()

    Args:
        population: the city's broker pool.
        stream: the city's request stream.
        seed: seed of the outcome-realization noise.
        appeal_rate: probability scale for client appeals (Sec. VI-B note):
            an appealed request restores the broker's workload, zeroes that
            pair's utility and is re-queued in the next interval.
        signup_noise: observation-noise std on daily sign-up rates.
        skill_growth: learning-by-doing rate (0 disables the dynamics).
            When positive, serving requests moves a broker's quality toward
            its potential — the mechanism behind the paper's Matthew-effect
            argument ("neglected brokers have few opportunities to improve
            their skills"): a matching policy that starves rookies freezes
            them below their ceiling.
    """

    def __init__(
        self,
        population: BrokerPopulation,
        stream: RequestStream,
        seed: int = 0,
        appeal_rate: float = 0.0,
        signup_noise: float = 0.02,
        skill_growth: float = 0.0,
    ) -> None:
        if not 0.0 <= appeal_rate < 1.0:
            raise ValueError(f"appeal_rate must be in [0, 1), got {appeal_rate}")
        if skill_growth < 0.0:
            raise ValueError(f"skill_growth must be non-negative, got {skill_growth}")
        self.population = population
        self.stream = stream
        self.appeal_rate = appeal_rate
        self.signup_noise = signup_noise
        self.skill_growth = skill_growth
        self._initial_quality = population.base_quality.copy()
        self._seed = seed
        # Per-broker response-curve parameter arrays for vectorized realization.
        self._curve_ramp = np.array([c.ramp for c in population.curves])
        self._curve_decay = np.array([c.decay for c in population.curves])
        self._curve_sharpness = np.array([c.sharpness for c in population.curves])
        self.reset()

    # ------------------------------------------------------------------
    # Static shape accessors
    # ------------------------------------------------------------------
    @property
    def num_brokers(self) -> int:
        """Pool size ``|B|``."""
        return self.population.num_brokers

    @property
    def num_days(self) -> int:
        """Horizon length in days."""
        return self.stream.num_days

    @property
    def batches_per_day(self) -> int:
        """Fixed time windows per day."""
        return self.stream.batches_per_day

    @property
    def context_dim(self) -> int:
        """Dimension of the working-status context ``x_b``."""
        return self.population.context_dim + DYNAMIC_CONTEXT_DIM

    @property
    def latent_capacities(self) -> np.ndarray:
        """Ground-truth latent capacities (for evaluation only)."""
        return self.population.latent_capacity

    @property
    def today_capacity(self) -> np.ndarray:
        """The current day's *effective* capacities (for evaluation only).

        Unlike :meth:`effective_capacity`, which recomputes from the
        *current* fatigue state, this is the vector the open (or most
        recently closed) day actually used — after ``finish_day()`` has
        already evolved fatigue, recomputing would disagree with the
        day's realized outcome.  Quality telemetry reads this at day
        boundaries; algorithms never see it.
        """
        return self._today_capacity

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore pristine dynamic state (same instance, fresh history)."""
        n = self.num_brokers
        self.population.base_quality[:] = self._initial_quality
        self._rng = np.random.default_rng(self._seed)
        self._fatigue = np.zeros(n)
        self._yesterday_workload = np.zeros(n)
        self._recent_workloads = np.zeros((n, 7))
        self._last_signup = np.zeros(n)
        self._total_served = np.zeros(n)
        self._today_workload = np.zeros(n, dtype=int)
        self._today_affinity = np.zeros(n)
        self._today_capacity = self.population.latent_capacity.copy()
        self._current_day = -1
        self._day_open = False
        self._requeued: dict[int, list[int]] = {}
        self._blocked_pairs: dict[int, set[int]] = {}

    def start_day(self, day: int) -> np.ndarray:
        """Open a day and return the ``(|B|, d)`` working-status contexts.

        Days must be visited in order starting from 0.
        """
        if self._day_open:
            raise RuntimeError("finish_day() must be called before starting a new day")
        if day != self._current_day + 1:
            raise RuntimeError(f"days must be visited in order; expected {self._current_day + 1}, got {day}")
        if day >= self.num_days:
            raise IndexError(f"day {day} beyond horizon of {self.num_days}")
        self._current_day = day
        self._day_open = True
        self._today_workload = np.zeros(self.num_brokers, dtype=int)
        self._today_affinity = np.zeros(self.num_brokers)
        self._today_capacity = self.effective_capacity(day)
        return self._contexts(day)

    def effective_capacity(self, day: int) -> np.ndarray:
        """Today's effective capacities: latent, shrunk by fatigue, seasonal.

        Ground truth — revealed to algorithms only through realized rewards.
        """
        season = np.sin(2.0 * np.pi * day / 7.0)
        modifier = (1.0 - FATIGUE_CAPACITY_LOSS * self._fatigue) * (
            1.0 + SEASONAL_AMPLITUDE * season
        )
        return np.maximum(self.population.latent_capacity * modifier, 1.0)

    def _contexts(self, day: int) -> np.ndarray:
        """Assemble static-plus-dynamic working-status contexts."""
        dynamic = np.column_stack(
            [
                self._fatigue,
                np.full(self.num_brokers, np.sin(2.0 * np.pi * day / 7.0)),
                np.full(self.num_brokers, np.cos(2.0 * np.pi * day / 7.0)),
                self._yesterday_workload / WORKLOAD_NORM,
                self._recent_workloads.mean(axis=1) / WORKLOAD_NORM,
                self._last_signup,
                self._total_served / (WORKLOAD_NORM * max(self.num_days, 1)),
            ]
        )
        return np.hstack([self.population.static_context, dynamic])

    # ------------------------------------------------------------------
    # Within-day protocol
    # ------------------------------------------------------------------
    def batch_requests(self, day: int, batch: int) -> np.ndarray:
        """Request indices of a batch, including any appealed re-queues."""
        self._require_open(day)
        indices = self.stream.batch_indices(day, batch)
        requeued = self._requeued.pop(batch, None)
        if requeued:
            indices = np.concatenate([indices, np.asarray(requeued, dtype=int)])
        return indices

    def predicted_utilities(self, request_indices: np.ndarray) -> np.ndarray:
        """Deployed-model utilities ``u_{r,b}`` for a batch of requests."""
        request_indices = np.asarray(request_indices, dtype=int)
        utilities = predicted_utility(self.population, self.stream, request_indices)
        if self._blocked_pairs:
            blocked = [
                (row, broker)
                for row, request_id in enumerate(request_indices.tolist())
                for broker in self._blocked_pairs.get(request_id, ())
            ]
            if blocked:
                rows, brokers = zip(*blocked)
                utilities[list(rows), list(brokers)] = 0.0
        return utilities

    def submit_assignment(self, assignment: Assignment) -> None:
        """Execute a batch assignment: serve requests, sample appeals."""
        self._require_open(assignment.day)
        if not 0 <= assignment.batch < self.batches_per_day:
            raise IndexError(f"batch {assignment.batch} out of range")
        if not assignment.pairs:
            return
        request_ids = np.array([pair.request_id for pair in assignment.pairs], dtype=int)
        broker_ids = np.array([pair.broker_id for pair in assignment.pairs], dtype=int)

        if self.appeal_rate > 0.0:
            # A client's appeal propensity scales with how much worse the
            # assigned broker fits than the best broker available for that
            # request (Sec. VI-B's dissatisfaction mechanism), so appeals
            # need each request's whole affinity row.
            affinity = ground_truth_affinity(self.population, self.stream, request_ids)
            pair_affinity = affinity[np.arange(len(request_ids)), broker_ids]
            row_best = affinity.max(axis=1)
            appeal_prob = self.appeal_rate * (1.0 - pair_affinity / row_best)
            appealed = self._rng.random(len(request_ids)) < appeal_prob
        else:
            pair_affinity = ground_truth_affinity(
                self.population, self.stream, request_ids, broker_ids
            )
            appealed = np.zeros(len(request_ids), dtype=bool)

        served = ~appealed
        np.add.at(self._today_workload, broker_ids[served], 1)
        np.add.at(self._today_affinity, broker_ids[served], pair_affinity[served])

        next_batch = assignment.batch + 1
        for request_id, broker_id in zip(request_ids[appealed], broker_ids[appealed]):
            self._blocked_pairs.setdefault(int(request_id), set()).add(int(broker_id))
            if next_batch < self.batches_per_day:
                self._requeued.setdefault(next_batch, []).append(int(request_id))

    def finish_day(self) -> DayOutcome:
        """Close the day: realize degraded utilities and sign-up rates."""
        if not self._day_open:
            raise RuntimeError("no day is open")
        day = self._current_day
        workload = self._today_workload.astype(float)
        multiplier = self._quality(workload, self._today_capacity)
        realized = self._today_affinity * multiplier
        signup = np.zeros(self.num_brokers)
        served = workload > 0
        signup[served] = realized[served] / workload[served]
        signup += self._rng.normal(0.0, self.signup_noise, size=self.num_brokers)
        signup = np.clip(signup, 0.0, 1.0)
        signup[~served] = 0.0

        # Learning by doing: practice closes the gap to potential quality
        # (sub-linear in daily volume — the tenth request of the day
        # teaches less than the first).
        if self.skill_growth > 0.0:
            practice = np.sqrt(np.minimum(workload, 25.0))
            gap = self.population.potential_quality - self.population.base_quality
            self.population.base_quality += self.skill_growth * practice * np.maximum(gap, 0.0)

        # Dynamic-state evolution feeding tomorrow's contexts.
        overshoot = np.maximum(workload - self._today_capacity, 0.0) / self._today_capacity
        self._fatigue = np.clip(0.65 * self._fatigue + 0.5 * np.minimum(overshoot, 1.0), 0.0, 1.0)
        self._yesterday_workload = workload
        self._recent_workloads = np.roll(self._recent_workloads, -1, axis=1)
        self._recent_workloads[:, -1] = workload
        self._last_signup = signup
        self._total_served += workload
        self._day_open = False
        self._requeued.clear()

        return DayOutcome(
            day=day,
            workloads=workload.astype(int),
            signup_rates=signup,
            realized_utility=realized,
        )

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of every dynamic environment variable.

        Covers the evolving population quality (skill growth mutates it),
        the outcome-realization RNG, all fatigue/workload/sign-up history,
        the open-day scratch state, the appeal re-queues and the
        *cross-day* blocked pairs — everything :meth:`reset` re-creates.
        Static instance data (curves, stream, static contexts) is identity,
        not state: it is rebuilt from the spec on resume.
        """
        return versioned(
            "simulation.platform",
            {
                "base_quality": self.population.base_quality.copy(),
                "rng": rng_state(self._rng),
                "fatigue": self._fatigue.copy(),
                "yesterday_workload": self._yesterday_workload.copy(),
                "recent_workloads": self._recent_workloads.copy(),
                "last_signup": self._last_signup.copy(),
                "total_served": self._total_served.copy(),
                "today_workload": self._today_workload.copy(),
                "today_affinity": self._today_affinity.copy(),
                "today_capacity": self._today_capacity.copy(),
                "current_day": int(self._current_day),
                "day_open": bool(self._day_open),
                "requeued": {
                    batch: list(ids) for batch, ids in self._requeued.items()
                },
                "blocked_pairs": {
                    request: set(brokers)
                    for request, brokers in self._blocked_pairs.items()
                },
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot`; the RNG is restored in place."""
        payload = expect(state, "simulation.platform")
        fatigue = np.asarray(payload["fatigue"], dtype=float)
        if fatigue.shape != (self.num_brokers,):
            raise StateError(
                f"platform snapshot is for {fatigue.size} brokers, "
                f"this instance has {self.num_brokers}"
            )
        self.population.base_quality[:] = np.asarray(
            payload["base_quality"], dtype=float
        )
        set_rng_state(self._rng, payload["rng"])
        self._fatigue = fatigue.copy()
        self._yesterday_workload = np.array(payload["yesterday_workload"], dtype=float)
        self._recent_workloads = np.array(payload["recent_workloads"], dtype=float)
        self._last_signup = np.array(payload["last_signup"], dtype=float)
        self._total_served = np.array(payload["total_served"], dtype=float)
        self._today_workload = np.array(payload["today_workload"], dtype=int)
        self._today_affinity = np.array(payload["today_affinity"], dtype=float)
        self._today_capacity = np.array(payload["today_capacity"], dtype=float)
        self._current_day = int(payload["current_day"])
        self._day_open = bool(payload["day_open"])
        self._requeued = {
            int(batch): [int(i) for i in ids]
            for batch, ids in payload["requeued"].items()
        }
        self._blocked_pairs = {
            int(request): {int(b) for b in brokers}
            for request, brokers in payload["blocked_pairs"].items()
        }

    # ------------------------------------------------------------------
    # Ground-truth probes (evaluation and the motivation study)
    # ------------------------------------------------------------------
    def signup_rate_curve(self, broker_id: int, workloads: np.ndarray) -> np.ndarray:
        """Expected sign-up rate of one broker as a function of workload."""
        curve = self.population.curves[broker_id]
        return self.population.base_quality[broker_id] * np.asarray(
            curve.quality(np.asarray(workloads, dtype=float))
        )

    def _quality(self, workload: np.ndarray, capacity: np.ndarray) -> np.ndarray:
        """Vectorized response-curve multiplier across the whole pool."""
        below = 1.0 - self._curve_ramp * np.square(
            1.0 - np.minimum(workload, capacity) / capacity
        )
        overshoot = np.maximum(workload - capacity, 0.0) / capacity
        above = 1.0 / (1.0 + self._curve_decay * overshoot**self._curve_sharpness)
        return below * above

    def _require_open(self, day: int) -> None:
        if not self._day_open or day != self._current_day:
            raise RuntimeError(f"day {day} is not the open day ({self._current_day}, open={self._day_open})")
