"""Value Function Guided Assignment — Alg. 2 (Sec. VI-B).

Per batch, VFGA:

1. restricts matching to the available brokers ``B+ = {b : w_b < c_b}``
   (line 5),
2. refines each candidate edge's utility with the capacity-aware value
   function for top brokers whose capacity-hit frequency exceeds ``delta``
   (Eq. 15, line 6),
3. optionally prunes the broker side with Candidate Broker Selection
   (Alg. 3) — the LACB-Opt acceleration,
4. runs Kuhn-Munkres on the (pruned) refined graph (line 7),
5. books workloads and TD-updates the value function (lines 8-10).

The class is deliberately estimator-agnostic: any capacity vector can be
fed to :meth:`begin_day`, which is how LACB, LACB-Opt, AN (all
:class:`~repro.algorithms.lacb.LACBMatcher` configurations) and the
oracle-capacity skyline share this machinery.  CTop-K does not use it: it
recommends under one fixed city-level capacity.  VFGA draws no randomness.
"""

from __future__ import annotations

import numpy as np

from repro.check import invariants as check_invariants
from repro.check import runtime as check_runtime
from repro.core.config import AssignmentConfig
from repro.core.selection import select_candidate_brokers
from repro.core.types import AssignedPair, Assignment
from repro.core.value_function import CapacityAwareValueFunction
from repro.matching import solve_assignment
from repro.obs import audit as obs_audit
from repro.obs import telemetry as obs
from repro.state.protocol import StateError, expect, versioned

#: Tiny positive utility keeping refined edges matchable: Eq. 15 may push a
#: low-utility edge negative, but an available broker is still preferable to
#: leaving the client unserved.
MIN_REFINED_UTILITY = 1e-6


class ValueFunctionGuidedAssigner:
    """Stateful per-day driver of Alg. 2.

    Args:
        num_brokers: pool size ``|B|``.
        config: assignment hyper-parameters (``beta``, ``gamma``, ``delta``,
            CBS and value-function switches).
        batches_per_day: the platform's fixed time windows per day (at
            least 1); batch ``i`` sits at ``i / batches_per_day`` on the
            value function's time axis.
        max_capacity_state: largest residual capacity the value table tracks.
    """

    def __init__(
        self,
        num_brokers: int,
        config: AssignmentConfig,
        *,
        batches_per_day: int,
        max_capacity_state: int = 200,
    ) -> None:
        if int(batches_per_day) < 1:
            raise ValueError(f"batches_per_day must be >= 1, got {batches_per_day}")
        self.num_brokers = num_brokers
        self.config = config
        self.value_function = CapacityAwareValueFunction(
            max_state=max_capacity_state,
            learning_rate=config.learning_rate,
            discount=config.discount,
        )
        self.batches_per_day = int(batches_per_day)
        self.capacities = np.zeros(num_brokers)
        self.workloads = np.zeros(num_brokers, dtype=int)
        self._capacity_hits = np.zeros(num_brokers)
        self._days_seen = 0

    # ------------------------------------------------------------------
    # Day lifecycle
    # ------------------------------------------------------------------
    def begin_day(self, capacities: np.ndarray) -> None:
        """Install today's estimated capacities ``c_b`` and reset workloads."""
        capacities = np.asarray(capacities, dtype=float)
        if capacities.shape != (self.num_brokers,):
            raise ValueError(
                f"expected capacities of shape ({self.num_brokers},), got {capacities.shape}"
            )
        self.capacities = capacities
        self.workloads = np.zeros(self.num_brokers, dtype=int)

    def end_day(self) -> None:
        """Book capacity hits into ``f_b`` and settle the value function.

        Two pieces of end-of-day bookkeeping:

        1. The capacity-hit frequency ``f_b`` gains today's observation.
        2. *Terminal* TD updates: a broker's unused residual capacity
           expires worthless at day end.  Without this, the TD chain of
           Eq. 14 converges to ``V(cr) = u + gamma V(cr - 1)`` — as if
           reserved capacity always converts later — and the Eq. 15
           refinement then overcharges every edge by a full average
           utility, leaving top brokers systematically under-used.
        """
        self._capacity_hits += self.workloads >= np.maximum(self.capacities, 1.0)
        self._days_seen += 1
        if self.config.use_value_function:
            residuals = self.capacities - self.workloads
            for residual in residuals[residuals >= 1.0]:
                self.value_function.expire_day_end(float(residual))

    @property
    def capacity_hit_frequency(self) -> np.ndarray:
        """``f_b`` — fraction of past days each broker reached capacity."""
        if self._days_seen == 0:
            return np.zeros(self.num_brokers)
        return self._capacity_hits / self._days_seen

    # ------------------------------------------------------------------
    # Per-batch assignment (Alg. 2 lines 4-10)
    # ------------------------------------------------------------------
    def available_brokers(self) -> np.ndarray:
        """``B+`` — brokers with residual capacity today (line 5)."""
        return np.nonzero(self.workloads < self.capacities)[0]

    def assign_batch(
        self,
        day: int,
        batch: int,
        request_ids: np.ndarray,
        utilities: np.ndarray,
    ) -> Assignment:
        """Match one batch of requests against the available brokers.

        Args:
            day / batch: interval coordinates (bookkeeping only).
            request_ids: global ids of the batch's requests.
            utilities: ``(|R_batch|, |B|)`` predicted utilities ``u_{r,b}``.

        Returns:
            The batch assignment ``M^(i)``; workloads and the value function
            are updated as a side effect.
        """
        request_ids = np.asarray(request_ids, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        if utilities.shape != (request_ids.size, self.num_brokers):
            raise ValueError(
                f"utilities shape {utilities.shape} does not match "
                f"({request_ids.size}, {self.num_brokers})"
            )
        assignment = Assignment(day=day, batch=batch)
        if request_ids.size == 0:
            return assignment
        available = self.available_brokers()
        if available.size == 0:
            return assignment
        # Decision provenance (repro.obs.audit): pure observation — no RNG,
        # no result change; `trail` is None unless an audit session is
        # active *and* this batch is sampled.
        session = obs_audit.current()
        trail = session.begin_batch(day, batch) if session is not None else None
        if trail is not None:
            trail.requests = int(request_ids.size)
            trail.available = int(available.size)

        candidate_utilities = utilities.take(available, axis=1)
        precbs_utilities = candidate_utilities
        kept_columns: np.ndarray | None = None
        if self.config.use_cbs and available.size > request_ids.size:
            before = available.size
            with obs.span("matching.cbs_prune"):
                local = select_candidate_brokers(candidate_utilities, int(request_ids.size))
            kept_columns = local
            available = available[local]
            candidate_utilities = candidate_utilities.take(local, axis=1)
            pruned_ratio = 1.0 - available.size / before
            obs.set_gauge("cbs.pruned_broker_ratio", pruned_ratio)
            obs.observe("cbs.pruned_broker_ratio_hist", pruned_ratio)
            if trail is not None:
                trail.kept = int(available.size)
                trail.pruned_ratio = float(pruned_ratio)

        time_fraction = self._time_fraction(batch)
        next_fraction = self._time_fraction(batch + 1)
        with obs.span("vfga.refine"):
            refined = self._refine(candidate_utilities, available, time_fraction)
        match = solve_assignment(refined)
        self._oracle_checks(day, batch, precbs_utilities, kept_columns, refined, match)

        alt_orders = None
        if trail is not None and match.pairs:
            # One stable argsort for the whole batch's matched rows — the
            # per-decision runner-up walk then only reads precomputed order.
            top_alts = session.config.top_alternatives
            if top_alts > 0 and refined.shape[1] > 1:
                matched_rows = [row for row, _col in match.pairs]
                alt_orders = np.argsort(-refined[matched_rows], axis=1, kind="stable")
        with obs.span("vfga.td_update"):
            for pair_index, (row, col) in enumerate(match.pairs):
                broker = int(available[col])
                raw_utility = float(utilities[row, broker])
                residual = float(self.capacities[broker] - self.workloads[broker])
                if trail is not None:
                    trail.add_decision(
                        int(request_ids[row]),
                        broker,
                        raw_utility,
                        float(refined[row, col]),
                        residual,
                        float(self.capacities[broker]),
                        int(self.workloads[broker]),
                        self._alternatives(
                            None if alt_orders is None else alt_orders[pair_index],
                            row, col, refined, candidate_utilities, available,
                            session.config.top_alternatives,
                        ),
                    )
                self.workloads[broker] += 1
                if self.config.use_value_function:
                    self.value_function.td_update(
                        time_fraction, residual, raw_utility, next_fraction, residual - 1.0
                    )
                assignment.pairs.append(
                    AssignedPair(int(request_ids[row]), broker, raw_utility)
                )
        if self.config.use_value_function:
            obs.add("vfga.td_updates", len(match.pairs))
        if trail is not None:
            session.commit_batch(trail)
        return assignment

    @staticmethod
    def _alternatives(
        order_row: np.ndarray | None,
        row: int,
        col: int,
        refined: np.ndarray,
        raw: np.ndarray,
        available: np.ndarray,
        top: int,
    ) -> list[tuple[int, float, float]]:
        """The realized edge's runners-up: top brokers by refined value.

        Deterministic (stable sort, index tie-break) and allocation-light —
        only runs for audited pairs, and ``order_row`` comes from one
        batch-level argsort rather than a per-decision sort.  Returns
        ``(broker id, refined, raw)`` triples in descending refined order,
        the chosen column excluded.
        """
        if order_row is None or top <= 0:
            return []
        alternatives: list[tuple[int, float, float]] = []
        for j in order_row:
            j = int(j)
            if j == col:
                continue
            alternatives.append(
                (int(available[j]), float(refined[row, j]), float(raw[row, j]))
            )
            if len(alternatives) >= top:
                break
        return alternatives

    #: Days of history required before the capacity-hit frequency ``f_b``
    #: is trusted (after one day it is degenerately 0 or 1).
    MIN_FREQUENCY_DAYS = 3

    def _time_fraction(self, batch: int) -> float:
        """Position of a batch within the day on the value function's axis."""
        return batch / self.batches_per_day

    def _oracle_checks(
        self,
        day: int,
        batch: int,
        precbs_utilities: np.ndarray,
        kept_columns: np.ndarray | None,
        refined: np.ndarray,
        match,
    ) -> None:
        """Sampled solver-oracle spot checks (KM optimality, Theorem 2).

        Pure observation: runs only while process-wide checks are enabled
        (:mod:`repro.check.runtime`), samples deterministically off a
        counter, and consumes no randomness — results are bit-for-bit
        identical with checks on or off.
        """
        state = check_runtime.current()
        if state is None or not state.sample_solver():
            return
        with obs.span("check.solver_oracle"):
            state.record_all(
                check_invariants.check_km_optimality(refined, match, day=day, batch=batch)
            )
            state.count()
            if kept_columns is not None:
                state.record_all(
                    check_invariants.check_cbs_preservation(
                        precbs_utilities, kept_columns, day=day, batch=batch
                    )
                )
                state.count()

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of all day-spanning assignment state."""
        return versioned(
            "core.vfga",
            {
                "value_function": self.value_function.snapshot(),
                "capacities": self.capacities.copy(),
                "workloads": self.workloads.copy(),
                "capacity_hits": self._capacity_hits.copy(),
                "days_seen": int(self._days_seen),
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` into this assigner."""
        payload = expect(state, "core.vfga")
        workloads = np.asarray(payload["workloads"], dtype=int)
        if workloads.shape != (self.num_brokers,):
            raise StateError(
                f"VFGA snapshot is for {workloads.size} brokers, "
                f"this assigner has {self.num_brokers}"
            )
        self.value_function.restore(payload["value_function"])
        self.capacities = np.array(payload["capacities"], dtype=float)
        self.workloads = workloads.copy()
        self._capacity_hits = np.array(payload["capacity_hits"], dtype=float)
        self._days_seen = int(payload["days_seen"])
        # Older snapshots may carry entries of retired options, all ignored:
        # ``rng`` (CBS never drew from it; a matcher's generator is restored
        # by its bandit), ``incremental_solver`` (warm-started KM; it only
        # memoized solves that are bit-identical cold) and the inferred time
        # axis's ``max_batch_seen`` / ``frozen_batches`` / ``pending_td``
        # (every run built by RunSpec or make_matcher passed
        # batches_per_day, so the count was never read and the other two
        # hold None / []).

    def _refine(
        self, utilities: np.ndarray, broker_ids: np.ndarray, time_fraction: float
    ) -> np.ndarray:
        """Eq. 15: value-refined utilities for frequently capped brokers."""
        if not self.config.use_value_function:
            return utilities
        if self._days_seen < self.MIN_FREQUENCY_DAYS:
            return utilities
        frequency = self.capacity_hit_frequency[broker_ids]
        top_mask = frequency > self.config.threshold
        if not np.any(top_mask):
            return utilities
        residuals = self.capacities[broker_ids] - self.workloads[broker_ids]
        adjustment = self.value_function.refinement_batch(time_fraction, residuals)
        refined = utilities.copy()
        refined[:, top_mask] = np.maximum(
            refined[:, top_mask] + adjustment[top_mask][None, :],
            MIN_REFINED_UTILITY,
        )
        return refined
