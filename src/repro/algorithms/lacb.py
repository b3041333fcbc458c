"""LACB and LACB-Opt — the paper's proposed matchers (Fig. 5, Alg. 1-3).

LACB couples

- *capacity estimation*: a shared NN-enhanced UCB bandit (Alg. 1) whose
  reward head is fine-tuned per broker by layer transfer (Sec. V-D), with
- *capacity-based assignment*: Value Function Guided Assignment (Alg. 2),
  per-batch KM over value-refined utilities (Eq. 15) under the estimated
  capacities, TD-training the capacity-aware value function (Eq. 14).

LACB-Opt is the same matcher with Candidate Broker Selection (Alg. 3)
switched on, shrinking each batch's bipartite graph from ``|B|`` to at most
``|R| ** 2`` candidate edges before KM runs.

The AN baseline (Sec. VII-A) is the same matcher with both of LACB's
additions switched off: ``LACBConfig(personalize=False)`` leaves one shared
NeuralUCB bandit, and ``AssignmentConfig(use_value_function=False)`` reduces
Alg. 2 to capacity-capped per-batch KM
(:func:`~repro.algorithms.registry.make_matcher` builds it under the name
``"AN"``).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.algorithms.base import Matcher
from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
from repro.core.config import LACBConfig
from repro.core.types import Assignment, DayOutcome
from repro.core.vfga import ValueFunctionGuidedAssigner
from repro.obs import telemetry as obs
from repro.state.protocol import StateError, expect, versioned

#: Snapshot kind AN checkpoints carried while AN was a separate matcher
#: class: ``{"bandit", "assigner"}``, restored as an ``"AN"`` LACB matcher.
LEGACY_AN_KIND = "algorithms.neural_assign"


class LACBMatcher(Matcher):
    """Learned Assignment with Contextual Bandits.

    Args:
        context_dim: working-status context dimension.
        num_brokers: pool size.
        rng: randomness source of the bandit (the assigner draws none).
        config: full LACB configuration; paper defaults when omitted.
            ``config.assignment.use_cbs = True`` yields LACB-Opt;
            ``personalize=False`` with ``use_value_function=False`` is AN.
        batches_per_day: the platform's fixed time windows per day (the
            value function's time axis).
    """

    one_to_one = True

    def __init__(
        self,
        context_dim: int,
        num_brokers: int,
        rng: np.random.Generator,
        config: LACBConfig | None = None,
        *,
        batches_per_day: int,
    ) -> None:
        self.config = config or LACBConfig()
        self.name = "LACB-Opt" if self.config.assignment.use_cbs else "LACB"
        base = NNUCBBandit(context_dim, self.config.bandit, rng)
        if self.config.personalize:
            self.estimator: NNUCBBandit | PersonalizedCapacityEstimator = (
                PersonalizedCapacityEstimator(base)
            )
        else:
            self.estimator = base
        self.assigner = ValueFunctionGuidedAssigner(
            num_brokers, self.config.assignment, batches_per_day=batches_per_day
        )

    # ------------------------------------------------------------------
    # Matcher protocol
    # ------------------------------------------------------------------
    def begin_day(self, day: int, contexts: np.ndarray) -> None:
        """Alg. 2 lines 1-2: estimate every broker's capacity for the day."""
        with obs.span("bandit.predict"):
            capacities = self.estimator.estimate_batch(contexts)
        self.assigner.begin_day(capacities)

    def assign_batch(
        self,
        day: int,
        batch: int,
        request_ids: np.ndarray,
        utilities: np.ndarray,
    ) -> Assignment:
        """Alg. 2 lines 4-10 (with Alg. 3 pruning when CBS is on)."""
        return self.assigner.assign_batch(day, batch, request_ids, utilities)

    def end_day(self, day: int, outcome: DayOutcome, contexts: np.ndarray) -> None:
        """Alg. 2 lines 15-17: feed trial triples back into the bandits.

        The bandit reward is the broker's realized daily sign-up rate
        (Sec. V-B) — the service-quality signal whose curve peaks at the
        broker's accustomed workload (Fig. 2/3).  Maximizing the broker's
        *total* accrued utility instead is an externality trap: an
        overloaded top broker still accumulates more personal utility than
        a capped one while destroying system-wide value.

        Personalization starts after ``warmup_days`` so broker-specific
        heads are fine-tuned only once a few private triples exist.
        """
        with obs.span("vfga.end_day"):
            self.assigner.end_day()
        served = np.nonzero(outcome.workloads > 0)[0]
        personalize_now = (
            self.config.personalize and day >= self.config.warmup_days
        )
        with obs.span("bandit.update"):
            for broker_id in served:
                routing_id = (
                    int(broker_id)
                    if personalize_now or not self.config.personalize
                    else None
                )
                self.estimator.update(
                    contexts[broker_id],
                    float(outcome.workloads[broker_id]),
                    float(outcome.signup_rates[broker_id]),
                    routing_id,
                    capacity=float(self.assigner.capacities[broker_id]),
                )

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot: estimator + assigner.

        The bandit's generator is the matcher's only randomness (the
        assigner draws none); its sub-snapshot captures the stream state
        and restores it in place into the same live object.
        """
        return versioned(
            "algorithms.lacb",
            {
                "name": self.name,
                "estimator": self.estimator.snapshot(),
                "assigner": self.assigner.snapshot(),
            },
        )

    def restore(self, state) -> None:
        if isinstance(state, Mapping) and state.get("kind") == LEGACY_AN_KIND:
            legacy = expect(state, LEGACY_AN_KIND)
            payload = {
                "name": "AN",
                "estimator": legacy["bandit"],
                "assigner": legacy["assigner"],
            }
        else:
            payload = expect(state, "algorithms.lacb")
        if payload["name"] != self.name:
            raise StateError(
                f"snapshot is for {payload['name']!r}, this matcher is {self.name!r}"
            )
        self.estimator.restore(payload["estimator"])
        self.assigner.restore(payload["assigner"])
        # Older snapshots may carry a ``day`` entry (the last day begun,
        # never read) and the retired prediction cache's memoized rows;
        # both are ignored.

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def estimated_capacities(self) -> np.ndarray:
        """The capacities installed for the current day."""
        return self.assigner.capacities
