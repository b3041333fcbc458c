"""AN — Assignment with NeuralUCB (the strongest published baseline).

Combines the NeuralUCB bandit of Zhou et al. (cited as [9]) for workload
capacity exploration with per-batch KM assignment.  Relative to LACB it
lacks (i) per-broker personalization of the reward model and (ii) the
capacity-aware value function — both isolated by the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Matcher
from repro.bandits import NNUCBBandit
from repro.core.config import AssignmentConfig, BanditConfig
from repro.core.types import Assignment, DayOutcome
from repro.core.vfga import ValueFunctionGuidedAssigner
from repro.obs import telemetry as obs
from repro.state.protocol import expect, versioned


class NeuralUCBAssignment(Matcher):
    """Global NeuralUCB capacity estimation + capacity-capped batch KM.

    Args:
        context_dim: working-status context dimension.
        num_brokers: pool size.
        rng: randomness source.
        bandit_config: NeuralUCB settings (paper defaults when omitted).
        batches_per_day: the platform's fixed time windows per day.
    """

    name = "AN"
    one_to_one = True

    def __init__(
        self,
        context_dim: int,
        num_brokers: int,
        rng: np.random.Generator,
        bandit_config: BanditConfig | None = None,
        *,
        batches_per_day: int,
    ) -> None:
        self.bandit = NNUCBBandit(context_dim, bandit_config or BanditConfig(), rng)
        # AN assigns by plain KM under the capacity cap: no value function,
        # no CBS — that is exactly VFGA with both switches off.
        self.assigner = ValueFunctionGuidedAssigner(
            num_brokers,
            AssignmentConfig(use_value_function=False, use_cbs=False),
            rng,
            batches_per_day=batches_per_day,
        )

    def begin_day(self, day: int, contexts: np.ndarray) -> None:
        """Estimate every broker's capacity with the shared bandit."""
        with obs.span("bandit.predict"):
            capacities = self.bandit.estimate_batch(contexts)
        self.assigner.begin_day(capacities)

    def assign_batch(
        self,
        day: int,
        batch: int,
        request_ids: np.ndarray,
        utilities: np.ndarray,
    ) -> Assignment:
        """Capacity-capped per-batch KM (no value function, no CBS)."""
        return self.assigner.assign_batch(day, batch, request_ids, utilities)

    def end_day(self, day: int, outcome: DayOutcome, contexts: np.ndarray) -> None:
        """Feed back trial triples with the sign-up-rate reward.

        Same reward convention as LACB (Sec. V-B): the broker's realized
        daily sign-up rate.
        """
        with obs.span("vfga.end_day"):
            self.assigner.end_day()
        served = np.nonzero(outcome.workloads > 0)[0]
        with obs.span("bandit.update"):
            for broker_id in served:
                self.bandit.update(
                    contexts[broker_id],
                    float(outcome.workloads[broker_id]),
                    float(outcome.signup_rates[broker_id]),
                    int(broker_id),
                    capacity=float(self.assigner.capacities[broker_id]),
                )

    def snapshot(self) -> dict:
        """Deep snapshot: bandit + assigner (their shared RNG included)."""
        return versioned(
            "algorithms.neural_assign",
            {"bandit": self.bandit.snapshot(), "assigner": self.assigner.snapshot()},
        )

    def restore(self, state) -> None:
        payload = expect(state, "algorithms.neural_assign")
        self.bandit.restore(payload["bandit"])
        self.assigner.restore(payload["assigner"])
