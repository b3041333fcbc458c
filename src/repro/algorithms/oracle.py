"""Oracle-capacity matcher — the diagnostic skyline.

Runs the paper's assignment module with the *ground-truth* effective
capacities the simulator keeps hidden from every real algorithm.  Not a
competitor (it reads the environment's latent state, so it is deliberately
not registered in :func:`repro.algorithms.make_matcher`); it upper-bounds
what any capacity-estimation scheme could achieve with this assignment
module, which is how the capacity-estimation gap of LACB/AN is measured.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Matcher
from repro.core.config import AssignmentConfig
from repro.core.types import Assignment, DayOutcome
from repro.core.vfga import ValueFunctionGuidedAssigner
from repro.simulation.platform import RealEstatePlatform


class OracleCapacityMatcher(Matcher):
    """Capacity-capped assignment with ground-truth effective capacities.

    Args:
        platform: the environment whose latent capacities are read — the
            matcher must run against this same platform.
        assignment_config: assignment-module settings; defaults to plain
            capacity-capped KM (no value function) so the skyline isolates
            capacity knowledge.
    """

    name = "Oracle"
    one_to_one = True

    def __init__(
        self,
        platform: RealEstatePlatform,
        assignment_config: AssignmentConfig | None = None,
    ) -> None:
        self._platform = platform
        self.assigner = ValueFunctionGuidedAssigner(
            platform.num_brokers,
            assignment_config or AssignmentConfig(use_value_function=False),
            batches_per_day=platform.batches_per_day,
        )

    def begin_day(self, day: int, contexts: np.ndarray) -> None:
        """Install the environment's hidden effective capacities."""
        self.assigner.begin_day(self._platform.effective_capacity(day))

    def assign_batch(
        self,
        day: int,
        batch: int,
        request_ids: np.ndarray,
        utilities: np.ndarray,
    ) -> Assignment:
        """Capacity-capped per-batch KM under the oracle capacities."""
        return self.assigner.assign_batch(day, batch, request_ids, utilities)

    def end_day(self, day: int, outcome: DayOutcome, contexts: np.ndarray) -> None:
        """Close the assigner's day (no learning — the oracle knows)."""
        self.assigner.end_day()

    def snapshot(self) -> dict:
        """Durable state is the assigner's; the platform checkpoints itself."""
        from repro.state.protocol import versioned

        return versioned("algorithms.oracle", {"assigner": self.assigner.snapshot()})

    def restore(self, state) -> None:
        from repro.state.protocol import expect

        payload = expect(state, "algorithms.oracle")
        self.assigner.restore(payload["assigner"])
