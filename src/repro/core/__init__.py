"""The paper's primary contribution: LACB and its building blocks.

- :mod:`~repro.core.types` — brokers, requests, trial triples, assignments;
- :mod:`~repro.core.config` — configuration dataclasses for every knob the
  paper reports (Sec. VII-A);
- :mod:`~repro.core.value_function` — the capacity-aware value function
  ``V(cr)`` with TD updates (Eq. 14) and utility refinement (Eq. 15);
- :mod:`~repro.core.selection` — Candidate Broker Selection (Alg. 3);
- :mod:`~repro.core.vfga` — Value Function Guided Assignment (Alg. 2);
- :class:`~repro.core.config.LACBConfig` — read by the LACB orchestrator
  (:mod:`repro.algorithms.lacb`) combining personalized capacity
  estimation with capacity-based assignment (Fig. 5).
"""

from repro.core.config import (
    AssignmentConfig,
    BanditConfig,
    LACBConfig,
)
from repro.core.selection import select_candidate_brokers
from repro.core.types import (
    Assignment,
    AssignedPair,
    Broker,
    DayOutcome,
    Request,
    TrialTriple,
)
from repro.core.value_function import CapacityAwareValueFunction
from repro.core.vfga import ValueFunctionGuidedAssigner

__all__ = [
    "AssignedPair",
    "Assignment",
    "AssignmentConfig",
    "BanditConfig",
    "Broker",
    "CapacityAwareValueFunction",
    "DayOutcome",
    "LACBConfig",
    "Request",
    "TrialTriple",
    "ValueFunctionGuidedAssigner",
    "select_candidate_brokers",
]
