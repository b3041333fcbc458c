"""Per-batch Kuhn-Munkres — assignment without capacity awareness.

Runs the KM algorithm on the raw predicted utilities of every batch
independently (the classical batched-assignment baseline of Sec. VII-A).
Within a batch each broker serves at most one request, but nothing stops
the same top brokers from being re-picked batch after batch, so moderate
overload still occurs across a day.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Matcher
from repro.core.types import AssignedPair, Assignment
from repro.matching import solve_assignment


class BatchKMMatcher(Matcher):
    """Capacity-oblivious per-batch optimal matching.

    Args:
        backend: matching backend (``"repro"`` or ``"scipy"``).
        pad_square: solve on the square-padded |B| x |B| graph (the paper's
            O(|B|^3) formulation); default uses the equivalent rectangular
            solve.
    """

    name = "KM"
    one_to_one = True

    def __init__(self, backend: str = "repro", pad_square: bool = False) -> None:
        self.backend = backend
        self.pad_square = pad_square

    def begin_day(self, day: int, contexts: np.ndarray) -> None:
        """Batch KM is stateless across days."""

    def assign_batch(
        self,
        day: int,
        batch: int,
        request_ids: np.ndarray,
        utilities: np.ndarray,
    ) -> Assignment:
        """Optimal one-to-one matching of the batch on raw utilities."""
        request_ids = np.asarray(request_ids, dtype=int)
        utilities = np.asarray(utilities, dtype=float)
        assignment = Assignment(day=day, batch=batch)
        if request_ids.size == 0:
            return assignment
        match = solve_assignment(
            utilities, maximize=True, backend=self.backend, pad_square=self.pad_square
        )
        for row, col in match.pairs:
            assignment.pairs.append(
                AssignedPair(int(request_ids[row]), int(col), float(utilities[row, col]))
            )
        return assignment
