"""Bipartite-graph helpers: match results and dummy-vertex padding."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MatchResult:
    """Outcome of one bipartite assignment.

    Attributes:
        pairs: list of ``(row, col)`` index pairs over the *original*
            (un-padded) matrix; dummy matches are never reported.
        total_weight: sum of the matched edge weights.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    total_weight: float = 0.0

    def __len__(self) -> int:
        return len(self.pairs)


def pad_to_square(weights: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Pad a rectangular weight matrix to a square one with dummy vertices.

    Sec. VI-B: "By adding |B| - |R| dummy vertices, we obtain a balanced
    [graph] with |B| vertices on both sides and can execute the classical
    KM algorithm."  Dummy edges carry weight ``fill`` (zero by default) so
    they never contribute to the objective.

    Args:
        weights: ``(n_rows, n_cols)`` weight matrix.
        fill: weight placed on dummy edges.

    Returns:
        A ``(n, n)`` matrix with ``n = max(n_rows, n_cols)``.  The input is
        returned as a copy when already square.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {weights.shape}")
    n_rows, n_cols = weights.shape
    size = max(n_rows, n_cols)
    padded = np.full((size, size), fill, dtype=float)
    padded[:n_rows, :n_cols] = weights
    return padded
