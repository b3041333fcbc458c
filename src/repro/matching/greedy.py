"""Greedy bipartite matcher.

Not part of LACB itself, but the standard sanity baseline in the online
task-assignment literature the paper builds on (Sec. VIII cites Tong et al.'s
experimental finding that greedy is competitive in practice).  Also used in
tests as a lower bound for the optimal Hungarian solution.
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchResult


def greedy_assignment(weights: np.ndarray, min_weight: float = 0.0) -> MatchResult:
    """One-to-one matching by repeatedly taking the heaviest free edge.

    Args:
        weights: ``(n_rows, n_cols)`` edge weights.
        min_weight: edges with weight strictly below this are never taken.
            Must be non-negative: greedy only ever takes strictly positive
            edges (parity with dummy-padding semantics, where staying
            unmatched has zero value), so a negative floor cannot admit
            anything and is rejected rather than silently ignored.

    Returns:
        A :class:`MatchResult`; total weight is at least half the optimum
        (the classic 1/2-approximation guarantee of greedy matching).
        Equal-weight edges are taken in ascending (row, col) order — the
        same smallest-index tie convention the exact solvers follow.

    Raises:
        ValueError: on a malformed matrix or a negative ``min_weight``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {weights.shape}")
    if min_weight < 0.0:
        raise ValueError(
            f"min_weight must be non-negative, got {min_weight}: greedy never "
            "takes non-positive edges, so a negative floor would be ignored"
        )
    n_rows, n_cols = weights.shape
    # Stable sort on the negated weights: descending by weight, ties by
    # ascending flat index — i.e. smallest (row, col) first.  Reversing an
    # ascending argsort would resolve ties to the *largest* flat index.
    flat_order = np.argsort(-weights.ravel(), kind="stable")
    row_used = np.zeros(n_rows, dtype=bool)
    col_used = np.zeros(n_cols, dtype=bool)
    pairs: list[tuple[int, int]] = []
    total = 0.0
    for flat in flat_order:
        row, col = divmod(int(flat), n_cols)
        weight = weights[row, col]
        if weight < min_weight or weight <= 0.0:
            break
        if row_used[row] or col_used[col]:
            continue
        row_used[row] = True
        col_used[col] = True
        pairs.append((row, col))
        total += float(weight)
        if len(pairs) == min(n_rows, n_cols):
            break
    return MatchResult(pairs=pairs, total_weight=total)
