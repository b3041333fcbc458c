"""Bertsekas auction algorithm for maximum-weight bipartite matching.

An independent third solver (besides the Hungarian algorithm and the
min-cost-flow reduction) with a very different algorithmic character:
rows *bid* for their best column, prices rise by the bid increment plus
``epsilon``, and epsilon-scaling drives the assignment toward optimality
(the final matching is within ``n * epsilon_final`` of the optimum).

Scope: non-negative weights (the paper's utilities are positive).
Price retention across scaling rounds — what makes the refinement cheap —
is only sound when every column ends up matched, i.e. on *square*
instances; an unmatched column would keep a stale inflated price from a
coarse round and never be corrected downward.  Rectangular inputs are
therefore squared up first: the column side is pruned to the union of
each row's top-``n_rows`` candidates (lossless by Theorem 2 of the
paper), and zero-weight dummy rows absorb the remaining columns.
Zero-weight matches are dropped from the report (they add nothing to the
objective), so against :func:`repro.matching.hungarian.solve_assignment`
— which *does* report genuine zero-weight pairs — agreement is on the
total weight, not on the literal pair sets.

A cross-check oracle for the differential suites
(:func:`repro.check.differential.assert_backends_agree`) and the tests; it
is not a production matching backend.
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchResult


def auction_assignment(
    weights: np.ndarray,
    scaling_factor: float = 4.0,
    tolerance: float = 1e-9,
) -> MatchResult:
    """Maximum-weight matching by epsilon-scaled forward auction.

    Args:
        weights: ``(n_rows, n_cols)`` non-negative edge weights.
        scaling_factor: epsilon divisor per scaling round (> 1).
        tolerance: relative optimality tolerance; the final epsilon is
            ``tolerance * spread / n`` so the total value is within
            ``tolerance * spread`` of the optimum.

    Returns:
        A :class:`MatchResult`; zero-weight pairs are omitted.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    if weights.size and weights.min() < 0:
        raise ValueError("auction_assignment expects non-negative weights")
    if scaling_factor <= 1.0:
        raise ValueError(f"scaling_factor must exceed 1, got {scaling_factor}")
    n_rows, n_cols = weights.shape
    if n_rows == 0 or n_cols == 0:
        return MatchResult(pairs=[], total_weight=0.0)
    if n_rows > n_cols:
        flipped = auction_assignment(weights.T, scaling_factor, tolerance)
        pairs = sorted((col, row) for row, col in flipped.pairs)
        return MatchResult(pairs=pairs, total_weight=flipped.total_weight)
    if float(weights.max()) == 0.0:
        return MatchResult(pairs=[], total_weight=0.0)

    if n_rows < n_cols:
        return _rectangular(weights, scaling_factor, tolerance)
    col_of_row = _square_auction(weights, scaling_factor, tolerance)
    return _collect(weights, col_of_row)


def _rectangular(
    weights: np.ndarray, scaling_factor: float, tolerance: float
) -> MatchResult:
    """Square-up a wide instance: Theorem 2 column pruning + dummy rows."""
    from repro.core.selection import select_candidate_brokers

    n_rows = weights.shape[0]
    rng = np.random.default_rng(weights.shape[1])  # pivot seed; any works
    columns = select_candidate_brokers(weights, n_rows, rng)
    reduced = weights[:, columns]
    side = reduced.shape[1]
    square = np.zeros((side, side))
    square[:n_rows] = reduced
    col_of_row = _square_auction(square, scaling_factor, tolerance)[:n_rows]
    result = _collect(reduced, col_of_row)
    pairs = sorted((row, int(columns[col])) for row, col in result.pairs)
    return MatchResult(pairs=pairs, total_weight=result.total_weight)


def _collect(weights: np.ndarray, col_of_row: np.ndarray) -> MatchResult:
    pairs = []
    total = 0.0
    for row in range(weights.shape[0]):
        col = int(col_of_row[row])
        if weights[row, col] > 0.0:
            pairs.append((row, col))
            total += float(weights[row, col])
    pairs.sort()
    return MatchResult(pairs=pairs, total_weight=total)


def _square_auction(
    weights: np.ndarray, scaling_factor: float, tolerance: float
) -> np.ndarray:
    """Epsilon-scaled forward auction on a square instance."""
    n_rows, n_cols = weights.shape
    spread = float(weights.max())
    final_epsilon = max(tolerance * spread / n_rows, 1e-15)

    prices = np.zeros(n_cols)
    col_of_row = np.full(n_rows, -1, dtype=int)
    row_of_col = np.full(n_cols, -1, dtype=int)
    epsilon = spread / 2.0

    while True:
        # Scaling round: assignments reset, prices carry over (they stay
        # consistent with epsilon-complementary-slackness of the coarser
        # round, which is what makes the refinement cheap).
        col_of_row.fill(-1)
        row_of_col.fill(-1)
        unassigned = list(range(n_rows))
        while unassigned:
            row = unassigned.pop()
            values = weights[row] - prices
            best = int(np.argmax(values))
            best_value = float(values[best])
            if n_cols > 1:
                values[best] = -np.inf
                second_value = float(values.max())
            else:
                second_value = best_value
            prices[best] += best_value - second_value + epsilon
            previous = row_of_col[best]
            if previous >= 0:
                col_of_row[previous] = -1
                unassigned.append(previous)
            row_of_col[best] = row
            col_of_row[row] = best
        if epsilon <= final_epsilon:
            break
        epsilon = max(epsilon / scaling_factor, final_epsilon)

    return col_of_row
