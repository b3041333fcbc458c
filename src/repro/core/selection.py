"""Candidate Broker Selection — Alg. 3 (Sec. VI-C).

Theorem 2 / Corollary 1: on an unbalanced bipartite graph ``|R| <= |B|``,
restricting each request to its ``|R|`` highest-utility brokers preserves
at least one optimal assignment.  Alg. 3 finds those top-``k`` sets in
expected ``O(|B|)`` per request via quickselect with random pivots, so the
whole pruning costs ``O(|R| |B|)`` and the subsequent KM run shrinks from
``O(|B|^3)`` to ``O(|R|^3)`` — the LACB-Opt speedup.

Production computes the same sets for a whole batch with one
``np.partition`` pass (:func:`topk_selection_mask`) and draws no
randomness.  The literal per-row quickselect is the oracle
:func:`repro.check.differential.candidate_broker_selection`.
"""

from __future__ import annotations

import numpy as np


def topk_selection_mask(utilities: np.ndarray, k: int) -> np.ndarray:
    """Boolean ``Top_k`` membership per row, vectorized over the matrix.

    The ``np.argpartition``-style fast kernel of Alg. 3: one
    ``np.partition`` pass finds every row's boundary (the ``k``-th largest
    value), membership is then "strictly above the boundary, plus the
    lowest-indexed ties at the boundary until ``k`` entries are reached".
    When no row has more than ``k`` entries at or above its boundary — the
    common case on continuous utilities — that set is simply ``u >=
    boundary`` and the tie-capping pass is skipped; the result is the same
    either way.

    That tie rule makes the mask *exactly* the set quickselect returns:
    :func:`repro.check.differential.candidate_broker_selection` (Alg. 3)
    filters an index-sorted candidate array, so whatever pivots are drawn
    it keeps every strictly-greater index and fills the remainder with the
    lowest-indexed boundary ties —
    its output never depends on the pivot sequence.  The property suites
    in :mod:`repro.check.differential` pin this equality.

    Args:
        utilities: ``(|R|, |B|)`` finite utility matrix.
        k: per-row candidate size.

    Returns:
        ``(|R|, |B|)`` boolean membership mask with ``min(k, |B|)`` true
        entries per row.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 2:
        raise ValueError(f"expected a 2-D utility matrix, got shape {utilities.shape}")
    if not np.all(np.isfinite(utilities)):
        raise ValueError("utilities must be finite (got NaN or infinity)")
    n_rows, n_cols = utilities.shape
    if k <= 0 or n_cols == 0:
        return np.zeros((n_rows, n_cols), dtype=bool)
    if k >= n_cols:
        return np.ones((n_rows, n_cols), dtype=bool)
    boundary = np.partition(utilities, n_cols - k, axis=1)[:, n_cols - k]
    atleast = utilities >= boundary[:, None]
    # Every row holds at least k entries >= its boundary.  When each holds
    # exactly k, every boundary tie fits under the cap, so the tie-capping
    # pass below would keep them all: ``atleast`` already is the mask.
    if np.count_nonzero(atleast) == n_rows * k:
        return atleast
    greater = utilities > boundary[:, None]
    need = k - np.count_nonzero(greater, axis=1)
    # Row-major order lists each row's boundary ties by ascending column,
    # and a tie's rank is its offset from its row's first tie: keep the
    # first ``need`` of each row.
    rows, cols = np.divmod(np.flatnonzero(utilities == boundary[:, None]), n_cols)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < need[rows]
    greater[rows[keep], cols[keep]] = True
    return greater


def select_candidate_brokers(utilities: np.ndarray, k: int) -> np.ndarray:
    """Union of per-request candidate sets over a batch (Sec. VI-C).

    ``U_r Top_k^r`` — the pruned broker pool on which LACB-Opt runs KM,
    computed by the vectorized :func:`topk_selection_mask` over the whole
    matrix.  The union is exactly the one per-row Alg. 3 quickselect
    produces (the Theorem-2 reference, kept as the oracle
    :func:`repro.check.differential.quickselect_union`).

    Args:
        utilities: ``(|R|, |B|)`` predicted utility matrix of one batch.
        k: per-request candidate size (Corollary 1 uses ``k = |R|``).

    Returns:
        Sorted unique broker indices participating in the pruned graph.
    """
    return np.flatnonzero(topk_selection_mask(utilities, k).any(axis=0))
