"""Candidate Broker Selection — Alg. 3 (Sec. VI-C).

Theorem 2 / Corollary 1: on an unbalanced bipartite graph ``|R| <= |B|``,
restricting each request to its ``|R|`` highest-utility brokers preserves
at least one optimal assignment.  CBS finds those top-``k`` sets in expected
``O(|B|)`` per request via quickselect with random pivots, so the whole
pruning costs ``O(|R| |B|)`` and the subsequent KM run shrinks from
``O(|B|^3)`` to ``O(|R|^3)`` — the LACB-Opt speedup.
"""

from __future__ import annotations

import numpy as np


def candidate_broker_selection(
    utilities: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of the ``k`` largest entries (Alg. 3, ``Top_k^r``).

    Iterative quickselect with random pivots, three-way partitioned so
    duplicate utilities cannot cause quadratic blow-up.  The returned index
    set is unordered (any ``Top_k`` set works for Theorem 2).

    Args:
        utilities: ``(|B|,)`` utility row of one request.
        k: candidate set size; when ``k >= |B|`` all brokers are returned
            (Alg. 3 lines 1-3).
        rng: pivot randomness.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 1:
        raise ValueError(f"expected a 1-D utility row, got shape {utilities.shape}")
    if not np.all(np.isfinite(utilities)):
        # A NaN pivot makes all three partitions empty (every comparison is
        # False), so the selection loop would never shrink its candidate
        # set; infinities break the top-k ordering contract the same way.
        raise ValueError("utilities must be finite (got NaN or infinity)")
    if k <= 0:
        return np.empty(0, dtype=int)
    candidates = np.arange(utilities.size)
    if k >= utilities.size:
        return candidates

    chosen: list[np.ndarray] = []
    needed = k
    while needed > 0:
        if candidates.size <= needed:
            chosen.append(candidates)
            break
        pivot = utilities[candidates[rng.integers(candidates.size)]]
        values = utilities[candidates]
        greater = candidates[values > pivot]   # LC without ties
        equal = candidates[values == pivot]
        if greater.size >= needed:
            candidates = greater               # recurse into LC (line 8)
            continue
        chosen.append(greater)                 # take LC, fill from the rest (line 11)
        needed -= greater.size
        if equal.size >= needed:
            chosen.append(equal[:needed])
            break
        chosen.append(equal)
        needed -= equal.size
        candidates = candidates[values < pivot]
    return np.concatenate(chosen) if chosen else np.empty(0, dtype=int)


def topk_selection_mask(utilities: np.ndarray, k: int) -> np.ndarray:
    """Boolean ``Top_k`` membership per row, vectorized over the matrix.

    The ``np.argpartition``-style fast kernel of Alg. 3: one
    ``np.partition`` pass finds every row's boundary (the ``k``-th largest
    value), membership is then "strictly above the boundary, plus the
    lowest-indexed ties at the boundary until ``k`` entries are reached".

    That tie rule makes the mask *exactly* the set quickselect returns:
    :func:`candidate_broker_selection` filters an index-sorted candidate
    array, so whatever pivots are drawn it keeps every strictly-greater
    index and fills the remainder with the lowest-indexed boundary ties —
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
    greater = utilities > boundary[:, None]
    need = k - greater.sum(axis=1)
    ties = utilities == boundary[:, None]
    ties &= np.cumsum(ties, axis=1) <= need[:, None]
    return greater | ties


def select_candidate_brokers(
    utilities: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Union of per-request candidate sets over a batch (Sec. VI-C).

    ``U_r Top_k^r`` — the pruned broker pool on which LACB-Opt runs KM,
    computed by the vectorized :func:`topk_selection_mask` over the whole
    matrix.  The union is exactly the one per-row
    :func:`candidate_broker_selection` produces (the Theorem-2 reference,
    kept as the oracle :func:`repro.check.differential.quickselect_union`),
    and it draws no randomness.

    Args:
        utilities: ``(|R|, |B|)`` predicted utility matrix of one batch.
        k: per-request candidate size (Corollary 1 uses ``k = |R|``).
        rng: accepted for API stability; never consumed.

    Returns:
        Sorted unique broker indices participating in the pruned graph.
    """
    return np.flatnonzero(topk_selection_mask(utilities, k).any(axis=0))
