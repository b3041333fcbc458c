"""Kuhn-Munkres (Hungarian) assignment solver.

This is the workhorse of Alg. 2 line 7: ``M = KM(u', R, B+)``.  We implement
the O(n_rows^2 * n_cols) shortest-augmenting-path formulation with dual
potentials (Jonker-Volgenant style) from scratch on NumPy.  The solver works
directly on rectangular instances with ``n_rows <= n_cols`` — crucial for
the paper's setting, where a batch of tens of requests meets thousands of
brokers and padding to a square ``|B| x |B|`` matrix would waste almost all
of the cubic work.

A SciPy backend (``scipy.optimize.linear_sum_assignment``) is available both
as a cross-validation oracle in tests and as a faster engine for paper-scale
instances; both backends return identical-value solutions.
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchResult
from repro.obs import telemetry as obs

_BACKENDS = ("repro", "scipy")


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost matching saturating the rows of a cost matrix.

    Args:
        cost: ``(n_rows, n_cols)`` matrix with ``n_rows <= n_cols``;
            ``cost[i, j]`` is the cost of assigning row ``i`` to column ``j``.

    Returns:
        ``col_of_row`` — an ``(n_rows,)`` integer array where row ``i`` is
        matched to column ``col_of_row[i]``.  Every row is matched; with
        ``n_rows == n_cols`` this is a perfect matching.

    Rows are inserted one at a time; each insertion grows an alternating
    tree of tight edges until a free column is reached, while dual
    potentials ``u`` (rows) and ``v`` (columns) keep reduced costs
    non-negative (the classical shortest-augmenting-path scheme).

    Note on warm starts: reusing column potentials across consecutive
    batches (the incremental-matching idea of Abeywickrama et al., cited
    by the paper) is *not* sound here — with slack columns, complementary
    slackness requires every unmatched column to carry zero potential, and
    a reused profile cannot know which columns the new instance will leave
    unmatched (measured: ~85% of warm-started rectangular solves came back
    suboptimal).  The sound alternative is trajectory resumption — replay
    the row-insertion sequence from the last row whose cost data changed —
    which :class:`repro.matching.incremental.IncrementalKMSolver` builds on
    top of the same :func:`_km_insert_row` primitive this solver uses.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"hungarian() expects a matrix, got shape {cost.shape}")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(
            f"hungarian() requires n_rows <= n_cols, got {cost.shape}; transpose first"
        )
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    if n_rows == 0:
        return np.empty(0, dtype=int)

    # Column 0 is a sentinel holding the row currently being inserted;
    # real columns are 1-based.  row_of_col[j] == 0 means column j is free.
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    row_of_col = np.zeros(n_cols + 1, dtype=int)
    way = np.zeros(n_cols + 1, dtype=int)

    for row in range(1, n_rows + 1):
        _km_insert_row(cost, u, v, row_of_col, way, row)

    col_of_row = np.zeros(n_rows, dtype=int)
    matched = row_of_col[1:] > 0
    col_of_row[row_of_col[1:][matched] - 1] = np.nonzero(matched)[0]
    return col_of_row


def _km_insert_row(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    row_of_col: np.ndarray,
    way: np.ndarray,
    row: int,
) -> None:
    """Insert one row (1-based) into a partial KM solution, in place.

    This is the augmenting step shared by :func:`hungarian` and the
    incremental solver: grow an alternating tree of tight edges from
    ``row`` until a free column is reached, updating the duals so reduced
    costs stay non-negative, then augment along the tree.

    The state after inserting rows ``1..p`` is a pure function of the cost
    entries of those rows — nothing here reads a row that has not been
    inserted yet.  That determinism is what makes trajectory resumption in
    :mod:`repro.matching.incremental` exact: resuming from a recorded
    ``(u, v, row_of_col)`` replays the same arithmetic in the same order
    as a cold solve would.  ``way`` is write-before-read within a single
    insertion (the augmenting path only traverses columns whose pointer
    was set while growing this row's tree), so it carries no state across
    insertions and needs no recording.
    """
    n_cols = v.size - 1
    inf = np.inf
    row_of_col[0] = row
    j0 = 0
    min_reduced = np.full(n_cols, inf)  # over real columns 1..n_cols
    used = np.zeros(n_cols + 1, dtype=bool)
    used_rows: list[int] = []
    while True:
        used[j0] = True
        used_rows.append(row_of_col[j0])
        i0 = row_of_col[j0]
        reduced = cost[i0 - 1, :] - u[i0] - v[1:]
        unused = ~used[1:]
        improve = unused & (reduced < min_reduced)
        min_reduced[improve] = reduced[improve]
        way[1:][improve] = j0
        masked = np.where(unused, min_reduced, inf)
        j1 = int(np.argmin(masked)) + 1
        delta = masked[j1 - 1]
        # Update potentials: tight edges stay tight, one new edge
        # becomes tight; unreached columns get closer by delta.
        u[used_rows] += delta
        v[used] -= delta
        min_reduced[unused] -= delta
        j0 = j1
        if row_of_col[j0] == 0:
            break
    # Augment along the alternating path back to the sentinel column.
    while j0 != 0:
        j1 = way[j0]
        row_of_col[j0] = row_of_col[j1]
        j0 = j1


def solve_assignment(
    weights: np.ndarray,
    maximize: bool = True,
    backend: str = "repro",
    pad_square: bool = False,
) -> MatchResult:
    """Optimal assignment on a possibly rectangular weight matrix.

    When maximizing, every vertex of the smaller side is additionally given
    a private zero-weight dummy partner (the convention of Sec. VI-B: "a
    common practice is to add some dummy vertices to the smaller part"), so
    a vertex may stay unmatched at zero gain instead of being forced onto a
    negative-value edge.

    Args:
        weights: ``(n_rows, n_cols)`` matrix of edge weights/utilities.
        maximize: maximize total weight (the paper's objective, Eq. 1)
            instead of minimizing cost.
        backend: ``"repro"`` for the from-scratch Hungarian solver or
            ``"scipy"`` for ``scipy.optimize.linear_sum_assignment``.
        pad_square: pad the instance to a full ``max(n, m) x max(n, m)``
            square before solving, exactly as Sec. VI-B describes ("adding
            |B| - |R| dummy vertices") — the O(|B|^3) behaviour whose cost
            motivates CBS.  Off by default: the rectangular solver returns
            the identical matching in O(|R|^2 |B|), and the square mode
            exists to reproduce the paper's running-time comparisons.

    Returns:
        A :class:`MatchResult` with matched real pairs and the total weight.
        Dummy matches (a vertex paired with its private zero-weight partner)
        are omitted; a genuine zero-weight edge of the input matrix is a
        real pair and is reported when the solver selects it.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {_BACKENDS}")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    with obs.span("matching.solve", backend=backend):
        return _solve_assignment(weights, maximize, backend, pad_square)


def _solve_assignment(
    weights: np.ndarray, maximize: bool, backend: str, pad_square: bool
) -> MatchResult:
    """The actual solve behind :func:`solve_assignment` (validated inputs)."""
    n_rows, n_cols = weights.shape
    if n_rows == 0 or n_cols == 0:
        return MatchResult(pairs=[], total_weight=0.0)
    if not maximize and n_rows != n_cols:
        raise ValueError(
            "zero-weight dummy padding is only meaningful when maximizing; "
            "pass a square matrix for minimization"
        )

    # Orient so rows are the smaller side, then add one private dummy
    # column per row (weight 0) so staying unmatched is always feasible.
    transposed = n_rows > n_cols
    working = weights.T if transposed else weights
    wr, wc = working.shape
    if pad_square and maximize:
        side = max(wr, wc)
        padded = np.zeros((side, side + wr))
        padded[:wr, :wc] = working
        cost = -padded
    elif maximize:
        padded = np.hstack([working, np.zeros((wr, wr))])
        cost = -padded
    else:
        cost = working

    if backend == "scipy":
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        col_of_row = np.empty(wr, dtype=int)
        col_of_row[rows] = cols
    else:
        col_of_row = hungarian(cost)

    # Real columns occupy the block [0, wc) in both padded layouts; any
    # column >= wc is a dummy partner.  The block index — not the edge
    # weight — is what distinguishes a genuine zero-utility match from
    # staying unmatched.
    pairs = []
    total = 0.0
    for row in range(wr):
        col = int(col_of_row[row])
        if col < wc:
            pair = (col, row) if transposed else (row, col)
            pairs.append(pair)
            total += float(working[row, col])
    pairs.sort()
    return MatchResult(pairs=pairs, total_weight=total)
