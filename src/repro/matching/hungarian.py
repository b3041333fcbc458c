"""Kuhn-Munkres (Hungarian) assignment solver.

This is the workhorse of Alg. 2 line 7: ``M = KM(u', R, B+)``.  We implement
the O(n_rows^2 * n_cols) shortest-augmenting-path formulation with dual
potentials (Jonker-Volgenant style) from scratch on NumPy.  The solver works
directly on rectangular instances with ``n_rows <= n_cols`` — crucial for
the paper's setting, where a batch of tens of requests meets thousands of
brokers and padding to a square ``|B| x |B|`` matrix would waste almost all
of the cubic work.

This is the only production solver.  SciPy's ``linear_sum_assignment``
appears solely as an independent optimality oracle in :mod:`repro.check`
(:func:`repro.check.invariants.oracle_assignment`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.matching.bipartite import MatchResult
from repro.obs import telemetry as obs

#: Cost matrices with at most this many columns are solved on Python lists
#: (:func:`_hungarian_lists`), wider ones on NumPy arrays.  Each step of a
#: row insertion scans every column: on lists that costs per column, on
#: arrays it is a fixed per-call overhead plus a cheap per-column part, so
#: the crossover is a column count.  Against the array path with its
#: step-one exit, lists took 0.8-1.2x the array time at 24 columns,
#: 1.2-2.3x at 48 and 1.9-2.9x at 64 for 1 to 16 rows.  Thirty rows
#: contesting few real columns grow deep trees; there lists took 0.57x
#: at 48 columns, 0.69x at 56, 0.99x at 64 and 2.3x at 80 (best of 7,
#: one shared 2-vCPU guest; docs/performance.md has the table).  48
#: splits the difference: past it arrays win at 1 to 16 rows, and 30-row
#: solves of 49-63 columns lose at most ~1.7x on arrays.  No benchmark
#: solve has 49-96 columns: every serving micro-batch (at most 45 cost
#: columns) stays on lists, and paper-scale 30-request batches (126-271
#: columns after CBS) and uncut 500-broker solves stay on arrays.
SMALL_KM_COLS = 48


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

    Two implementations run that same arithmetic: instances with at most
    :data:`SMALL_KM_COLS` columns on Python lists (:func:`_hungarian_lists`),
    where NumPy's per-call overhead would dominate a micro-batch solve,
    and wider ones on arrays (:func:`_hungarian_arrays`, whose row
    insertion :func:`_km_insert_row` stops after one step when a row's
    first-choice column is free).  Both return the identical
    ``col_of_row``, ties included, and the array path leaves the same
    potentials bit for bit as the plain row insertion kept as the oracle
    :func:`repro.check.differential.reference_km_insert_row`;
    :func:`repro.check.differential.assert_small_km_matches` pins both.

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
    if n_cols <= SMALL_KM_COLS:
        return _hungarian_lists(cost)
    return _hungarian_arrays(cost)


def _hungarian_arrays(cost: np.ndarray) -> np.ndarray:
    """Row insertion on NumPy arrays (validated, non-empty ``cost``)."""
    n_rows, n_cols = cost.shape
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

    Every step is the one
    :func:`repro.check.differential.reference_km_insert_row` takes, and
    leaves ``u``, ``v`` and ``row_of_col`` bitwise equal to it; only the
    bookkeeping is cheaper:

    * Step one runs while the tree holds only the sentinel.  Every
      column's running minimum is still ``+inf``, so each finite reduced
      cost improves on it and the step's minimum is the plain ``argmin``
      of the row's reduced costs (the first minimum, as in the oracle).  Most
      rows stop there, on a free first-choice column, with no scratch
      array allocated.
    * Later steps fill their scratch arrays through ufunc ``out=``.  A
      column leaving the pool has its running minimum set to ``+inf``,
      so the ``argmin`` over all columns is the one over unused columns
      and the decrement needs no mask (``inf - delta`` stays ``inf``).
    * The tree's potentials move one scalar at a time, the arithmetic
      of the oracle's fancy-indexed update; trees are small (2.0 steps
      per row on a day-dense episode, 98% of rows at most 8).
    """
    row_of_col[0] = row
    v_real = v[1:]
    reduced = cost[row - 1] - u[row] - v_real
    j1 = int(reduced.argmin()) + 1
    delta = reduced[j1 - 1]
    u[row] += delta
    v[0] -= delta
    if row_of_col[j1] == 0:
        row_of_col[j1] = row
        return

    # The first choice is taken: grow the tree from step one's state.
    n_cols = v_real.size
    min_reduced = reduced  # over real columns 1..n_cols
    min_reduced -= delta
    way_real = way[1:]
    way_real.fill(0)
    unused = np.ones(n_cols, dtype=bool)
    improve = np.empty(n_cols, dtype=bool)
    reduced = np.empty(n_cols)
    used_rows = [row]
    used_cols = [0]
    j0 = j1
    while True:
        unused[j0 - 1] = False
        min_reduced[j0 - 1] = np.inf
        used_cols.append(j0)
        i0 = row_of_col[j0]
        used_rows.append(i0)
        np.subtract(cost[i0 - 1], u[i0], out=reduced)
        np.subtract(reduced, v_real, out=reduced)
        np.less(reduced, min_reduced, out=improve)
        np.logical_and(improve, unused, out=improve)
        np.copyto(min_reduced, reduced, where=improve)
        np.copyto(way_real, j0, where=improve)
        j1 = int(min_reduced.argmin()) + 1
        delta = min_reduced[j1 - 1]
        # Update potentials: tight edges stay tight, one new edge
        # becomes tight; unreached columns get closer by delta.
        for i in used_rows:
            u[i] += delta
        for j in used_cols:
            v[j] -= delta
        np.subtract(min_reduced, delta, out=min_reduced)
        j0 = j1
        if row_of_col[j0] == 0:
            break
    # Augment along the alternating path back to the sentinel column.
    while j0 != 0:
        j1 = way[j0]
        row_of_col[j0] = row_of_col[j1]
        j0 = j1


def _hungarian_lists(cost: np.ndarray) -> np.ndarray:
    """:func:`_hungarian_arrays` on Python lists, for small instances.

    The same row insertions as :func:`_km_insert_row`, operation for
    operation: reduced costs as ``(c - u) - v``, ``min_reduced`` lowered
    on strict ``<``, the first minimum over unused columns in index order
    (``np.argmin``'s tie-break), and the same potential updates.  IEEE
    double arithmetic on Python floats rounds exactly like NumPy's
    element-wise float64, so ``col_of_row`` is identical; what changes is
    that no per-iteration array is allocated.
    """
    n_rows, n_cols = cost.shape
    rows = cost.tolist()
    inf = math.inf
    u = [0.0] * (n_rows + 1)
    v = [0.0] * (n_cols + 1)
    row_of_col = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)
    for row in range(1, n_rows + 1):
        row_of_col[0] = row
        j0 = 0
        min_reduced = [inf] * (n_cols + 1)  # index 0 (the sentinel) unused
        unused = list(range(1, n_cols + 1))  # ascending: argmin's tie-break
        used_cols = [0]
        used_rows: list[int] = []
        while True:
            i0 = row_of_col[j0]
            used_rows.append(i0)
            costs = rows[i0 - 1]
            potential = u[i0]
            delta = inf
            j1 = 0
            for j in unused:
                reduced = costs[j - 1] - potential - v[j]
                best = min_reduced[j]
                if reduced < best:
                    min_reduced[j] = best = reduced
                    way[j] = j0
                if best < delta:
                    delta = best
                    j1 = j
            for i in used_rows:
                u[i] += delta
            for j in used_cols:
                v[j] -= delta
            for j in unused:
                min_reduced[j] -= delta
            j0 = j1
            if row_of_col[j0] == 0:
                break
            unused.remove(j1)
            used_cols.append(j1)
        while j0 != 0:
            j1 = way[j0]
            row_of_col[j0] = row_of_col[j1]
            j0 = j1

    col_of_row = [0] * n_rows
    for col in range(1, n_cols + 1):
        if row_of_col[col]:
            col_of_row[row_of_col[col] - 1] = col - 1
    return np.array(col_of_row, dtype=int)


def solve_assignment(weights: np.ndarray, pad_square: bool = False) -> MatchResult:
    """Maximum-weight assignment on a possibly rectangular weight matrix.

    Every vertex of the smaller side is additionally given a private
    zero-weight dummy partner (the convention of Sec. VI-B: "a common
    practice is to add some dummy vertices to the smaller part"), so a
    vertex may stay unmatched at zero gain instead of being forced onto a
    negative-value edge.  The paper's objective (Eq. 1) maximizes; the
    min-cost entry point is :func:`hungarian`.

    Args:
        weights: ``(n_rows, n_cols)`` matrix of edge weights/utilities.
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
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    with obs.span("matching.solve"):
        return _solve_assignment(weights, pad_square)


def _padded_cost(working: np.ndarray, pad_square: bool) -> np.ndarray:
    """KM cost of a maximization with ``n_rows <= n_cols``, in one allocation.

    The negated weights fill the block ``[:n_rows, :n_cols]``; one private
    zero-cost dummy column per row follows, and ``pad_square`` adds zero
    dummy rows up to ``n_cols``.  Dummies hold ``+0.0`` where negating a
    zero block would give ``-0.0``; the two compare equal, so every solve
    step and the returned matching are the same.
    """
    wr, wc = working.shape
    cost = np.zeros((wc if pad_square else wr, wc + wr))
    np.negative(working, out=cost[:wr, :wc])
    return cost


def _solve_assignment(weights: np.ndarray, pad_square: bool) -> MatchResult:
    """The actual solve behind :func:`solve_assignment` (validated inputs)."""
    n_rows, n_cols = weights.shape
    if n_rows == 0 or n_cols == 0:
        return MatchResult(pairs=[], total_weight=0.0)

    # Orient so rows are the smaller side; the cost gives every row a
    # private dummy column so staying unmatched is always feasible.
    transposed = n_rows > n_cols
    working = weights.T if transposed else weights
    wr, wc = working.shape
    col_of_row = hungarian(_padded_cost(working, pad_square))

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
