"""Incremental Kuhn-Munkres: warm-started, delta-aware repeated solves.

The fig8-style hot path solves one assignment per batch, and consecutive
batches are *near-duplicates* of each other: the broker pool drifts
slowly, and the Eq. 15 value refinement perturbs only the rows whose
requests changed.  ROADMAP names "incremental matching: make repeated KM
solves cheap" as the next scaling step; this module is that step.

Why not classic dual reuse
--------------------------

The textbook warm start (Bertsekas price retention, as used *within* one
auction solve) carries the dual potentials ``(u, v)`` from solve to
solve.  On this repo's rectangular instances that is **unsound**: every
row owns a private zero-weight dummy column, and complementary slackness
requires each unmatched column to carry zero potential — a reused profile
cannot know which columns the new instance will leave unmatched
(:func:`repro.matching.hungarian.hungarian` documents the measured ~85%
suboptimality).  Worse, even a *value-correct* warm start may return a
different equally-optimal matching under ties, and a warm start must not
change a seeded run by a single bit.

Trajectory resumption
---------------------

The sound warm start exploits a determinism property of the
shortest-augmenting-path scheme instead: the solver state after
inserting rows ``1..p`` is a pure function of *those rows'* cost data
(an insertion never reads a not-yet-inserted row — see
:func:`repro.matching.hungarian._km_insert_row`).  So the solver records
the ``(u, v, row_of_col)`` state after every row insertion, and a
re-solve

1. finds the longest row prefix of the oriented weight matrix that is
   value-identical to the previous solve (the duals' *re-validation*),
2. restores the recorded state at that prefix, and
3. replays the remaining insertions on the new cost data.

The replay performs the same arithmetic in the same order as a cold
solve of the new matrix, so the result is **bit-identical by
construction** — matching pairs, tie resolution and the accumulated
total all match the reference cold solve exactly.  When only the ``k``
trailing rows changed, the repair costs exactly ``k`` augmenting passes.
Two short-circuits sharpen this:

* **hit** — the matrix is value-identical to the previous one: the
  cached result is returned without touching the solver;
* **reconvergence fast-forward** — after the last changed row has been
  re-inserted, if the solver state equals the previous trajectory's
  state at the same index, the remaining (identical) insertions are
  skipped and the recorded tail is adopted.

Fallback to a cold solve (= resumption from row 0) happens whenever the
trajectory cannot be reused: first solve, shape or orientation change,
a changed column identity set, or a changed first row.  Correctness
never depends on the fallback decision — the prefix comparison is by
*value*, and a cold solve is just the degenerate ``p = 0`` resumption.

No matcher uses this solver: the paper's Alg. 2 solves each batch's new
requests afresh, and on the benchmark workloads every batch matrix is new,
so a warm start never applies (see ``docs/performance.md``).  It is kept
as a tested library component, differential-checked against cold solves
by :func:`repro.check.differential.assert_incremental_matches_cold`.
"""

from __future__ import annotations

import numpy as np

from repro.matching.bipartite import MatchResult
from repro.matching.hungarian import _km_insert_row
from repro.obs import telemetry as obs
from repro.state.protocol import StateError, expect, versioned

#: Snapshot envelope kind (see ``docs/state.md``).
STATE_KIND = "matching.incremental"


class IncrementalKMSolver:
    """Warm-started KM over a stream of related maximization instances.

    Drop-in for ``solve_assignment(weights, maximize=True,
    backend="repro", pad_square=False)``: every :meth:`solve` returns the
    bit-identical :class:`MatchResult` the reference cold solver would
    produce, but consecutive calls reuse the recorded solve trajectory
    wherever the weight matrix is unchanged.

    The recorded per-row states cost ``O(n_rows * (n_rows + n_cols))``
    floats — for the paper's batch shapes (tens of requests, hundreds of
    candidate brokers) well under a megabyte.

    Attributes:
        stats: monotone counters — ``hit`` / ``warm`` / ``cold`` solve
            modes, ``rows_reinserted`` / ``rows_skipped`` row accounting,
            and ``fast_forward`` reconvergence adoptions.
    """

    def __init__(self) -> None:
        self.stats = {
            "hit": 0,
            "warm": 0,
            "cold": 0,
            "rows_reinserted": 0,
            "rows_skipped": 0,
            "fast_forward": 0,
        }
        self._working: np.ndarray | None = None
        self._transposed = False
        self._column_ids: np.ndarray | None = None
        # _states[i] is the (u, v, row_of_col) state after inserting rows
        # 1..i of the oriented cost matrix; _states[0] is the initial
        # all-zeros state.  Arrays in the list are never mutated in place.
        self._states: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._result: MatchResult | None = None

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        weights: np.ndarray,
        maximize: bool = True,
        column_ids: np.ndarray | None = None,
    ) -> MatchResult:
        """Optimal assignment, warm-started from the previous call.

        Args:
            weights: ``(n_rows, n_cols)`` utility matrix.
            maximize: must be ``True`` — the dummy-padding convention this
                solver shares with :func:`solve_assignment` is a
                maximization construct.
            column_ids: optional identity labels for the columns (e.g. the
                available-broker ids behind a pruned utility matrix).
                Purely a fast-reject hint: a changed id set forces a cold
                solve without comparing values.  Correctness never depends
                on it — the solver is positional, and the value-level
                prefix comparison already catches every numeric change.

        Returns:
            The same :class:`MatchResult` (pairs, tie resolution and
            bitwise total) as the reference cold solver.
        """
        if not maximize:
            raise ValueError("IncrementalKMSolver only supports maximization")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
        n_rows, n_cols = weights.shape
        if n_rows == 0 or n_cols == 0:
            return MatchResult(pairs=[], total_weight=0.0)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weight matrix must be finite")
        ids = None if column_ids is None else np.asarray(column_ids)

        # Mirror _solve_assignment's orientation exactly: rows are the
        # smaller side, and each row gains a private zero-weight dummy
        # column so staying unmatched is always feasible.
        transposed = n_rows > n_cols
        working = weights.T if transposed else weights

        prefix = self._reusable_prefix(working, transposed, ids)
        wr = working.shape[0]
        if prefix == wr:
            self._count("hit", rows_total=wr, rows_reinserted=0)
            assert self._result is not None
            return MatchResult(
                pairs=list(self._result.pairs),
                total_weight=self._result.total_weight,
            )
        result = self._resume(working, transposed, ids, prefix)
        self._count("warm" if prefix > 0 else "cold", wr, wr - prefix)
        return result

    def _reusable_prefix(
        self,
        working: np.ndarray,
        transposed: bool,
        ids: np.ndarray | None,
    ) -> int:
        """Longest recorded-trajectory prefix valid for the new instance.

        Returns ``0`` (cold solve) whenever no trajectory exists, the
        oriented shape or orientation changed, or the column identity
        hint changed; otherwise the number of leading oriented rows that
        are value-identical to the previous solve.
        """
        if self._working is None or self._result is None:
            return 0
        if transposed != self._transposed or working.shape != self._working.shape:
            return 0
        if (ids is None) != (self._column_ids is None):
            return 0
        if ids is not None and not np.array_equal(ids, self._column_ids):
            return 0
        row_equal = (working == self._working).all(axis=1)
        changed = np.nonzero(~row_equal)[0]
        if changed.size == 0:
            return working.shape[0]
        return int(changed[0])

    def _resume(
        self,
        working: np.ndarray,
        transposed: bool,
        ids: np.ndarray | None,
        prefix: int,
    ) -> MatchResult:
        """Replay row insertions from ``prefix``, recording the trajectory."""
        wr, wc = working.shape
        # Identical construction to _solve_assignment so the cost entries
        # (dummy block included) are bit-for-bit the reference solver's.
        padded = np.hstack([working, np.zeros((wr, wr))])
        cost = -padded

        old_states = self._states
        old_working = self._working
        if prefix > 0:
            # The shared prefix states stay valid: state i is a pure
            # function of rows 1..i, and those rows are value-identical.
            # Arrays are never mutated in place, so aliasing is safe.
            states = old_states[:prefix + 1]
        else:
            # Cold resume: a fresh all-zeros state sized for *this*
            # instance (the old trajectory may have a different shape).
            states = [
                (
                    np.zeros(wr + 1),
                    np.zeros(wr + wc + 1),
                    np.zeros(wr + wc + 1, dtype=int),
                )
            ]
        u, v, row_of_col = (array.copy() for array in states[-1])
        way = np.zeros(wr + wc + 1, dtype=int)

        # Past this row every oriented row is value-identical to the old
        # instance, so the trajectories *may* reconverge.
        fast_forward_from = wr + 1
        if old_working is not None and old_working.shape == working.shape:
            row_equal = (working == old_working).all(axis=1)
            changed = np.nonzero(~row_equal)[0]
            if changed.size:
                fast_forward_from = int(changed[-1]) + 1

        row = prefix + 1
        while row <= wr:
            _km_insert_row(cost, u, v, row_of_col, way, row)
            states.append((u.copy(), v.copy(), row_of_col.copy()))
            if row >= fast_forward_from and row < wr and len(old_states) > row:
                old_u, old_v, old_roc = old_states[row]
                if (
                    np.array_equal(u, old_u)
                    and np.array_equal(v, old_v)
                    and np.array_equal(row_of_col, old_roc)
                ):
                    # The remaining rows are identical and the state
                    # matches the recorded trajectory: the rest of the
                    # replay is forced, so adopt the recorded tail.
                    states.extend(old_states[row + 1:])
                    row_of_col = old_states[-1][2]
                    self.stats["fast_forward"] += 1
                    obs.add("matching.incremental.fast_forwards", 1)
                    break
            row += 1

        result = self._extract(working, transposed, row_of_col)
        self._working = working.copy()
        self._transposed = transposed
        self._column_ids = None if ids is None else ids.copy()
        self._states = states
        self._result = result
        return MatchResult(pairs=list(result.pairs), total_weight=result.total_weight)

    @staticmethod
    def _extract(
        working: np.ndarray, transposed: bool, row_of_col: np.ndarray
    ) -> MatchResult:
        """Pairs and total from a final solver state, as the cold path does.

        Same loop (and therefore the same float accumulation order) as
        ``_solve_assignment`` — the totals must agree bitwise, not just to
        round-off.
        """
        wr, wc = working.shape
        col_of_row = np.zeros(wr, dtype=int)
        matched = row_of_col[1:] > 0
        col_of_row[row_of_col[1:][matched] - 1] = np.nonzero(matched)[0]
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

    def _count(self, mode: str, rows_total: int, rows_reinserted: int) -> None:
        self.stats[mode] += 1
        self.stats["rows_reinserted"] += rows_reinserted
        self.stats["rows_skipped"] += rows_total - rows_reinserted
        obs.add("matching.incremental.solves", 1, mode=mode)
        if rows_reinserted:
            obs.add("matching.incremental.rows_reinserted", rows_reinserted)

    def reset(self) -> None:
        """Drop the recorded trajectory (the next solve is cold)."""
        self._working = None
        self._transposed = False
        self._column_ids = None
        self._states = []
        self._result = None

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of the recorded trajectory and counters.

        The trajectory is genuine run state: dropping it on resume would
        keep *results* bit-identical (every solve falls back to cold) but
        would change solve timings and mode counters, so checkpoints
        carry it whole.
        """
        return versioned(
            STATE_KIND,
            {
                "working": None if self._working is None else self._working.copy(),
                "transposed": bool(self._transposed),
                "column_ids": (
                    None if self._column_ids is None else self._column_ids.copy()
                ),
                "states": [
                    (u.copy(), v.copy(), row_of_col.copy())
                    for u, v, row_of_col in self._states
                ],
                "pairs": None if self._result is None else list(self._result.pairs),
                "total_weight": (
                    None if self._result is None else float(self._result.total_weight)
                ),
                "stats": dict(self.stats),
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` (deep copies throughout)."""
        payload = expect(state, STATE_KIND)
        working = payload["working"]
        pairs = payload["pairs"]
        if (working is None) != (pairs is None):
            raise StateError(
                "incremental-KM snapshot is inconsistent: trajectory and "
                "result must be present or absent together"
            )
        self._working = None if working is None else np.array(working, dtype=float)
        self._transposed = bool(payload["transposed"])
        ids = payload["column_ids"]
        self._column_ids = None if ids is None else np.array(ids)
        self._states = [
            (
                np.array(u, dtype=float),
                np.array(v, dtype=float),
                np.array(row_of_col, dtype=int),
            )
            for u, v, row_of_col in payload["states"]
        ]
        self._result = (
            None
            if pairs is None
            else MatchResult(
                pairs=[(int(row), int(col)) for row, col in pairs],
                total_weight=float(payload["total_weight"]),
            )
        )
        self.stats = {key: int(value) for key, value in payload["stats"].items()}
