"""Executable invariants of the assignment pipeline.

Each function here is a *pure* check: it inspects its inputs, mutates
nothing, consumes no randomness, and returns the list of
:class:`~repro.check.runtime.Violation` objects it found (empty = all
good).  Policy — raise vs collect, sampling — lives entirely in
:class:`~repro.check.runtime.CheckState`; wiring lives in
:class:`~repro.check.hook.CheckHook` and the sampled solver checks inside
:class:`~repro.core.vfga.ValueFunctionGuidedAssigner`.

The invariants encode the paper's guarantees:

* **Batch feasibility** (Sec. III / Alg. 2 line 5): a batch assignment is a
  partial one-to-one matching between the batch's requests and brokers in
  ``B+`` — each request matched at most once, each broker (for one-to-one
  matchers) at most once, every recorded utility equal to the utility
  matrix entry the matcher saw.
* **Capacity feasibility** (Def. 2): a matched broker had residual booked
  capacity at the moment of the match; workloads never exceed capacity.
* **Day accounting**: the pairs booked over a day's batches sum to the
  day's workload deltas (assigner bookkeeping, and — absent appeals — the
  platform's realized workloads).
* **KM optimality** (Alg. 2 line 7): the solver's matching achieves the
  SciPy oracle's optimal total weight.
* **CBS preservation** (Theorem 2): pruning the broker side to the CBS
  candidate set does not reduce the optimal total weight.
"""

from __future__ import annotations

import numpy as np

from repro.check.runtime import Violation
from repro.core.types import Assignment
from repro.matching.bipartite import MatchResult
from repro.matching.validation import is_valid_matching

#: Relative tolerance scale for comparing optimal totals (scaled by the
#: magnitude of the weight matrix so paper-scale utilities don't trip it).
OPTIMALITY_RTOL = 1e-6


def _tolerance(weights: np.ndarray) -> float:
    scale = float(np.max(np.abs(weights))) if weights.size else 1.0
    return OPTIMALITY_RTOL * max(1.0, scale)


# ----------------------------------------------------------------------
# Batch-level structural feasibility
# ----------------------------------------------------------------------
def check_batch_assignment(
    assignment: Assignment,
    request_ids: np.ndarray,
    utilities: np.ndarray,
    one_to_one: bool = False,
    algorithm: str | None = None,
) -> list[Violation]:
    """Feasibility of one batch matching ``M^(i)``.

    Args:
        assignment: the matching the matcher produced.
        request_ids: the batch's request ids (rows of ``utilities``).
        utilities: the ``(|R_batch|, |B|)`` matrix the matcher saw.
        one_to_one: enforce broker-at-most-once (true for assignment-style
            matchers; recommenders may legitimately pile several requests
            of one batch onto the same broker).
        algorithm: display name stamped onto violations.
    """
    violations: list[Violation] = []
    day, batch = assignment.day, assignment.batch
    request_ids = np.asarray(request_ids, dtype=int)
    num_brokers = utilities.shape[1]
    row_of_request = {int(rid): row for row, rid in enumerate(request_ids)}

    def bad(invariant: str, message: str) -> None:
        violations.append(
            Violation(invariant, message, algorithm=algorithm, day=day, batch=batch)
        )

    seen_requests: set[int] = set()
    seen_brokers: set[int] = set()
    for pair in assignment.pairs:
        row = row_of_request.get(pair.request_id)
        if row is None:
            bad("batch.unknown_request", f"request {pair.request_id} not in this batch")
            continue
        if pair.request_id in seen_requests:
            bad("batch.duplicate_request", f"request {pair.request_id} matched twice")
        seen_requests.add(pair.request_id)
        if not 0 <= pair.broker_id < num_brokers:
            bad("batch.unknown_broker", f"broker {pair.broker_id} out of range")
            continue
        if one_to_one:
            if pair.broker_id in seen_brokers:
                bad(
                    "batch.duplicate_broker",
                    f"broker {pair.broker_id} matched twice in a one-to-one batch",
                )
            seen_brokers.add(pair.broker_id)
        recorded = float(utilities[row, pair.broker_id])
        if pair.utility != recorded and not (
            np.isnan(pair.utility) and np.isnan(recorded)
        ):
            bad(
                "batch.utility_mismatch",
                f"pair ({pair.request_id}, {pair.broker_id}) recorded utility "
                f"{pair.utility!r} but the input matrix says {recorded!r}",
            )
    return violations


def check_capacity_feasibility(
    assignment: Assignment,
    capacities: np.ndarray,
    booked_before: np.ndarray,
    algorithm: str | None = None,
) -> list[Violation]:
    """Matched brokers were in ``B+`` and stay within booked capacity.

    Walks the batch's pairs in order against the workload state *before*
    the batch (``booked_before``): at the moment each pair was booked, the
    broker must have had residual capacity — i.e. the matcher only ever
    matched brokers from the available set ``B+`` of Alg. 2 line 5.

    Args:
        assignment: the batch matching.
        capacities: ``(|B|,)`` per-broker capacities ``c_b`` of the day.
        booked_before: ``(|B|,)`` requests booked per broker before this
            batch (not mutated).
        algorithm: display name stamped onto violations.
    """
    violations: list[Violation] = []
    capacities = np.asarray(capacities, dtype=float)
    booked = np.asarray(booked_before, dtype=int).copy()
    for pair in assignment.pairs:
        broker = pair.broker_id
        if not 0 <= broker < booked.size:
            continue  # reported by check_batch_assignment
        if booked[broker] >= capacities[broker]:
            violations.append(
                Violation(
                    "capacity.exceeded",
                    f"broker {broker} matched at workload {int(booked[broker])} "
                    f">= capacity {capacities[broker]:g} (not in B+)",
                    algorithm=algorithm,
                    day=assignment.day,
                    batch=assignment.batch,
                )
            )
        booked[broker] += 1
    return violations


# ----------------------------------------------------------------------
# Day-level accounting
# ----------------------------------------------------------------------
def check_day_accounting(
    day: int,
    booked: np.ndarray,
    outcome_workloads: np.ndarray | None = None,
    assigner_workloads: np.ndarray | None = None,
    algorithm: str | None = None,
) -> list[Violation]:
    """End-of-day consistency: batch pairs sum to workload deltas.

    Args:
        day: day index.
        booked: ``(|B|,)`` pairs booked per broker over the day's batches
            (accumulated from the engine's batch events).
        outcome_workloads: the platform's realized workloads; only
            comparable when no appeal process perturbs them (pass ``None``
            when ``appeal_rate > 0``).
        assigner_workloads: the assigner's internal workload ledger, when
            the matcher exposes one; must always equal the booked pairs.
        algorithm: display name stamped onto violations.
    """
    violations: list[Violation] = []
    booked = np.asarray(booked, dtype=int)
    if assigner_workloads is not None:
        assigner_workloads = np.asarray(assigner_workloads, dtype=int)
        if not np.array_equal(booked, assigner_workloads):
            diff = np.nonzero(booked != assigner_workloads)[0]
            violations.append(
                Violation(
                    "day.assigner_workload_mismatch",
                    f"assigner workload ledger disagrees with booked pairs for "
                    f"brokers {diff[:10].tolist()} "
                    f"(booked {booked[diff[:10]].tolist()}, "
                    f"ledger {assigner_workloads[diff[:10]].tolist()})",
                    algorithm=algorithm,
                    day=day,
                )
            )
    if outcome_workloads is not None:
        outcome_workloads = np.asarray(outcome_workloads, dtype=int)
        if not np.array_equal(booked, outcome_workloads):
            diff = np.nonzero(booked != outcome_workloads)[0]
            violations.append(
                Violation(
                    "day.outcome_workload_mismatch",
                    f"realized workloads disagree with booked pairs for "
                    f"brokers {diff[:10].tolist()} "
                    f"(booked {booked[diff[:10]].tolist()}, "
                    f"realized {outcome_workloads[diff[:10]].tolist()})",
                    algorithm=algorithm,
                    day=day,
                )
            )
    return violations


# ----------------------------------------------------------------------
# Solver-oracle spot checks (sampled — each runs a SciPy solve)
# ----------------------------------------------------------------------
def oracle_assignment(weights: np.ndarray) -> MatchResult:
    """Optimal *partial* matching via SciPy — the independent KM oracle.

    Matches :func:`repro.matching.solve_assignment`'s maximization
    semantics: every row additionally gets a private zero-weight dummy
    partner, so a vertex may stay unmatched at zero gain instead of taking
    a negative edge.  (Simply dropping negative edges from a forced full
    matching would *not* be equivalent — the full optimum may route the
    positive edges differently.)  As there, a dummy is recognised by its
    column block, not its weight: a genuine zero-weight edge the oracle
    selects is a real pair.  The total is summed over the padded optimum,
    which is :func:`oracle_optimum`.
    """
    from scipy.optimize import linear_sum_assignment

    weights = np.asarray(weights, dtype=float)
    n_rows, n_cols = weights.shape
    if n_rows == 0 or n_cols == 0:
        return MatchResult(pairs=[], total_weight=0.0)
    padded = np.hstack([weights, np.zeros((n_rows, n_rows))])
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs = sorted((int(r), int(c)) for r, c in zip(rows, cols) if c < n_cols)
    return MatchResult(pairs=pairs, total_weight=float(padded[rows, cols].sum()))


def oracle_optimum(weights: np.ndarray) -> float:
    """Optimal partial-matching total weight: :func:`oracle_assignment`'s total.

    Public: the quality telemetry's online regret proxy
    (:mod:`repro.obs.quality`) reuses this as its unconstrained-KM oracle.
    """
    return oracle_assignment(weights).total_weight


def check_km_optimality(
    weights: np.ndarray,
    match: MatchResult,
    day: int | None = None,
    batch: int | None = None,
    algorithm: str | None = None,
) -> list[Violation]:
    """The solver's matching achieves the SciPy oracle's optimum (Alg. 2 line 7).

    Structural validity, recomputed total vs reported total, and reported
    total vs the independently solved optimal total.
    """
    violations: list[Violation] = []
    weights = np.asarray(weights, dtype=float)
    n_rows, n_cols = weights.shape

    def bad(invariant: str, message: str) -> None:
        violations.append(
            Violation(invariant, message, algorithm=algorithm, day=day, batch=batch)
        )

    if not is_valid_matching(match, n_rows, n_cols):
        bad("solver.invalid_matching", f"not a one-to-one matching: {match.pairs}")
        return violations
    atol = _tolerance(weights)
    recomputed = sum(float(weights[row, col]) for row, col in match.pairs)
    if abs(recomputed - match.total_weight) > atol:
        bad(
            "solver.total_mismatch",
            f"reported total {match.total_weight!r} != recomputed {recomputed!r}",
        )
    if n_rows and n_cols:
        optimal = oracle_optimum(weights)
        if match.total_weight < optimal - atol:
            bad(
                "solver.suboptimal",
                f"total {match.total_weight!r} below oracle optimum {optimal!r}",
            )
    return violations


def check_cbs_preservation(
    utilities: np.ndarray,
    kept_columns: np.ndarray,
    day: int | None = None,
    batch: int | None = None,
    algorithm: str | None = None,
) -> list[Violation]:
    """Theorem 2: CBS pruning preserves the optimal total weight.

    Solves the full instance and the column-pruned instance with the SciPy
    oracle and demands equal optimal totals.

    Args:
        utilities: the ``(|R|, |B+|)`` pre-pruning utility matrix.
        kept_columns: column indices CBS retained.
    """
    utilities = np.asarray(utilities, dtype=float)
    kept_columns = np.asarray(kept_columns, dtype=int)
    if utilities.size == 0:
        return []

    full = oracle_optimum(utilities)
    pruned = oracle_optimum(utilities[:, kept_columns])
    if abs(full - pruned) > _tolerance(utilities):
        return [
            Violation(
                "cbs.weight_not_preserved",
                f"optimal total on the pruned graph ({pruned!r}) differs from "
                f"the full graph ({full!r}) for k={utilities.shape[0]}, "
                f"|B+|={utilities.shape[1]}, kept {kept_columns.size}",
                algorithm=algorithm,
                day=day,
                batch=batch,
            )
        ]
    return []
