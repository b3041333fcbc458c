"""Differential oracles: independent implementations must agree.

Each ``assert_*`` function cross-validates two or more routes to the same
answer on one concrete instance and raises ``AssertionError`` with a
replayable description on disagreement.  They are the check functions the
:mod:`repro.check.property` harness drives over randomized instances, and
they are equally usable on a single hand-built instance in a regression
test.

The agreements checked:

* the KM solver vs the SciPy oracle (vs ``auction`` / min-cost-flow where
  their preconditions hold): equal optimal totals, structurally valid
  matchings.  Totals — not pair sets — are compared: optima are frequently
  non-unique (ties), and the solvers legitimately differ on zero-weight
  pairs (the auction oracle drops them; KM reports them).
* KM's list path for small instances vs its array path vs the reference
  row loop (:func:`reference_hungarian`): identical ``col_of_row``, ties
  included, and the array path's potentials bitwise equal to the
  oracle's after every row insertion.
* ``pad_square=True`` vs the rectangular solve: Sec. VI-B's dummy-vertex
  squaring is a pure running-time experiment and must not change results.
* CBS pruning vs the unpruned instance (Theorem 2): equal optimal totals.
* the warm-started incremental KM solver vs a fresh cold solve, over a
  whole perturbation sequence: *bit-identical* pairs and totals at every
  step (not merely equal optima — the incremental path promises the exact
  reference result), with every step additionally cross-validated across
  all four solvers.
* ``candidate_broker_selection`` (the literal Alg. 3 quickselect) vs
  brute-force ``np.sort`` top-k.
* the ``argpartition`` production kernel vs the quickselect oracle:
  exactly equal per-row ``Top_k`` sets and batch unions (see
  :func:`repro.core.selection.topk_selection_mask`).
* batched MLP scoring (``forward_backward`` gradient rows and the
  gradient-free diagonal bonus) vs the per-sample reference path, to
  floating-point round-off.
* the day-batched ``estimate_batch`` vs the per-broker ``estimate`` loop
  committing through :func:`reference_commit`: identical capacities and
  bitwise-identical bandit state.
* the platform's table-gather utilities and pair-only affinities vs the
  per-call-normalising full grid: bitwise equal on a live, appealing,
  skill-growing, snapshot-restored city.
* the flat-vector training step vs the per-layer step
  (:func:`reference_train_step`): bitwise-equal ``theta``, Adam moments,
  step count and loss after every minibatch.

It also holds the scalar reference kernels the production hot paths
replaced, as oracles: :func:`candidate_broker_selection` and
:func:`quickselect_union` (CBS), :func:`param_gradient`,
:func:`exploration_bonus` and :func:`reference_arm_bonuses` (NN-UCB
scoring), :func:`reference_commit` (the covariance update),
:func:`reference_replay_arms` / :func:`reference_replay_design` /
:func:`reference_history_design` (per-trial feature rows),
:func:`reference_train_step` (the per-layer training step),
:func:`per_context_estimates` (the day estimate),
:func:`reference_km_insert_row` / :func:`reference_hungarian` (KM's
array-path row insertion), and
:func:`reference_ground_truth_affinity` / :func:`reference_predicted_utility`
(the platform's utilities).
:func:`install_reference_kernels` routes a whole run through them, which
is how the run-level tests prove the shipped kernels bit-identical.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.check.auction import auction_assignment
from repro.check.flow import min_cost_flow_assignment
from repro.check.invariants import oracle_assignment, oracle_optimum
from repro.core.selection import select_candidate_brokers, topk_selection_mask
from repro.matching.hungarian import (
    _hungarian_arrays,
    _hungarian_lists,
    _km_insert_row,
    _padded_cost,
    solve_assignment,
)
from repro.matching.validation import assert_valid_matching

#: Base absolute tolerance when comparing exact solvers.
EXACT_ATOL = 1e-8

#: The auction oracle's advertised relative optimality tolerance.
AUCTION_RTOL = 1e-9

#: Pivot stream of :func:`quickselect_union`.  Quickselect's *output* is
#: provably pivot-independent (see
#: :func:`repro.core.selection.topk_selection_mask`), so the oracle draws
#: its pivots from this private stream and never from a caller's generator.
_PIVOT_SEED = 0


def _scale(weights: np.ndarray) -> float:
    return float(np.max(np.abs(weights))) if weights.size else 1.0


def assert_backends_agree(weights: np.ndarray) -> None:
    """All matching solvers agree on the optimal total weight.

    KM (:func:`solve_assignment`) and the SciPy oracle always run; the
    auction and min-cost-flow oracles additionally run when the instance
    is non-negative (their documented scope).  Every result is
    structurally validated against the weight matrix.
    """
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))

    reference = oracle_assignment(weights)
    assert_valid_matching(reference, weights, atol=atol)
    totals = {"scipy": reference.total_weight}

    repro = solve_assignment(weights)
    assert_valid_matching(repro, weights, atol=atol)
    totals["repro"] = repro.total_weight

    non_negative = weights.size == 0 or float(weights.min()) >= 0.0
    if non_negative:
        auction = auction_assignment(weights)
        assert_valid_matching(auction, weights, atol=atol)
        totals["auction"] = auction.total_weight
        flow = min_cost_flow_assignment(weights)
        assert_valid_matching(flow, weights, atol=atol)
        totals["flow"] = flow.total_weight

    reference_total = totals["scipy"]
    auction_atol = atol + AUCTION_RTOL * _scale(weights) * max(weights.shape[0], 1)
    for solver, total in totals.items():
        tolerance = auction_atol if solver == "auction" else atol
        if abs(total - reference_total) > tolerance:
            raise AssertionError(
                f"solver {solver!r} total {total!r} != scipy total "
                f"{reference_total!r} on shape {weights.shape}:\n{weights!r}"
            )


def assert_incremental_matches_cold(sequence) -> None:
    """Warm-started solves equal cold solves, bitwise, along a sequence.

    Drives one :class:`repro.matching.incremental.IncrementalKMSolver`
    through the matrices in order — so hits, prefix resumptions and cold
    fallbacks all occur — and demands the *exact* cold-reference result at
    every step: identical pair lists (same tie resolution) and bitwise
    equal totals.  Equal-value-but-different matchings are a failure here;
    the incremental solver's contract is bit-identity, which is what keeps
    warm starts invisible in results.  Each step's instance is also pushed
    through :func:`assert_backends_agree`, cross-validating the shared
    optimum across all four solvers.
    """
    from repro.matching.incremental import IncrementalKMSolver

    solver = IncrementalKMSolver()
    for step, weights in enumerate(sequence):
        weights = np.asarray(weights, dtype=float)
        warm = solver.solve(weights, maximize=True)
        cold = solve_assignment(weights)
        if warm.pairs != cold.pairs:
            raise AssertionError(
                f"incremental solve diverged from cold solve at step {step} "
                f"(shape {weights.shape}, stats {solver.stats}): warm pairs "
                f"{warm.pairs!r} != cold pairs {cold.pairs!r}\n{weights!r}"
            )
        if warm.total_weight != cold.total_weight:
            raise AssertionError(
                f"incremental total is not bit-identical at step {step} "
                f"(shape {weights.shape}, stats {solver.stats}): "
                f"{warm.total_weight!r} != {cold.total_weight!r}\n{weights!r}"
            )
        atol = EXACT_ATOL * max(1.0, _scale(weights))
        assert_valid_matching(warm, weights, atol=atol)
        assert_backends_agree(weights)


def reference_km_insert_row(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    row_of_col: np.ndarray,
    way: np.ndarray,
    row: int,
) -> None:
    """Oracle of :func:`repro.matching.hungarian._km_insert_row`: one row
    insertion with every step done in full.

    Each step allocates its running minimum, ``used`` mask and masked
    copy, lowers ``min_reduced`` on strict ``<`` over unused columns,
    takes the first minimum (``np.argmin``'s tie-break) and moves the
    tree's potentials through fancy indexing; there is no step-one exit.
    The production kernel must leave ``u``, ``v`` and ``row_of_col``
    bitwise equal to this after every insertion.
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


def reference_km_state(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference row loop: ``(u, v, row_of_col)`` after inserting the
    rows of a validated, non-empty ``cost`` in order with
    :func:`reference_km_insert_row`."""
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    row_of_col = np.zeros(n_cols + 1, dtype=int)
    way = np.zeros(n_cols + 1, dtype=int)
    for row in range(1, n_rows + 1):
        reference_km_insert_row(cost, u, v, row_of_col, way, row)
    return u, v, row_of_col


def reference_hungarian(cost: np.ndarray) -> np.ndarray:
    """``col_of_row`` of :func:`reference_km_state` — the oracle of both
    of :func:`~repro.matching.hungarian.hungarian`'s paths."""
    _, _, row_of_col = reference_km_state(cost)
    col_of_row = np.zeros(cost.shape[0], dtype=int)
    matched = row_of_col[1:] > 0
    col_of_row[row_of_col[1:][matched] - 1] = np.nonzero(matched)[0]
    return col_of_row


def assert_small_km_matches(weights: np.ndarray) -> None:
    """KM's list path, its array path and the reference row loop agree
    exactly.

    Runs both row-insertion implementations behind
    :func:`~repro.matching.hungarian.hungarian` directly, whichever side
    of :data:`~repro.matching.hungarian.SMALL_KM_COLS` the instance falls
    on, and :func:`reference_hungarian`: on the cost
    :func:`solve_assignment` builds (negated utilities plus a private zero
    column per row) and on the raw matrix as a minimization.
    ``col_of_row`` must be identical three ways — same optimum *and* same
    tie resolution, since run-level bit-identity rests on every path
    picking the same pairs.  The array path's row insertion must also
    leave ``u``, ``v`` and ``row_of_col`` bitwise equal to
    :func:`reference_km_insert_row`'s after every row (int64 views, so a
    signed zero counts): the incremental solver records that state.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] > weights.shape[1]:
        weights = weights.T
    n_rows = weights.shape[0]
    if n_rows == 0:
        return
    padded = _padded_cost(weights, pad_square=False)
    for name, cost in (("padded", padded), ("raw", weights)):
        where = f"the {name} cost of shape {cost.shape}:\n{weights!r}"
        lists = _hungarian_lists(cost)
        arrays = _hungarian_arrays(cost)
        if not np.array_equal(lists, arrays):
            raise AssertionError(f"list KM {lists!r} != array KM {arrays!r} on {where}")
        oracle = reference_hungarian(cost)
        if not np.array_equal(arrays, oracle):
            raise AssertionError(f"array KM {arrays!r} != oracle KM {oracle!r} on {where}")
        assert_km_insertions_match(cost, where)


def assert_km_insertions_match(cost: np.ndarray, where: str | None = None) -> None:
    """KM's array-path row insertion leaves the oracle's state, bit for bit.

    Inserts the rows of a validated, non-empty ``cost`` with
    :func:`~repro.matching.hungarian._km_insert_row` and
    :func:`reference_km_insert_row` in lockstep; ``u``, ``v`` and
    ``row_of_col`` must be bitwise equal after every row.  ``where``
    names the instance in the failure message.
    """
    if where is None:
        where = f"a cost of shape {cost.shape}"
    n_rows, n_cols = cost.shape
    fast, reference = (
        (np.zeros(n_rows + 1), np.zeros(n_cols + 1),
         np.zeros(n_cols + 1, dtype=int), np.zeros(n_cols + 1, dtype=int))
        for _ in range(2)
    )
    for row in range(1, n_rows + 1):
        _km_insert_row(cost, *fast, row)
        reference_km_insert_row(cost, *reference, row)
        for label, got, expected in zip(("u", "v", "row_of_col"), fast, reference):
            _assert_bitwise(f"array KM {label} after row {row}", got, expected, where)


def assert_pad_square_agrees(weights: np.ndarray) -> None:
    """Sec. VI-B square padding returns the same total as the rectangular solve."""
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    rectangular = solve_assignment(weights)
    squared = solve_assignment(weights, pad_square=True)
    assert_valid_matching(squared, weights, atol=atol)
    if abs(rectangular.total_weight - squared.total_weight) > atol:
        raise AssertionError(
            f"pad_square changed the optimal total on shape {weights.shape}: "
            f"rectangular {rectangular.total_weight!r} vs "
            f"square {squared.total_weight!r}\n{weights!r}"
        )


def assert_cbs_preserves(weights: np.ndarray, k: int | None = None) -> None:
    """Theorem 2: pruning columns to the CBS candidate union keeps the optimum.

    Args:
        weights: ``(n_rows, n_cols)`` utility matrix.
        k: per-row candidate size (defaults to ``n_rows``, Corollary 1).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return
    k = weights.shape[0] if k is None else k
    columns = select_candidate_brokers(weights, k)
    full = oracle_optimum(weights)
    pruned = oracle_optimum(weights[:, columns])
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    if pruned < full - atol:
        raise AssertionError(
            f"CBS pruning lost weight on shape {weights.shape}: kept "
            f"{columns.size}/{weights.shape[1]} columns, optimum dropped "
            f"{full!r} -> {pruned!r}\n{weights!r}"
        )


def candidate_broker_selection(
    utilities: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Oracle: indices of the ``k`` largest entries (Alg. 3, ``Top_k^r``).

    The literal Alg. 3: iterative quickselect with random pivots, three-way
    partitioned so duplicate utilities cannot cause quadratic blow-up.  The
    returned index set is unordered (any ``Top_k`` set works for Theorem 2).

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


def assert_topk_matches_bruteforce(row: np.ndarray, k: int, seed: int = 0) -> None:
    """``candidate_broker_selection`` returns exactly a top-``k`` value multiset."""
    row = np.asarray(row, dtype=float)
    selected = candidate_broker_selection(row, k, np.random.default_rng(seed))
    expected_size = min(max(k, 0), row.size)
    if selected.size != expected_size:
        raise AssertionError(
            f"top-{k} of {row.size} values returned {selected.size} indices: "
            f"{selected!r} on {row!r}"
        )
    if np.unique(selected).size != selected.size:
        raise AssertionError(f"duplicate indices in top-{k} selection: {selected!r}")
    got = np.sort(row[selected])[::-1]
    brute = np.sort(row)[::-1][:expected_size]
    if not np.array_equal(got, brute):
        raise AssertionError(
            f"top-{k} values {got!r} differ from brute force {brute!r} on {row!r}"
        )


def quickselect_union(utilities: np.ndarray, k: int) -> np.ndarray:
    """Oracle: the per-row quickselect union of Alg. 3 (Theorem-2 reference).

    Each row runs :func:`candidate_broker_selection` with pivots from a
    private fixed-seed stream, and the union is sorted.  Drops in for
    :func:`~repro.core.selection.select_candidate_brokers`.
    """
    utilities = np.asarray(utilities, dtype=float)
    if utilities.ndim != 2:
        raise ValueError(f"expected a 2-D utility matrix, got shape {utilities.shape}")
    pivot_rng = np.random.default_rng(_PIVOT_SEED)
    selected: set[int] = set()
    for row in utilities:
        selected.update(int(i) for i in candidate_broker_selection(row, k, pivot_rng))
    return np.array(sorted(selected), dtype=int)


def assert_fast_topk_matches_quickselect(
    weights: np.ndarray, k: int, seed: int = 0
) -> None:
    """The ``argpartition`` kernel returns quickselect's sets *exactly*.

    Per row, the production mask must equal the quickselect index set (not
    just a valid ``Top_k``: run-level bit-identity against the oracles
    rests on the sets being the same), and
    :func:`~repro.core.selection.select_candidate_brokers` must return the
    identical batch union as :func:`quickselect_union`.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        weights = weights[None, :]
    mask = topk_selection_mask(weights, k)
    rng = np.random.default_rng(seed)
    for index, row in enumerate(weights):
        fast = np.flatnonzero(mask[index])
        reference = np.sort(candidate_broker_selection(row, k, rng))
        if not np.array_equal(fast, reference):
            raise AssertionError(
                f"fast top-{k} set {fast!r} != quickselect set {reference!r} "
                f"on row {index} of shape {weights.shape}:\n{row!r}"
            )
    fast_union = select_candidate_brokers(weights, k)
    reference_union = quickselect_union(weights, k)
    if not np.array_equal(fast_union, reference_union):
        raise AssertionError(
            f"fast union {fast_union!r} != quickselect union {reference_union!r} "
            f"for k={k} on shape {weights.shape}:\n{weights!r}"
        )


#: Relative tolerance for batched-vs-per-sample MLP agreement.  Batched
#: GEMMs may associate reductions differently than their per-row
#: counterparts, so agreement is to round-off, not to the bit.
BATCHED_MLP_RTOL = 1e-9
BATCHED_MLP_ATOL = 1e-12


def grad_vector(network) -> np.ndarray:
    """The network's accumulated training gradients as one flat vector.

    Laid out in :meth:`~repro.nn.MLP.param_vector` order.
    """
    chunks = []
    for layer in network.layers:
        chunks.append(layer.grad_weight.ravel())
        chunks.append(layer.grad_bias.ravel())
    return np.concatenate(chunks)


def param_gradient(network, x: np.ndarray) -> np.ndarray:
    """Oracle: per-sample gradient ``g_theta(x)`` by the training backprop.

    Zeroes the layers' gradient buffers, runs
    :meth:`~repro.nn.MLP.forward` / :meth:`~repro.nn.MLP.backward` on the
    one row and reads :func:`grad_vector`, then puts the saved training
    gradients back.  :meth:`~repro.nn.MLP.sample_gradient` must be bitwise
    equal to it.
    """
    if network.output_dim != 1:
        raise ValueError("param_gradient requires a scalar-output network")
    saved = [(layer.grad_weight.copy(), layer.grad_bias.copy()) for layer in network.layers]
    network.zero_grad()
    network.forward(np.atleast_2d(x))
    network.backward(np.ones((1, 1)))
    gradient = grad_vector(network)
    for layer, (grad_w, grad_b) in zip(network.layers, saved):
        layer.grad_weight[:] = grad_w
        layer.grad_bias[:] = grad_b
    return gradient


def param_gradients(network, x: np.ndarray) -> np.ndarray:
    """Oracle: ``(batch, num_params)`` per-sample gradients by einsum.

    Row ``i`` is ``param_gradient(network, x[i])`` in
    :meth:`~repro.nn.MLP.param_vector` order, computed by an independent
    batched backward pass (local caches, outer products batched with
    einsum).  Agrees with the per-sample path to round-off.
    """
    if network.output_dim != 1:
        raise ValueError("param_gradients requires a scalar-output network")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != network.input_dim:
        raise ValueError(
            f"expected input of shape (batch, {network.input_dim}), got {x.shape}"
        )
    batch = x.shape[0]
    activations = [x]
    masks: list[np.ndarray] = []
    out = x
    for layer in network.layers[:-1]:
        out = out @ layer.weight.T + layer.bias
        mask = out > 0.0
        masks.append(mask)
        out = out * mask
        activations.append(out)
    per_layer: list[tuple[np.ndarray, np.ndarray]] = []
    grad = np.ones((batch, 1))
    for index in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[index]
        grad_weight = np.einsum("no,nj->noj", grad, activations[index])
        per_layer.append((grad_weight.reshape(batch, -1), grad))
        if index > 0:
            grad = (grad @ layer.weight) * masks[index - 1]
    chunks: list[np.ndarray] = []
    for grad_weight, grad_bias in reversed(per_layer):
        chunks.append(grad_weight)
        chunks.append(grad_bias)
    return np.concatenate(chunks, axis=1)


def exploration_bonus(bandit, gradient: np.ndarray) -> float:
    """Oracle: ``sqrt(g^T D^-1 g)`` of one gradient under the bandit's ``D``."""
    if bandit._d_inv is not None:
        value = float(gradient @ bandit._d_inv @ gradient)
    else:
        value = float(np.sum(gradient**2 / bandit._d_diag))
    return float(np.sqrt(max(value, 0.0)))


def exploration_bonuses(bandit, gradients: np.ndarray) -> np.ndarray:
    """Oracle: ``sqrt(g^T D^-1 g)`` of an NN-UCB bandit over gradient rows.

    The diagonal regime reduces each row with the same pairwise summation
    as :func:`exploration_bonus`, so it is bit-identical to that per-row
    path; the ``"full"`` regime loops it.
    """
    gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
    if bandit._d_inv is not None:
        values = np.array([float(row @ bandit._d_inv @ row) for row in gradients])
    else:
        values = (gradients**2 / bandit._d_diag).sum(axis=1)
    return np.sqrt(np.maximum(values, 0.0))


def reference_arm_bonuses(bandit, inputs: list, signals: list) -> np.ndarray:
    """Oracle for :meth:`~repro.bandits.NNUCBBandit.arm_bonuses`: per-arm loop.

    Every arm row ``inputs[0][i]`` gets its own :func:`param_gradient`
    pass, reduced by :func:`exploration_bonus`.  ``signals`` is unused:
    the oracle recomputes each gradient from its row.
    """
    return np.array(
        [exploration_bonus(bandit, param_gradient(bandit.network, row)) for row in inputs[0]]
    )


def reference_commit(bandit, chosen: int, context: np.ndarray) -> None:
    """Oracle for :meth:`~repro.bandits.NNUCBBandit._commit` (queued) and
    ``_commit_now`` (a scored commit applied at once on reused buffers).

    Counts the pull, rebuilds the chosen arm's row with ``_features``,
    takes its :func:`param_gradient` and applies ``D <- D + g g^T`` at
    once: ``D += g**2`` on the diagonal, a Sherman-Morrison step on the
    full inverse.
    """
    bandit._arm_pulls[chosen] += 1
    row = bandit._features(context, float(bandit.capacities[chosen]))
    gradient = param_gradient(bandit.network, row)
    if bandit._d_inv is not None:
        d_inv_g = bandit._d_inv @ gradient
        bandit._d_inv -= np.outer(d_inv_g, d_inv_g) / (1.0 + float(gradient @ d_inv_g))
    else:
        bandit._d_diag += gradient**2


def reference_replay_arms(bandit) -> np.ndarray:
    """Oracle for ``NNUCBBandit._replay_arms``: read off the replay triples."""
    return np.array([triple.workload for triple in bandit._replay])


def reference_replay_design(bandit, picked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``NNUCBBandit._replay_design``: ``_features`` per picked trial."""
    triples = [bandit._replay[i] for i in picked]
    rows = np.stack([bandit._features(t.context, float(t.workload)) for t in triples])
    return rows, np.array([t.reward for t in triples])


def reference_history_design(estimator, broker_id: int) -> tuple:
    """Oracle for ``PersonalizedCapacityEstimator._history_design``.

    Rebuilds every trial's row of the broker's history with ``_features``
    on every call.
    """
    history = estimator._history[broker_id]
    return (
        np.stack([estimator.base._features(t.context, float(t.workload)) for t in history]),
        np.array([float(t.workload) for t in history]),
        np.array([t.reward for t in history]),
    )


def reference_train_step(network, inputs, targets, optimizer, lam: float = 0.0) -> float:
    """Oracle for :meth:`~repro.nn.MLP.train_step`: the per-layer step.

    Zeroes each layer's gradients, backpropagates layer by layer down to
    the input gradient, adds the L2 gradient of a rebuilt
    :meth:`~repro.nn.MLP.param_vector` slice by slice, and runs the Adam
    update tensor by tensor on per-layer views of the optimizer's moments.
    The production step must leave ``theta``, the moments, the step count
    and the returned loss bitwise equal.
    """
    from repro.nn.losses import l2_penalty, mse_loss

    targets = np.asarray(targets, dtype=float).reshape(-1)
    for layer in network.layers:
        layer.zero_grad()
    predictions = network.predict(inputs)
    loss, grad_pred = mse_loss(predictions, targets)
    grad = network.layers[-1].backward(np.atleast_2d(grad_pred.reshape(-1, 1)))
    for layer, mask in zip(reversed(network.layers[:-1]), reversed(network._relu_masks)):
        grad = layer.backward(grad * mask)
    if lam > 0.0:
        reg_loss, reg_grad = l2_penalty(network.param_vector(), lam)
        loss += reg_loss
        offset = 0
        for layer in network.layers:
            w_size = layer.weight.size
            layer.grad_weight += reg_grad[offset : offset + w_size].reshape(layer.weight.shape)
            offset += w_size
            b_size = layer.bias.size
            layer.grad_bias += reg_grad[offset : offset + b_size]
            offset += b_size
    optimizer.allocate(network)
    optimizer._step_count += 1
    bias1 = 1.0 - optimizer.beta1**optimizer._step_count
    bias2 = 1.0 - optimizer.beta2**optimizer._step_count
    moments = optimizer.layer_moments()
    for index, layer in enumerate(network.layers):
        m_w, v_w, m_b, v_b = moments[index]
        for moment, second, grad, param in (
            (m_w, v_w, layer.grad_weight, layer.weight),
            (m_b, v_b, layer.grad_bias, layer.bias),
        ):
            moment *= optimizer.beta1
            moment += (1.0 - optimizer.beta1) * grad
            second *= optimizer.beta2
            second += (1.0 - optimizer.beta2) * grad**2
            param -= (
                optimizer.learning_rate
                * (moment / bias1)
                / (np.sqrt(second / bias2) + optimizer.eps)
            )
    return loss


def per_context_estimates(estimator, contexts: np.ndarray, broker_ids: np.ndarray) -> np.ndarray:
    """Oracle for a day-batched ``_estimate_rows``: ``estimate`` per row, in order."""
    return np.array(
        [
            estimator.estimate(context, int(broker_id))
            for context, broker_id in zip(contexts, broker_ids)
        ],
        dtype=float,
    )


def reference_match_score(population, stream, request_indices) -> np.ndarray:
    """Oracle for :func:`~repro.simulation.utility.match_score`: full grid.

    Normalizes every broker's district and house-type preference rows by
    their max on every call, then weights and sums all five terms over the
    whole ``(n_requests, |B|)`` grid.
    """
    from repro.simulation.brokers import MATCH_WEIGHTS

    request_indices = np.asarray(request_indices, dtype=int)
    n = request_indices.size
    district_fit = population.district_pref[:, stream.district[request_indices]].T
    district_fit = district_fit / np.maximum(
        population.district_pref.max(axis=1)[None, :], 1e-12
    )
    type_fit = population.type_pref[:, stream.house_type[request_indices]].T
    type_fit = type_fit / np.maximum(population.type_pref.max(axis=1)[None, :], 1e-12)
    price_fit = 1.0 - np.abs(
        stream.price[request_indices][:, None] - population.price_pref[None, :]
    )
    area_fit = 1.0 - np.abs(
        stream.area[request_indices][:, None] - population.area_pref[None, :]
    )
    response_fit = np.broadcast_to(
        population.response_rate[None, :], (n, len(population))
    )
    return (
        MATCH_WEIGHTS["district"] * district_fit
        + MATCH_WEIGHTS["type"] * type_fit
        + MATCH_WEIGHTS["price"] * price_fit
        + MATCH_WEIGHTS["area"] * area_fit
        + MATCH_WEIGHTS["response"] * response_fit
    )


def reference_ground_truth_affinity(
    population, stream, request_indices, broker_indices=None
) -> np.ndarray:
    """Oracle for :func:`~repro.simulation.utility.ground_truth_affinity`.

    Always builds the whole affinity grid from :func:`reference_match_score`;
    pair affinities are read off it, one entry per row.
    """
    from repro.simulation.utility import MATCH_FLOOR

    request_indices = np.asarray(request_indices, dtype=int)
    fit = reference_match_score(population, stream, request_indices)
    affinity = population.base_quality[None, :] * (
        MATCH_FLOOR + (1.0 - MATCH_FLOOR) * fit
    )
    affinity = affinity * stream.value_multiplier[request_indices][:, None]
    if broker_indices is None:
        return affinity
    return affinity[np.arange(request_indices.size), np.asarray(broker_indices, dtype=int)]


def reference_predicted_utility(population, stream, request_indices) -> np.ndarray:
    """Oracle for :func:`~repro.simulation.utility.predicted_utility`."""
    from repro.simulation.utility import PREDICTION_NOISE_SCALE

    request_indices = np.asarray(request_indices, dtype=int)
    affinity = reference_ground_truth_affinity(population, stream, request_indices)
    noise = stream.noise_embedding[request_indices] @ population.noise_embedding.T
    return np.clip(affinity * (1.0 + PREDICTION_NOISE_SCALE * noise), 1e-6, 1.0)


def install_reference_kernels(patch) -> None:
    """Route NN-UCB scoring, the covariance commit, the training and
    personalization feature rows, every training step, the day estimate,
    CBS, every KM solve and the platform's utilities through the oracles.

    ``patch`` is a :class:`pytest.MonkeyPatch` (or anything with its
    ``setattr(target, name, value)``); it scopes and undoes the change.
    CBS is replaced where :mod:`repro.core.vfga` looks it up, the utility
    functions where :mod:`repro.simulation.platform` does; both of
    :func:`~repro.matching.hungarian.hungarian`'s paths become
    :func:`reference_hungarian`, so every KM solve runs the oracle.
    A seeded run must be bit-identical with or without the oracles
    installed.
    """
    from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
    from repro.core import vfga
    from repro.nn import MLP
    from repro.simulation import platform

    # The module, not the same-named function re-exported by repro.matching.
    km = importlib.import_module("repro.matching.hungarian")

    patch.setattr(NNUCBBandit, "arm_bonuses", reference_arm_bonuses)
    patch.setattr(NNUCBBandit, "_commit", reference_commit)
    patch.setattr(NNUCBBandit, "_commit_now", reference_commit)
    patch.setattr(NNUCBBandit, "_replay_arms", reference_replay_arms)
    patch.setattr(NNUCBBandit, "_replay_design", reference_replay_design)
    patch.setattr(NNUCBBandit, "_estimate_rows", per_context_estimates)
    patch.setattr(MLP, "train_step", reference_train_step)
    patch.setattr(PersonalizedCapacityEstimator, "_estimate_rows", per_context_estimates)
    patch.setattr(PersonalizedCapacityEstimator, "_history_design", reference_history_design)
    patch.setattr(vfga, "select_candidate_brokers", quickselect_union)
    patch.setattr(km, "_hungarian_lists", reference_hungarian)
    patch.setattr(km, "_hungarian_arrays", reference_hungarian)
    patch.setattr(platform, "ground_truth_affinity", reference_ground_truth_affinity)
    patch.setattr(platform, "predicted_utility", reference_predicted_utility)


def _assert_bitwise(name: str, got: np.ndarray, expected: np.ndarray, where: str) -> None:
    if got.shape != expected.shape or not np.array_equal(
        got.view(np.int64), expected.view(np.int64)
    ):
        raise AssertionError(
            f"{name} is not bitwise equal to its oracle on {where}:\n"
            f"{got!r}\nvs\n{expected!r}"
        )


def assert_platform_utilities_match(case: tuple) -> None:
    """Platform utilities equal the full-grid oracles, bit for bit.

    Drives a small city day by day with random (deliberately poor)
    assignments, so appeals block pairs and re-queue requests and skill
    growth moves ``base_quality``.  On every batch it compares, as int64
    views: :func:`~repro.simulation.utility.predicted_utility`, the full
    :func:`~repro.simulation.utility.ground_truth_affinity` grid and the
    pair-only affinity against :func:`reference_predicted_utility` /
    :func:`reference_ground_truth_affinity`, and
    :meth:`~repro.simulation.platform.RealEstatePlatform.predicted_utilities`
    against the oracle grid with the blocked pairs zeroed one request at a
    time.  Halfway through it snapshots the platform; at the end it
    restores that snapshot, into the same platform and into a freshly
    generated one, and replays the remaining days under the same checks.

    Args:
        case: ``(config_kwargs, seed)`` — :class:`SyntheticConfig` fields
            and the assignment-draw seed (see
            :func:`repro.check.property.random_platform_case`).
    """
    from repro.core.types import AssignedPair, Assignment
    from repro.simulation import SyntheticConfig, generate_city
    from repro.simulation.utility import ground_truth_affinity, predicted_utility

    config_kwargs, seed = case
    config = SyntheticConfig(**config_kwargs)

    def check_batch(platform, requests, brokers, where):
        population, stream = platform.population, platform.stream
        oracle = reference_predicted_utility(population, stream, requests)
        blocked_oracle = oracle.copy()
        for row, request_id in enumerate(requests):
            blocked = platform._blocked_pairs.get(int(request_id))
            if blocked:
                blocked_oracle[row, list(blocked)] = 0.0
        for name, got, expected in (
            ("predicted_utility", predicted_utility(population, stream, requests), oracle),
            (
                "ground_truth_affinity",
                ground_truth_affinity(population, stream, requests),
                reference_ground_truth_affinity(population, stream, requests),
            ),
            (
                "pair affinity",
                ground_truth_affinity(population, stream, requests, brokers),
                reference_ground_truth_affinity(population, stream, requests, brokers),
            ),
            (
                "RealEstatePlatform.predicted_utilities",
                platform.predicted_utilities(requests),
                blocked_oracle,
            ),
        ):
            _assert_bitwise(name, got, expected, where)

    def drive(platform, days, rng, label):
        for day in days:
            platform.start_day(day)
            for batch in range(platform.batches_per_day):
                requests = platform.batch_requests(day, batch)
                brokers = rng.integers(0, platform.num_brokers, size=requests.size)
                where = f"{label} day {day} batch {batch} of {config}"
                check_batch(platform, requests, brokers, where)
                pairs = [
                    AssignedPair(int(r), int(b), 0.0) for r, b in zip(requests, brokers)
                ]
                platform.submit_assignment(Assignment(day, batch, pairs))
            platform.finish_day()

    platform = generate_city(config)
    half = config.num_days // 2
    drive(platform, range(half), np.random.default_rng(seed), "straight")
    snapshot = platform.snapshot()
    drive(platform, range(half, config.num_days), np.random.default_rng(seed + 1), "straight")
    for label, target in (("restored", platform), ("rebuilt", generate_city(config))):
        target.restore(snapshot)
        drive(target, range(half, config.num_days), np.random.default_rng(seed + 1), label)


def assert_batched_scoring_matches(case: tuple) -> None:
    """The block kernel's gradients and bonuses match the per-sample path.

    Checks :meth:`repro.nn.MLP.forward_backward` (means bitwise equal to
    :meth:`~repro.nn.MLP.predict`), the gradient rows built from its
    ``(delta, a)`` parts, and the gradient-free diagonal reduction
    :func:`repro.nn.mlp.weighted_gradient_norms` against one
    :func:`param_gradient` pass per row.

    Args:
        case: ``(layer_sizes, inputs, net_seed)`` — an MLP architecture
            (scalar output), a ``(batch, input_dim)`` design matrix, and
            the network-initialization seed.
    """
    from repro.nn import MLP
    from repro.nn.mlp import gradient_rows, weighted_gradient_norms

    layer_sizes, inputs, net_seed = case
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    network = MLP(layer_sizes, np.random.default_rng(net_seed))
    outputs, activations, signals = network.forward_backward(inputs)
    if not np.array_equal(outputs, network.predict(inputs)):
        raise AssertionError(
            f"forward_backward outputs differ from predict on layers {layer_sizes}"
        )
    batched = gradient_rows(activations, signals)
    reference = np.stack([param_gradient(network, row) for row in inputs])
    if batched.shape != reference.shape:
        raise AssertionError(
            f"batched gradient shape {batched.shape} != per-sample shape "
            f"{reference.shape} for layers {layer_sizes}"
        )
    if not np.allclose(batched, reference, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL):
        worst = float(np.max(np.abs(batched - reference)))
        raise AssertionError(
            f"batched gradient rows deviate from per-sample path by "
            f"{worst!r} on layers {layer_sizes}, batch {inputs.shape}"
        )
    # The diagonal-covariance bonus must agree too (it is the quantity the
    # UCB scores actually consume).
    diag = np.abs(np.random.default_rng(net_seed + 1).normal(size=network.num_params)) + 0.5
    batched_bonus = np.sqrt(
        np.maximum(weighted_gradient_norms(activations, signals, 1.0 / diag), 0.0)
    )
    reference_bonus = np.array(
        [np.sqrt(max(float(np.sum(row**2 / diag)), 0.0)) for row in reference]
    )
    if not np.allclose(
        batched_bonus, reference_bonus, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL
    ):
        raise AssertionError(
            f"batched exploration bonus deviates from per-sample path on "
            f"layers {layer_sizes}: {batched_bonus!r} vs {reference_bonus!r}"
        )


def assert_train_step_matches(case: tuple) -> None:
    """:meth:`~repro.nn.MLP.train_step` equals :func:`reference_train_step`, bitwise.

    Two identical networks and Adam optimizers take the same minibatch
    steps, one through each path; after every step ``theta``, the flat
    moments, the step count and the returned loss must be bitwise equal.

    Args:
        case: ``(layer_sizes, inputs, targets, net_seed, lam, minibatch,
            steps)`` — see :func:`repro.check.property.random_train_case`.
            Step ``k`` trains on rows ``[k * minibatch, (k + 1) *
            minibatch)``, so the last minibatch may be short.
    """
    from repro.nn import MLP, Adam

    layer_sizes, inputs, targets, net_seed, lam, minibatch, steps = case
    networks = [MLP(layer_sizes, np.random.default_rng(net_seed)) for _ in range(2)]
    optimizers = [Adam(0.01) for _ in range(2)]
    where = f"layers {layer_sizes}, lam={lam}, minibatch {minibatch}"
    for step in range(steps):
        rows = slice(step * minibatch, (step + 1) * minibatch)
        got = networks[0].train_step(inputs[rows], targets[rows], optimizers[0], lam=lam)
        expected = reference_train_step(
            networks[1], inputs[rows], targets[rows], optimizers[1], lam=lam
        )
        at = f"{where}, step {step}"
        _assert_bitwise("loss", np.array([got]), np.array([expected]), at)
        _assert_bitwise("theta", networks[0].theta, networks[1].theta, at)
        _assert_bitwise("first moment", optimizers[0]._first, optimizers[1]._first, at)
        _assert_bitwise("second moment", optimizers[0]._second, optimizers[1]._second, at)
        if optimizers[0]._step_count != optimizers[1]._step_count:
            raise AssertionError(f"Adam step counts differ on {at}")


#: Context width of the batched-estimate property's estimators.
ESTIMATE_CONTEXT_DIM = 4


def _estimate_case_estimator(kind: str, rng: np.random.Generator, explore_run: int):
    """A small, partly trained estimator of ``kind`` for the batch property.

    Warm-up days estimate and feed back a random subset of a broker pool,
    so the batch under test meets every route: global coverage (no warm-up
    days), epsilon draws, structured personal exploration, the generic
    fallback (too little broker history) and personalized UCB.  With an
    ``explore_run`` a personalized estimator explores at least once per
    broker, so the run's fresh brokers never score.
    """
    from repro.bandits import (
        NeuralThompsonBandit,
        NNUCBBandit,
        PersonalizedCapacityEstimator,
    )
    from repro.core.config import BanditConfig

    num_arms = int(rng.integers(2, 8))
    capacities = rng.choice(np.arange(1.0, 41.0), size=num_arms, replace=False)
    if rng.random() < 0.7:
        capacities = np.sort(capacities)
    config = BanditConfig(
        candidate_capacities=capacities,
        hidden_sizes=(4,) if kind == "full" else (8, 4),
        covariance="full" if kind == "full" else "diagonal",
        min_arm_pulls=int(rng.integers(0, 3)),
        epsilon=float(rng.choice([0.0, 0.25])),
        batch_size=8,
        train_epochs=1,
        replay_sample=32,
        minibatch=16,
    )
    cls = NeuralThompsonBandit if kind == "thompson" else NNUCBBandit
    base = cls(ESTIMATE_CONTEXT_DIM, config, rng)
    estimator = base
    if kind in ("residual", "linear"):
        estimator = PersonalizedCapacityEstimator(
            base,
            min_triples=int(rng.integers(1, 3)),
            mode=kind,
            personal_explore=max(int(rng.integers(0, 3)), int(explore_run > 0)),
        )
    pool = int(rng.integers(1, 40))
    for _ in range(int(rng.integers(0, 4))):
        contexts = rng.normal(size=(pool, ESTIMATE_CONTEXT_DIM))
        chosen = estimator.estimate_batch(contexts, np.arange(pool))
        for broker_id in np.flatnonzero(rng.random(pool) < 0.6):
            estimator.update(
                contexts[broker_id],
                float(rng.integers(0, 40)),
                float(rng.uniform()),
                int(broker_id),
                capacity=float(chosen[broker_id]),
            )
    return estimator


def assert_batched_estimate_matches(case: tuple) -> None:
    """Day-batched ``estimate_batch`` equals the per-broker ``estimate`` loop.

    Two deep copies of one estimator decide the same broker rows — one
    through the block kernel of :meth:`CapacityEstimator.estimate_batch`,
    one by calling ``estimate`` per row with every covariance update
    applied at once by :func:`reference_commit` and every personalization
    row rebuilt by :func:`reference_history_design` — and must end with
    identical capacities, bitwise-equal ``_d_diag`` / ``_d_inv``,
    ``_arm_pulls``, personal ``_pull_count`` and RNG state, and scores
    within :data:`BATCHED_MLP_RTOL`.  With ``audit`` on, both must record
    the same ``(broker, capacity, rule)`` notes with mean/bonus within
    tolerance.

    Args:
        case: ``(kind, num_brokers, audit, seed, explore_run)`` — kind is
            one of ``"nnucb"``, ``"residual"``, ``"linear"``,
            ``"thompson"`` or ``"full"``; the batch opens with
            ``explore_run`` never-seen brokers, whose commits a
            personalized estimator queues without scoring, before its
            ``num_brokers`` drawn rows (see
            :func:`repro.check.property.random_estimate_case`).
    """
    import copy
    import functools

    from repro.obs.audit import AuditConfig, DecisionAudit
    from repro.obs.telemetry import Telemetry, use as use_telemetry

    kind, num_brokers, audit, seed, explore_run = case
    rng = np.random.default_rng(seed)
    estimator = _estimate_case_estimator(kind, rng, explore_run)
    contexts = rng.normal(size=(explore_run + num_brokers, ESTIMATE_CONTEXT_DIM))
    broker_ids = np.concatenate(
        [1000 + np.arange(explore_run), rng.integers(0, 48, size=num_brokers)]
    )

    def run(batched: bool):
        twin = copy.deepcopy(estimator)
        base = getattr(twin, "base", twin)
        if not batched:
            base._commit = base._commit_now = functools.partial(reference_commit, base)
            if twin is not base:
                twin._history_design = functools.partial(reference_history_design, twin)
        scores: list[np.ndarray] = []
        combine = base.combine_scores

        def recording(means, bonuses):
            scores.append(combine(means, bonuses))
            return scores[-1]

        base.combine_scores = recording
        telemetry = Telemetry()
        if audit:
            telemetry.audit_session = DecisionAudit(AuditConfig(), 1, kind)
        with use_telemetry(telemetry):
            if batched:
                capacities = twin.estimate_batch(contexts, broker_ids)
            else:
                capacities = per_context_estimates(twin, contexts, broker_ids)
        notes = telemetry.audit_session._capacity_notes if audit else []
        return twin, base, capacities, scores, notes

    batched, batched_base, got, got_scores, got_notes = run(True)
    looped, looped_base, expected, expected_scores, expected_notes = run(False)
    where = (
        f"{kind} estimator, {explore_run} + {num_brokers} brokers, audit={audit}, seed={seed}"
    )
    if not np.array_equal(got, expected):
        raise AssertionError(f"capacities differ on {where}: {got!r} vs {expected!r}")
    for name in ("_d_diag", "_d_inv", "_arm_pulls"):
        left, right = getattr(batched_base, name), getattr(looped_base, name)
        if (left is None) != (right is None) or (
            left is not None and left.tobytes() != right.tobytes()
        ):
            raise AssertionError(f"bandit {name} is not bitwise equal on {where}")
    if batched_base._rng.bit_generator.state != looped_base._rng.bit_generator.state:
        raise AssertionError(f"RNG state differs on {where}")
    if getattr(batched, "_pull_count", None) != getattr(looped, "_pull_count", None):
        raise AssertionError(f"personal pull counts differ on {where}")
    if len(got_scores) != len(expected_scores) or not all(
        np.allclose(a, b, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL)
        for a, b in zip(got_scores, expected_scores)
    ):
        raise AssertionError(f"arm scores differ beyond round-off on {where}")
    if [n[:3] for n in got_notes] != [n[:3] for n in expected_notes]:
        raise AssertionError(f"audit (broker, capacity, rule) notes differ on {where}")
    for left, right in zip(got_notes, expected_notes):
        for a, b in zip(left[3:], right[3:]):
            if (a is None) != (b is None) or (
                a is not None
                and not np.isclose(a, b, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL)
            ):
                raise AssertionError(f"audit mean/bonus differ on {where}: {left} vs {right}")
