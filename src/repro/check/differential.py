"""Differential oracles: independent implementations must agree.

Each ``assert_*`` function cross-validates two or more routes to the same
answer on one concrete instance and raises ``AssertionError`` with a
replayable description on disagreement.  They are the check functions the
:mod:`repro.check.property` harness drives over randomized instances, and
they are equally usable on a single hand-built instance in a regression
test.

The agreements checked:

* ``repro`` vs ``scipy`` (vs ``auction`` / min-cost-flow where their
  preconditions hold): equal optimal totals, structurally valid matchings.
  Totals — not pair sets — are compared: optima are frequently non-unique
  (ties), and the solvers legitimately differ on zero-weight pairs (the
  auction backend drops them; the Hungarian backend reports them).
* ``pad_square=True`` vs the rectangular solve: Sec. VI-B's dummy-vertex
  squaring is a pure running-time experiment and must not change results.
* CBS pruning vs the unpruned instance (Theorem 2): equal optimal totals.
* the warm-started incremental KM solver vs a fresh cold solve, over a
  whole perturbation sequence: *bit-identical* pairs and totals at every
  step (not merely equal optima — the incremental path promises the exact
  reference result), with every step additionally cross-validated across
  all four backends.
* ``candidate_broker_selection`` vs brute-force ``np.sort`` top-k.
* the ``argpartition`` production kernel vs the quickselect oracle:
  exactly equal per-row ``Top_k`` sets and batch unions (see
  :func:`repro.core.selection.topk_selection_mask`).
* batched MLP scoring (``forward_backward`` gradient rows and the
  gradient-free diagonal bonus) vs the per-sample reference path, to
  floating-point round-off.
* the day-batched ``estimate_batch`` vs the per-broker ``estimate`` loop:
  identical capacities and bitwise-identical bandit state.

It also holds the scalar reference kernels the production hot paths
replaced, as oracles: :func:`quickselect_union` (CBS),
:func:`reference_arm_bonuses` (NN-UCB scoring) and
:func:`per_context_estimates` (the day estimate).
:func:`install_reference_kernels` routes a whole run through them, which
is how the run-level tests prove the shipped kernels bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.check.auction import auction_assignment
from repro.check.flow import min_cost_flow_assignment
from repro.core.selection import (
    candidate_broker_selection,
    select_candidate_brokers,
    topk_selection_mask,
)
from repro.matching.hungarian import solve_assignment
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

    The ``repro`` and ``scipy`` backends always run; the auction and
    min-cost-flow oracles additionally run when the instance is
    non-negative (their documented scope).  Every result is structurally
    validated against the weight matrix.
    """
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))

    reference = solve_assignment(weights, maximize=True, backend="scipy")
    assert_valid_matching(reference, weights, atol=atol)
    totals = {"scipy": reference.total_weight}

    repro = solve_assignment(weights, maximize=True, backend="repro")
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
    for backend, total in totals.items():
        tolerance = auction_atol if backend == "auction" else atol
        if abs(total - reference_total) > tolerance:
            raise AssertionError(
                f"backend {backend!r} total {total!r} != scipy total "
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
        cold = solve_assignment(weights, maximize=True, backend="repro")
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


def assert_pad_square_agrees(weights: np.ndarray, backend: str = "repro") -> None:
    """Sec. VI-B square padding returns the same total as the rectangular solve."""
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    rectangular = solve_assignment(weights, maximize=True, backend=backend)
    squared = solve_assignment(
        weights, maximize=True, backend=backend, pad_square=True
    )
    assert_valid_matching(squared, weights, atol=atol)
    if abs(rectangular.total_weight - squared.total_weight) > atol:
        raise AssertionError(
            f"pad_square changed the optimal total on shape {weights.shape}: "
            f"rectangular {rectangular.total_weight!r} vs "
            f"square {squared.total_weight!r}\n{weights!r}"
        )


def assert_cbs_preserves(weights: np.ndarray, k: int | None = None, seed: int = 0) -> None:
    """Theorem 2: pruning columns to the CBS candidate union keeps the optimum.

    Args:
        weights: ``(n_rows, n_cols)`` utility matrix.
        k: per-row candidate size (defaults to ``n_rows``, Corollary 1).
        seed: CBS pivot randomness (pruning is randomized; the theorem must
            hold for every pivot sequence).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return
    k = weights.shape[0] if k is None else k
    columns = select_candidate_brokers(weights, k, np.random.default_rng(seed))
    full = solve_assignment(weights, maximize=True, backend="scipy")
    pruned = solve_assignment(weights[:, columns], maximize=True, backend="scipy")
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    if pruned.total_weight < full.total_weight - atol:
        raise AssertionError(
            f"CBS pruning lost weight on shape {weights.shape}: kept "
            f"{columns.size}/{weights.shape[1]} columns, optimum dropped "
            f"{full.total_weight!r} -> {pruned.total_weight!r}\n{weights!r}"
        )


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


def quickselect_union(
    utilities: np.ndarray, k: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Oracle: the per-row quickselect union of Alg. 3 (Theorem-2 reference).

    Each row runs :func:`~repro.core.selection.candidate_broker_selection`
    with pivots from a private fixed-seed stream, and the union is sorted.
    ``rng`` is accepted so the oracle drops in for
    :func:`~repro.core.selection.select_candidate_brokers`; it is never
    consumed.
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
    fast_union = select_candidate_brokers(weights, k, rng)
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


def param_gradients(network, x: np.ndarray) -> np.ndarray:
    """Oracle: ``(batch, num_params)`` per-sample gradients by einsum.

    Row ``i`` is ``network.param_gradient(x[i])`` in
    :meth:`~repro.nn.MLP.grad_vector` order, computed by an independent
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


def exploration_bonuses(bandit, gradients: np.ndarray) -> np.ndarray:
    """Oracle: ``sqrt(g^T D^-1 g)`` of an NN-UCB bandit over gradient rows.

    The diagonal regime reduces each row with the same pairwise summation
    as :meth:`~repro.bandits.NNUCBBandit.exploration_bonus`, so it is
    bit-identical to that per-row path; the ``"full"`` regime loops it.
    """
    gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
    if bandit._d_inv is not None:
        values = np.array([float(row @ bandit._d_inv @ row) for row in gradients])
    else:
        values = (gradients**2 / bandit._d_diag).sum(axis=1)
    return np.sqrt(np.maximum(values, 0.0))


def reference_arm_bonuses(bandit, inputs: list, signals: list) -> np.ndarray:
    """Oracle for :meth:`~repro.bandits.NNUCBBandit.arm_bonuses`: per-arm loop.

    Every arm row ``inputs[0][i]`` gets its own
    :meth:`~repro.nn.MLP.param_gradient` pass, reduced by
    :meth:`~repro.bandits.NNUCBBandit.exploration_bonus`.  ``signals`` is
    unused: the oracle recomputes each gradient from its row.
    """
    return np.array(
        [bandit.exploration_bonus(bandit.network.param_gradient(row)) for row in inputs[0]]
    )


def per_context_estimates(estimator, contexts: np.ndarray, broker_ids: np.ndarray) -> np.ndarray:
    """Oracle for a day-batched ``_estimate_rows``: ``estimate`` per row, in order."""
    return np.array(
        [
            estimator.estimate(context, int(broker_id))
            for context, broker_id in zip(contexts, broker_ids)
        ],
        dtype=float,
    )


def install_reference_kernels(patch) -> None:
    """Route NN-UCB scoring, the day estimate and CBS through the oracles.

    ``patch`` is a :class:`pytest.MonkeyPatch` (or anything with its
    ``setattr(target, name, value)``); it scopes and undoes the change.
    CBS is replaced where :mod:`repro.core.vfga` looks it up.  A seeded
    run must be bit-identical with or without the oracles installed.
    """
    from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
    from repro.core import vfga

    patch.setattr(NNUCBBandit, "arm_bonuses", reference_arm_bonuses)
    patch.setattr(NNUCBBandit, "_estimate_rows", per_context_estimates)
    patch.setattr(PersonalizedCapacityEstimator, "_estimate_rows", per_context_estimates)
    patch.setattr(vfga, "select_candidate_brokers", quickselect_union)


def assert_batched_scoring_matches(case: tuple) -> None:
    """The block kernel's gradients and bonuses match the per-sample path.

    Checks :meth:`repro.nn.MLP.forward_backward` (means bitwise equal to
    :meth:`~repro.nn.MLP.predict`), the gradient rows built from its
    ``(delta, a)`` parts, and the gradient-free diagonal reduction
    :func:`repro.nn.mlp.weighted_gradient_norms` against one
    :meth:`~repro.nn.MLP.param_gradient` pass per row.

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
    reference = np.stack([network.param_gradient(row) for row in inputs])
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


#: Context width of the batched-estimate property's estimators.
ESTIMATE_CONTEXT_DIM = 4


def _estimate_case_estimator(kind: str, rng: np.random.Generator):
    """A small, partly trained estimator of ``kind`` for the batch property.

    Warm-up days estimate and feed back a random subset of a broker pool,
    so the batch under test meets every route: global coverage (no warm-up
    days), epsilon draws, structured personal exploration, the generic
    fallback (too little broker history) and personalized UCB.
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
            personal_explore=int(rng.integers(0, 3)),
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
    one by calling ``estimate`` per row — and must end with identical
    capacities, bitwise-equal ``_d_diag`` / ``_d_inv``, ``_arm_pulls``,
    personal ``_pull_count`` and RNG state, and scores within
    :data:`BATCHED_MLP_RTOL`.  With ``audit`` on, both must record the same
    ``(broker, capacity, rule)`` notes with mean/bonus within tolerance.

    Args:
        case: ``(kind, num_brokers, audit, seed)`` — kind is one of
            ``"nnucb"``, ``"residual"``, ``"linear"``, ``"thompson"`` or
            ``"full"`` (see :func:`repro.check.property.random_estimate_case`).
    """
    import copy

    from repro.obs.audit import AuditConfig, DecisionAudit
    from repro.obs.telemetry import Telemetry, use as use_telemetry

    kind, num_brokers, audit, seed = case
    rng = np.random.default_rng(seed)
    estimator = _estimate_case_estimator(kind, rng)
    contexts = rng.normal(size=(num_brokers, ESTIMATE_CONTEXT_DIM))
    broker_ids = rng.integers(0, 48, size=num_brokers)

    def run(batched: bool):
        twin = copy.deepcopy(estimator)
        base = getattr(twin, "base", twin)
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
    where = f"{kind} estimator, {num_brokers} brokers, audit={audit}, seed={seed}"
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
