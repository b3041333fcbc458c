"""NN-enhanced UCB — the paper's capacity-estimation policy (Alg. 1).

The linear reward model of LinUCB is replaced by an MLP ``S_theta(x, c)``
(Eq. 4) and the exploration bonus uses the network's parameter gradient
(Eq. 5):

    UCB_{x,c} = S_theta(x, c) + alpha * sqrt(g_theta(x, c)^T D^{-1} g_theta(x, c))

``D`` starts at ``lambda I`` and accumulates gradient outer products of the
chosen arms (Alg. 1 line 12).  Because ``D`` is ``d x d`` for a ``d``-
parameter network, two regimes are supported:

- ``"full"`` — exact ``D`` with Sherman-Morrison updates of its inverse;
  only practical for small reward models (tests, ablations);
- ``"diagonal"`` — the standard NeuralUCB-style diagonal approximation,
  the default for realistic network sizes.

Observed trial triples ``(x, w, s)`` accumulate in a buffer of
``batchSize`` (preset 16, Sec. VII-A) and flushing the buffer minimizes the
regularized squared loss of Eq. 6.
"""

from __future__ import annotations

import numpy as np

from repro.bandits.base import CapacityEstimator
from repro.core.config import BanditConfig
from repro.core.types import TrialTriple, triples_from_state, triples_to_state
from repro.nn import MLP, Adam
from repro.nn.mlp import gradient_rows, weighted_gradient_norms
from repro.obs import audit as obs_audit
from repro.obs import telemetry as obs
from repro.state.protocol import (
    StateError,
    expect,
    rng_state,
    set_rng_state,
    versioned,
)


#: Contexts per blocked forward/backward scoring pass
#: (:meth:`NNUCBBandit.estimate_batch`).  One pass holds every layer's
#: activations and back-propagated signals for ``SCORING_BLOCK * |C|`` arm
#: rows — about 1.4 MB for 82 inputs, the default 11-arm grid and (64, 16)
#: hidden layers — while amortizing NumPy's per-call overhead across the
#: block.
SCORING_BLOCK = 64


class ArmBlocks:
    """Lazily computed blocked passes over a day's scoring contexts.

    ``blocks(row)`` returns ``(means, inputs, signals)`` — the
    :meth:`repro.nn.MLP.forward_backward` parts — for the ``|C|`` arm rows
    of ``contexts[row]``.  The first request for a row not covered by the
    current block runs one pass over that row and the next
    ``SCORING_BLOCK - 1`` rows flagged in ``may_score``; rows never
    requested before their block is passed over cost nothing, and rows not
    flagged are never passed at all.  The network must not change while
    the blocks are in use (it does not within one ``begin_day``).
    """

    def __init__(
        self, bandit: "NNUCBBandit", contexts: np.ndarray, may_score: np.ndarray
    ) -> None:
        self._bandit = bandit
        self._contexts = contexts
        self._queue = np.flatnonzero(may_score)
        self._slots: dict[int, int] = {}
        self._parts: tuple[np.ndarray, list[np.ndarray], list[np.ndarray]] | None = None

    def __call__(self, row: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        slot = self._slots.get(row)
        if slot is None:
            start = int(np.searchsorted(self._queue, row))
            rows = self._queue[start : start + SCORING_BLOCK]
            if rows.size == 0 or rows[0] != row:
                raise KeyError(f"context row {row} was not flagged as scoring")
            self._slots = {int(r): k for k, r in enumerate(rows)}
            self._parts = self._bandit.network.forward_backward(
                self._bandit.arm_feature_rows(self._contexts[rows])
            )
            slot = 0
        arms = self._bandit.capacities.size
        lo, hi = slot * arms, (slot + 1) * arms
        means, inputs, signals = self._parts
        return (
            means[lo:hi],
            [activation[lo:hi] for activation in inputs],
            [signal[lo:hi] for signal in signals],
        )


class NNUCBBandit(CapacityEstimator):
    """Contextual bandit ``B_{theta,D}`` with an MLP reward model.

    Args:
        context_dim: dimension of the working-status context ``x``.
        config: bandit hyper-parameters (Alg. 1 inputs).
        rng: randomness source for Gaussian parameter initialization.
    """

    def __init__(
        self,
        context_dim: int,
        config: BanditConfig,
        rng: np.random.Generator,
    ) -> None:
        if context_dim <= 0:
            raise ValueError(f"context_dim must be positive, got {context_dim}")
        self.config = config
        self.capacities = np.asarray(config.candidate_capacities, dtype=float)
        self._cap_norm = float(self.capacities.max())
        layer_sizes = [context_dim + 1 + self.capacities.size, *config.hidden_sizes, 1]
        self.network = MLP(layer_sizes, rng)
        self.optimizer = Adam(config.learning_rate)
        self._rng = rng
        self._arm_pulls = np.zeros(self.capacities.size, dtype=int)
        dim = self.network.num_params
        if config.covariance == "full":
            self._d_inv: np.ndarray | None = np.eye(dim) / config.lam
            self._d_diag: np.ndarray | None = None
        else:
            self._d_inv = None
            self._d_diag = np.full(dim, config.lam)
        self._buffer: list[TrialTriple] = []
        self._replay: list[TrialTriple] = []
        self.num_updates = 0
        self.num_train_steps = 0
        # Context-independent tail of every grid arm's feature row
        # ``[x; c/|C|max; onehot]`` — scoring rebuilds only the context part.
        self._arm_row_tail = np.stack(
            [self._features(np.empty(0), c) for c in self.capacities]
        )
        # Decision provenance: while an audit session is active, scoring
        # stashes its (means, bonuses) split here so the chosen arm's
        # components can be recorded without recomputing anything.
        self.last_score_parts: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Scoring (Eq. 5)
    # ------------------------------------------------------------------
    def _features(self, context: np.ndarray, capacity: float) -> np.ndarray:
        """Joint input ``[x; c]``: context, scaled capacity, one-hot arm.

        The scalar alone gets smoothed away during training — it is one
        feature among dozens and the reward's dependence on it is a small
        bump, so the fit degenerates to a monotone trend and the argmax
        pins to an endpoint.  A one-hot of the nearest grid arm gives every
        arm its own first-layer weights, making per-arm reward levels
        trivially expressible while the scalar keeps the ordinal structure.
        """
        onehot = np.zeros(self.capacities.size)
        onehot[int(np.argmin(np.abs(self.capacities - capacity)))] = 1.0
        return np.concatenate(
            [np.asarray(context, dtype=float), [capacity / self._cap_norm], onehot]
        )

    def arm_feature_rows(self, context: np.ndarray) -> np.ndarray:
        """Feature rows of every grid arm for one context or a batch of them.

        A ``(context_dim,)`` context gives ``(|C|, input_dim)`` rows; an
        ``(n, context_dim)`` batch gives ``(n * |C|, input_dim)`` rows,
        context-major.  Bitwise-identical to stacking :meth:`_features` per
        arm (pure copies), but the capacity-scalar / one-hot tail is
        precomputed at construction instead of being rebuilt on every
        scoring call.
        """
        contexts = np.atleast_2d(np.asarray(context, dtype=float))
        return np.concatenate(
            [
                np.repeat(contexts, self.capacities.size, axis=0),
                np.tile(self._arm_row_tail, (contexts.shape[0], 1)),
            ],
            axis=1,
        )

    def predicted_rewards(self, context: np.ndarray) -> np.ndarray:
        """``S_theta(x, c)`` for every candidate capacity, in one batch."""
        return self.network.predict(self.arm_feature_rows(context))

    def exploration_bonus(self, gradient: np.ndarray) -> float:
        """``sqrt(g^T D^{-1} g)`` under the configured covariance regime."""
        if self._d_inv is not None:
            value = float(gradient @ self._d_inv @ gradient)
        else:
            value = float(np.sum(gradient**2 / self._d_diag))
        return float(np.sqrt(max(value, 0.0)))

    def arm_parts(
        self, context: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """One context's :class:`ArmBlocks` parts: ``(means, inputs, signals)``."""
        return self.network.forward_backward(self.arm_feature_rows(context))

    def arm_bonuses(self, inputs: list[np.ndarray], signals: list[np.ndarray]) -> np.ndarray:
        """``sqrt(g^T D^{-1} g)`` per arm row from forward/backward parts.

        The diagonal regime never builds the ``(|C|, d)`` gradient rows:
        with ``g_W = delta (x) a`` per layer,

            g^T diag(D)^-1 g = sum_l (delta_l^2)^T (1/D_W,l) (a_l^2)
                                     + (delta_l^2)^T (1/D_b,l),

        one small GEMM per layer against the current ``D``
        (:func:`repro.nn.mlp.weighted_gradient_norms`).  The ``"full"``
        regime builds the rows from the same parts and reduces them with
        ``D^-1``.  The per-arm :meth:`repro.nn.MLP.param_gradient` loop this
        replaces is the oracle
        :func:`repro.check.differential.reference_arm_bonuses`.
        """
        if self._d_inv is not None:
            rows = gradient_rows(inputs, signals)
            values = ((rows @ self._d_inv) * rows).sum(axis=1)
        else:
            values = weighted_gradient_norms(inputs, signals, 1.0 / self._d_diag)
        return np.sqrt(np.maximum(values, 0.0))

    def score_parts(
        self, parts: tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]
    ) -> np.ndarray:
        """Scores of every arm from :class:`ArmBlocks` parts (Eq. 5)."""
        means, inputs, signals = parts
        return self._scores_from(means, self.arm_bonuses(inputs, signals))

    def _scores_from(self, means: np.ndarray, bonuses: np.ndarray) -> np.ndarray:
        """Combine means and bonuses; stash the split for decision audits."""
        if obs_audit.current() is not None:
            self.last_score_parts = (means, bonuses)
        return self.combine_scores(means, bonuses)

    def combine_scores(self, means: np.ndarray, bonuses: np.ndarray) -> np.ndarray:
        """Eq. 5's ``mean + alpha * bonus`` — the score-combination hook.

        Subclasses change how the bonus enters the score here and nothing
        else (:class:`~repro.bandits.thompson.NeuralThompsonBandit` draws
        its posterior noise in this hook).
        """
        return means + self.config.alpha * bonuses

    def ucb_scores(self, context: np.ndarray) -> np.ndarray:
        """Upper confidence bound of every candidate capacity (Eq. 5).

        A one-context call of the day-batched kernel: the arms' forward /
        backward pass, then :meth:`arm_bonuses` against the current ``D``.
        """
        return self.score_parts(self.arm_parts(context))

    # ------------------------------------------------------------------
    # Alg. 1: explore, update covariance, learn from feedback
    # ------------------------------------------------------------------
    def select_arm(self, context: np.ndarray) -> int:
        """Arm index with maximum UCB, with three practical safeguards.

        1. *Coverage*: while some arm has fewer than ``min_arm_pulls``
           global pulls, the least-pulled arm is chosen — without it the
           untrained network's near-constant scores make ``argmax``
           systematically return one arbitrary capacity and the reward
           model never sees the rest of the grid.
        2. *Epsilon exploration*: capacity choices gate which workloads can
           be observed, so a small exploration floor keeps data flowing.
        3. *Conservative indifference*: among arms whose score is within
           ``tie_tolerance`` of the maximum, the smallest capacity wins.
           A demand-limited broker's reward is flat in its own capacity, so
           its argmax is noise — yet granting it a huge capacity lets the
           matcher overload it the day demand shifts.  Brokers with a real
           learned peak are unaffected (their peak clears the tolerance).
        """
        return self._pick(self.ucb_scores, context)

    def _pick(self, score_fn, context: np.ndarray) -> int:
        return self._pick_explain(lambda: score_fn(context))[0]

    def _pick_explain(self, score) -> tuple[int, str]:
        """:meth:`_pick` plus the rule that fired (for decision audits).

        ``score()`` returns every arm's score; it is called only when the
        UCB rule decides.  Returns ``(arm_index, rule)`` with rule one of
        ``"coverage"`` (least-pulled arm under the global pull floor),
        ``"epsilon"`` (exploration draw), or ``"ucb"`` (score argmax with
        the conservative tie-break).  Consumes exactly the same randomness
        as before the split — audited runs stay bit-identical.
        """
        self.last_score_parts = None
        if self._arm_pulls.min() < self.config.min_arm_pulls:
            return int(np.argmin(self._arm_pulls)), "coverage"
        if self.config.epsilon > 0 and self._rng.random() < self.config.epsilon:
            return int(self._rng.integers(self.capacities.size)), "epsilon"
        scores = score()
        spread = float(scores.max() - scores.min())
        threshold = scores.max() - self.config.tie_tolerance * max(spread, 1e-12)
        qualified = np.nonzero(scores >= threshold)[0]
        # Smallest capacity *value* among the near-max arms — not the lowest
        # index, which is only the same thing when the grid is sorted
        # ascending (BanditConfig accepts arbitrary arm orderings).
        return int(qualified[np.argmin(self.capacities[qualified])]), "ucb"

    def _note_choice(
        self, broker_id: int | None, chosen: int, capacity: float, rule: str
    ) -> None:
        """Record a capacity choice into the active audit session (if any).

        The mean/bonus split is whatever the scoring path stashed in
        ``last_score_parts`` — absent for coverage/epsilon picks, which
        never scored.  Always clears the stash so a later un-scored pick
        cannot report a stale split.
        """
        parts, self.last_score_parts = self.last_score_parts, None
        session = obs_audit.current()
        if session is None or broker_id is None:
            return
        mean = bonus = None
        if parts is not None:
            means, bonuses = parts
            mean, bonus = float(means[chosen]), float(bonuses[chosen])
        session.note_capacity(broker_id, capacity, rule, mean=mean, bonus=bonus)

    def estimate(self, context: np.ndarray, broker_id: int | None = None) -> float:
        """Choose the capacity with maximum UCB; update ``D`` (line 12)."""
        return self._estimate_scored(context, broker_id, lambda: self.ucb_scores(context))

    def _estimate_scored(self, context: np.ndarray, broker_id: int | None, score) -> float:
        """:meth:`estimate` with the arm scores supplied by ``score()``."""
        chosen, rule = self._pick_explain(score)
        capacity = float(self.capacities[chosen])
        self._note_choice(broker_id, chosen, capacity, rule)
        self._commit(chosen, context)
        return capacity

    def _estimate_rows(self, contexts: np.ndarray, broker_ids: np.ndarray) -> np.ndarray:
        """Day-batched :meth:`estimate`: blocked passes, sequential decisions.

        The network is fixed for the whole call, so the arms' means,
        activations and back-propagated signals come from
        :class:`ArmBlocks`; only the ``D``-dependent bonus reduction, the
        RNG draws and the covariance update run per context, in the same
        order as the per-context loop.
        """
        blocks = ArmBlocks(self, contexts, np.ones(contexts.shape[0], dtype=bool))
        return np.array(
            [
                self._estimate_scored(
                    contexts[row],
                    int(broker_id),
                    lambda row=row: self.score_parts(blocks(row)),
                )
                for row, broker_id in enumerate(broker_ids)
            ],
            dtype=float,
        )

    def _commit(self, chosen: int, context: np.ndarray) -> None:
        """Count the pull and update ``D`` with the chosen arm's gradient.

        The gradient is a one-row pass (:meth:`repro.nn.MLP.sample_gradient`,
        bitwise :meth:`~repro.nn.MLP.param_gradient`): batched GEMM rows
        differ from it by round-off, and ``D`` accumulates every update, so
        only the one-row gradient keeps the covariance state bit-identical
        to the reference oracles and across batch sizes.
        """
        self._arm_pulls[chosen] += 1
        # Bitwise ``_features(context, capacities[chosen])``: the arm's
        # precomputed tail carries the same scaled capacity and one-hot.
        row = np.concatenate([np.asarray(context, dtype=float), self._arm_row_tail[chosen]])
        self._update_covariance(self.network.sample_gradient(row))

    def _update_covariance(self, gradient: np.ndarray) -> None:
        """``D <- D + g g^T`` (diagonal: ``D <- D + g*g``)."""
        if self._d_inv is not None:
            d_inv_g = self._d_inv @ gradient
            denom = 1.0 + float(gradient @ d_inv_g)
            self._d_inv -= np.outer(d_inv_g, d_inv_g) / denom
        else:
            self._d_diag += gradient**2

    def update(
        self,
        context: np.ndarray,
        workload: float,
        reward: float,
        broker_id: int | None = None,
        capacity: float | None = None,
    ) -> None:
        """Buffer the trial; train when the buffer reaches batchSize.

        The stored arm input is the chosen capacity when ``train_on`` is
        ``"capacity"`` and a capacity was supplied (Alg. 1 line 16),
        otherwise the realized workload (Eq. 6 variant).  Both paths bucket
        by *rounding*: truncating the workload path would split what is one
        arm bucket (e.g. workloads 4.9 and 5.0) across two
        :meth:`_stratified_sample` strata.
        """
        if self.config.train_on == "capacity" and capacity is not None:
            arm_input = int(round(capacity))
        else:
            arm_input = int(round(workload))
        self._buffer.append(
            TrialTriple(np.asarray(context, dtype=float), arm_input, float(reward))
        )
        self.num_updates += 1
        obs.add("bandit.updates")
        if len(self._buffer) >= self.config.batch_size:
            self._train_on_buffer()

    def _train_on_buffer(self) -> None:
        """Minimize the regularized loss of Eq. 6 over buffered history.

        The fresh buffer is folded into a capped replay of past trials and
        the network trains on a random sample of that history — retraining
        only on the 16 newest samples would forget everything earlier.
        """
        steps_before = self.num_train_steps
        with obs.span("bandit.train"):
            self._train_on_buffer_inner()
        obs.add("bandit.train_steps", self.num_train_steps - steps_before)

    def _train_on_buffer_inner(self) -> None:
        self._replay.extend(self._buffer)
        self._buffer.clear()
        if len(self._replay) > self.config.replay_size:
            del self._replay[: len(self._replay) - self.config.replay_size]

        picked = self._stratified_sample()
        sample_size = picked.size
        rows = np.stack(
            [
                self._features(self._replay[i].context, float(self._replay[i].workload))
                for i in picked
            ]
        )
        targets = np.array([self._replay[i].reward for i in picked])
        batch = self.config.minibatch
        for _ in range(self.config.train_epochs):
            order = self._rng.permutation(sample_size)
            for start in range(0, sample_size, batch):
                chunk = order[start : start + batch]
                self.network.train_step(
                    rows[chunk], targets[chunk], self.optimizer, lam=self.config.lam
                )
                self.num_train_steps += 1

    def _stratified_sample(self) -> np.ndarray:
        """Replay indices balanced across arm values.

        The selection policy concentrates pulls on whatever region it
        currently prefers, so the raw replay is heavily imbalanced (one arm
        can hold >80% of the samples) and a uniform sample would fit that
        arm's mean everywhere.  Sampling an (approximately) equal number of
        rows per distinct arm value keeps the whole reward curve in view.
        """
        arms = np.array([triple.workload for triple in self._replay])
        unique = np.unique(arms)
        per_arm = max(1, self.config.replay_sample // unique.size)
        chunks = []
        for arm in unique:
            indices = np.nonzero(arms == arm)[0]
            if indices.size > per_arm:
                indices = self._rng.choice(indices, size=per_arm, replace=False)
            chunks.append(indices)
        return np.concatenate(chunks)

    def flush(self) -> None:
        """Force-train on a partially filled buffer (end-of-run cleanup)."""
        if self._buffer:
            self._train_on_buffer()

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    #: Snapshot kind; subclasses with identical state override it so a
    #: snapshot can never be restored into a different policy by accident.
    STATE_KIND = "bandits.nnucb"

    def snapshot(self) -> dict:
        """Deep snapshot: model, optimizer, covariance, history, RNG."""
        return versioned(
            self.STATE_KIND,
            {
                "network": self.network.snapshot(),
                "optimizer": self.optimizer.snapshot(),
                "rng": rng_state(self._rng),
                "arm_pulls": self._arm_pulls.copy(),
                "d_inv": None if self._d_inv is None else self._d_inv.copy(),
                "d_diag": None if self._d_diag is None else self._d_diag.copy(),
                "buffer": triples_to_state(self._buffer),
                "replay": triples_to_state(self._replay),
                "num_updates": int(self.num_updates),
                "num_train_steps": int(self.num_train_steps),
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot`; the RNG is restored *in place*.

        In-place RNG restoration preserves stream sharing: the algorithm
        registry hands one generator to both the bandit and the assigner,
        and a resumed run must interleave their draws exactly as the
        uninterrupted run would.
        """
        payload = expect(state, self.STATE_KIND)
        arm_pulls = np.asarray(payload["arm_pulls"], dtype=int)
        if arm_pulls.shape != self._arm_pulls.shape:
            raise StateError(
                f"bandit snapshot has {arm_pulls.size} arms, "
                f"this bandit has {self._arm_pulls.size}"
            )
        self.network.restore(payload["network"])
        self.optimizer.restore(payload["optimizer"])
        set_rng_state(self._rng, payload["rng"])
        self._arm_pulls = arm_pulls.copy()
        d_inv, d_diag = payload["d_inv"], payload["d_diag"]
        if (d_inv is None) != (self._d_inv is None):
            raise StateError(
                "bandit snapshot covariance regime does not match the config "
                f"({'full' if d_inv is not None else 'diagonal'} vs "
                f"{self.config.covariance!r})"
            )
        self._d_inv = None if d_inv is None else np.array(d_inv, dtype=float)
        self._d_diag = None if d_diag is None else np.array(d_diag, dtype=float)
        self._buffer = triples_from_state(payload["buffer"])
        self._replay = triples_from_state(payload["replay"])
        self.num_updates = int(payload["num_updates"])
        self.num_train_steps = int(payload["num_train_steps"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def theorem1_parameters(self) -> tuple[int, int, float]:
        """``(L, |C|, xi)`` feeding the Theorem 1 regret bound."""
        return self.network.depth, int(self.capacities.size), self.network.max_singular_value()
