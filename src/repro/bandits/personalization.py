"""Personalized capacity estimation by layer transfer (Sec. V-D).

A single generic bandit cannot capture broker-specific workload-response
patterns (Fig. 3), yet per-broker data is too sparse to train independent
networks.  The paper's remedy: keep the shared reward model's first
``L - 1`` layers as a common representation and adapt only the output
mapping per broker on that broker's own observations.

Two realizations of the broker-specific output adaptation are provided:

- ``"residual"`` (default) — a kernel-smoothed, shrunk correction curve
  over the capacity arms, fit to the broker's *residuals* against the
  shared model.  A broker whose own trials show (say) that capacity 25
  out-performs what the generic model expects gets its reward curve bent
  upward around 25.  Unlike a linear re-weighting of shared features, this
  can express broker-specific interior peaks — the defining property of
  the Fig. 3 curves — from a handful of observations.
- ``"linear"`` — the literal last-layer fine-tune: an anchored ridge refit
  of the final dense layer on broker data.  Kept as an ablation; with few
  samples concentrated on one arm it cannot bend the curve against the
  shared trend (measurably weaker, see the personalization bench).

Because capacity choices gate what can be observed, each broker's first
few estimates follow a fixed spread of arms across the grid (structured
per-broker exploration) — otherwise a top broker pinned at one arm never
produces the data its own fine-tuning needs.
"""

from __future__ import annotations

import numpy as np

from repro.bandits.base import CapacityEstimator
from repro.bandits.neural_ucb import NNUCBBandit
from repro.core.types import TrialTriple, triples_from_state, triples_to_state
from repro.state.protocol import expect, versioned

#: Grid quantiles visited by each broker's first estimates (structured
#: exploration): mid, upper, low, high — enough spread to sketch the
#: broker's own response curve.
EXPLORE_QUANTILES = (0.4, 0.7, 0.15, 0.9)


class PersonalizedCapacityEstimator(CapacityEstimator):
    """Generic NN-UCB base model plus per-broker output corrections.

    Args:
        base: the shared NN-enhanced UCB bandit (trained on all triples).
        min_triples: broker-specific observations required before that
            broker's correction kicks in (cold-start safety).
        mode: ``"residual"`` or ``"linear"`` (see module docstring).
        kernel_width: capacity-units bandwidth of the residual kernel.
        prior_mass: shrinkage mass pulling corrections toward zero — the
            equivalent number of pseudo-observations agreeing with the
            shared model.
        anchor_strength: ridge weight for the ``"linear"`` mode.
        max_history: per-broker observation window kept for fine-tuning.
        personal_explore: how many structured exploration pulls each broker
            makes before following its personalized UCB argmax.
    """

    def __init__(
        self,
        base: NNUCBBandit,
        min_triples: int = 3,
        mode: str = "residual",
        kernel_width: float = 10.0,
        prior_mass: float = 2.0,
        anchor_strength: float = 1.0,
        max_history: int = 64,
        personal_explore: int = len(EXPLORE_QUANTILES),
    ) -> None:
        if mode not in ("residual", "linear"):
            raise ValueError(f"mode must be 'residual' or 'linear', got {mode!r}")
        if kernel_width <= 0 or prior_mass <= 0 or anchor_strength <= 0:
            raise ValueError("kernel_width, prior_mass and anchor_strength must be positive")
        self.base = base
        self.min_triples = min_triples
        self.mode = mode
        self.kernel_width = kernel_width
        self.prior_mass = prior_mass
        self.anchor_strength = anchor_strength
        self.max_history = max_history
        self.personal_explore = min(personal_explore, len(EXPLORE_QUANTILES))
        self._history: dict[int, list[TrialTriple]] = {}
        # Per broker: the history's feature rows, arm values and rewards,
        # built on first use and then extended as trials arrive.
        self._history_columns: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pull_count: dict[int, int] = {}
        self._linear_heads: dict[int, np.ndarray] = {}

    @property
    def capacities(self) -> np.ndarray:
        """The shared candidate capacity set ``C``."""
        return self.base.capacities

    def num_personalized(self) -> int:
        """How many brokers currently have enough data for a correction."""
        return sum(
            1 for history in self._history.values() if len(history) >= self.min_triples
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _personal_means(self, broker_id, means: np.ndarray, inputs: list) -> np.ndarray | None:
        """The broker's personalized arm means from the shared pass's parts.

        ``None`` when the broker has fewer than ``min_triples`` own trials
        (it scores on the shared means).  The ``"linear"`` head reads the
        activations entering the last layer — ``inputs[-1]`` of the pass,
        the shared representation — and the ``"residual"`` mode shifts the
        shared means; the bonus stays the base bandit's, against the shared
        ``D``.
        """
        if broker_id is None or len(self._history.get(broker_id, ())) < self.min_triples:
            return None
        if self.mode == "linear" and broker_id in self._linear_heads:
            features = inputs[-1]
            design = np.hstack([features, np.ones((features.shape[0], 1))])
            return design @ self._linear_heads[broker_id]
        return means + self._residual_correction(broker_id)

    def _residual_correction(self, broker_id: int) -> np.ndarray:
        """Kernel-smoothed, shrunk residual curve over the arm grid."""
        if len(self._history.get(broker_id, ())) < self.min_triples:
            return np.zeros(self.base.capacities.size)
        rows, arms, rewards = self._history_design(broker_id)
        residuals = rewards - self.base.network.predict(rows)
        # Gaussian kernel weights of each own-trial arm against each grid arm.
        distances = (self.base.capacities[:, None] - arms[None, :]) / self.kernel_width
        weights = np.exp(-0.5 * distances**2)
        return (weights @ residuals) / (weights.sum(axis=1) + self.prior_mass)

    def _history_design(self, broker_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The broker's history as ``(feature rows, arm values, rewards)``.

        Each trial's row is built once: the first call for a broker builds
        the rows of its history so far, and :meth:`update` appends to them.
        The per-trial ``_features`` rebuild is the oracle
        :func:`repro.check.differential.reference_history_design`.
        """
        columns = self._history_columns.get(broker_id)
        if columns is None:
            history = self._history[broker_id]
            columns = (
                np.stack([self.base._features(t.context, float(t.workload)) for t in history]),
                np.array([float(t.workload) for t in history]),
                np.array([t.reward for t in history]),
            )
            self._history_columns[broker_id] = columns
        return columns

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, context: np.ndarray, broker_id: int | None = None) -> float:
        """Structured exploration, then personalized UCB argmax."""
        contexts = np.atleast_2d(np.asarray(context, dtype=float))
        explore_arms = [self._explore_arm(broker_id)]
        return float(
            self.base._decide_day(
                contexts, [broker_id], explore_arms, self._personal_means, blocked=False
            )[0]
        )

    def _estimate_rows(self, contexts: np.ndarray, broker_ids: np.ndarray) -> np.ndarray:
        """Day-batched :meth:`estimate`: the base bandit's day loop.

        Rows still in structured exploration take their fixed arm unscored
        (and are left out of the blocked passes); every other row scores on
        its personalized means, or on the shared ones before the broker has
        ``min_triples`` own trials.
        """
        broker_ids = broker_ids.astype(int).tolist()
        explore_arms = [self._explore_arm(broker_id) for broker_id in broker_ids]
        return self.base._decide_day(contexts, broker_ids, explore_arms, self._personal_means)

    def _explore_arm(self, broker_id) -> int | None:
        """The broker's next structured-exploration arm, counting the pull,
        or ``None`` once its ``personal_explore`` pulls are spent."""
        pulls = self._pull_count.get(broker_id, 0)
        if broker_id is None or pulls >= self.personal_explore:
            return None
        self._pull_count[broker_id] = pulls + 1
        return int(round(EXPLORE_QUANTILES[pulls] * (self.base.capacities.size - 1)))

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def update(
        self,
        context: np.ndarray,
        workload: float,
        reward: float,
        broker_id: int | None = None,
        capacity: float | None = None,
    ) -> None:
        """Update the shared base model and the broker's private history."""
        self.base.update(context, workload, reward, broker_id, capacity)
        if broker_id is None:
            return
        # Same rounding on both paths as NNUCBBandit.update — truncation
        # would split one arm bucket across kernel/stratification arms.
        if self.base.config.train_on == "capacity" and capacity is not None:
            arm_input = int(round(capacity))
        else:
            arm_input = int(round(workload))
        # A copy: the caller's row is usually a view of the whole day's
        # context matrix, which a stored view would keep alive.
        context = np.array(context, dtype=float)
        history = self._history.setdefault(broker_id, [])
        history.append(TrialTriple(context, arm_input, float(reward)))
        if len(history) > self.max_history:
            del history[: len(history) - self.max_history]
        columns = self._history_columns.get(broker_id)
        if columns is not None:
            rows, arms, rewards = columns
            row = self.base._features(context, float(arm_input))
            first = rows.shape[0] + 1 - len(history)
            self._history_columns[broker_id] = (
                np.concatenate([rows[first:], row[None]]),
                np.append(arms[first:], float(arm_input)),
                np.append(rewards[first:], float(reward)),
            )
        if self.mode == "linear" and len(history) >= self.min_triples:
            self._fit_linear_head(broker_id)

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot: the shared base bandit plus per-broker state."""
        return versioned(
            "bandits.personalized",
            {
                "base": self.base.snapshot(),
                "history": {
                    broker_id: triples_to_state(history)
                    for broker_id, history in self._history.items()
                },
                "pull_count": dict(self._pull_count),
                "linear_heads": {
                    broker_id: head.copy()
                    for broker_id, head in self._linear_heads.items()
                },
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` (base bandit included)."""
        payload = expect(state, "bandits.personalized")
        self.base.restore(payload["base"])
        self._history = {
            int(broker_id): triples_from_state(history)
            for broker_id, history in payload["history"].items()
        }
        self._history_columns = {}
        self._pull_count = {
            int(broker_id): int(count)
            for broker_id, count in payload["pull_count"].items()
        }
        self._linear_heads = {
            int(broker_id): np.array(head, dtype=float)
            for broker_id, head in payload["linear_heads"].items()
        }

    def _fit_linear_head(self, broker_id: int) -> None:
        """Anchored ridge refit of the last layer (the ``"linear"`` mode)."""
        last = self.base.network.layers[-1]
        anchor = np.concatenate([last.weight[0], last.bias])
        rows, _, targets = self._history_design(broker_id)
        features = self.base.network.hidden_features(rows)
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        gram = design.T @ design + self.anchor_strength * np.eye(design.shape[1])
        rhs = design.T @ targets + self.anchor_strength * anchor
        self._linear_heads[broker_id] = np.linalg.solve(gram, rhs)
