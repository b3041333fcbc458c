"""Least-squares gradient boosting over regression trees."""

from __future__ import annotations

import numpy as np

from repro.boosting.tree import RegressionTree
from repro.state.protocol import expect, rng_state, set_rng_state, versioned


class GradientBoostedTrees:
    """Gradient boosting with shrinkage and row subsampling.

    For squared loss the negative gradient is the residual, so each round
    fits a small tree to the current residuals and the ensemble adds it
    with a shrinkage factor — the core of the XGBoost-style learner the
    paper assumes for ``u_{r,b}``.

    Args:
        num_rounds: number of boosting rounds (trees).
        learning_rate: shrinkage factor on each tree's contribution.
        max_depth: depth of each tree.
        subsample: row-subsampling fraction per round.
        min_samples_leaf: minimum samples per leaf.
        rng: subsampling randomness (required when ``subsample < 1``).
    """

    def __init__(
        self,
        num_rounds: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 5,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if subsample < 1.0 and rng is None:
            raise ValueError("subsample < 1 requires an rng")
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.rng = rng
        self._base: float = 0.0
        self._trees: list[RegressionTree] = []
        self.train_losses: list[float] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostedTrees":
        """Fit the ensemble; records the per-round training MSE."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inconsistent shapes: features {features.shape}, targets {targets.shape}"
            )
        self._trees = []
        self.train_losses = []
        self._base = float(targets.mean())
        predictions = np.full(targets.shape[0], self._base)
        for _ in range(self.num_rounds):
            residuals = targets - predictions
            if self.subsample < 1.0:
                size = max(1, int(self.subsample * targets.shape[0]))
                rows = self.rng.choice(targets.shape[0], size=size, replace=False)
            else:
                rows = np.arange(targets.shape[0])
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(features[rows], residuals[rows])
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(features)
            self.train_losses.append(float(np.mean((targets - predictions) ** 2)))
        return self

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot: base value, every tree, losses, subsample RNG."""
        return versioned(
            "boosting.gbdt",
            {
                "base": float(self._base),
                "trees": [tree.snapshot() for tree in self._trees],
                "train_losses": [float(loss) for loss in self.train_losses],
                "rng": None if self.rng is None else rng_state(self.rng),
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` (trees are rebuilt in order)."""
        payload = expect(state, "boosting.gbdt")
        self._base = float(payload["base"])
        trees = []
        for tree_state in payload["trees"]:
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.restore(tree_state)
            trees.append(tree)
        self._trees = trees
        self.train_losses = [float(loss) for loss in payload["train_losses"]]
        if self.rng is not None and payload["rng"] is not None:
            set_rng_state(self.rng, payload["rng"])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ensemble prediction for a ``(n, d)`` design matrix."""
        if not self._trees:
            raise RuntimeError("predict() called before fit()")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.full(features.shape[0], self._base)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(features)
        return out
