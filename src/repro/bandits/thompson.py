"""Neural Thompson Sampling — the stochastic alternative to UCB.

The contextual-bandit literature the paper builds on (Sec. VIII) contains
two main exploration principles: optimism (LinUCB / NeuralUCB, what LACB
uses) and posterior sampling (Thompson).  Neural Thompson Sampling (Zhang
et al., 2021) scores each arm by a *sample* from an approximate Gaussian
posterior whose variance is the same gradient-covariance form as the UCB
bonus:

    score(x, c) ~ Normal( S_theta(x, c),  nu^2 * g^T D^{-1} g )

This class reuses the NN-enhanced UCB machinery (network, covariance,
replay training, safeguards) and swaps the arm-selection rule, so the
UCB-vs-TS comparison isolates exactly the exploration principle.
"""

from __future__ import annotations

import numpy as np

from repro.bandits.neural_ucb import NNUCBBandit
from repro.core.config import BanditConfig


class NeuralThompsonBandit(NNUCBBandit):
    """NN-enhanced Thompson sampling over candidate capacities.

    Args:
        context_dim: dimension of the working-status context ``x``.
        config: shared bandit hyper-parameters; ``config.alpha`` plays the
            role of the posterior scale ``nu``.
        rng: randomness source (initialization and posterior samples).
    """

    def combine_scores(self, means: np.ndarray, bonuses: np.ndarray) -> np.ndarray:
        """Posterior samples per arm (replaces the optimistic bound).

        The only override: scoring (one context through ``ucb_scores`` or
        a day through ``estimate_batch``), every selection safeguard of the
        base class (coverage floor, epsilon exploration, conservative
        tie-breaking) and the audit split — where ``bonus`` is the
        posterior standard deviation — are inherited unchanged.  The noise
        is drawn here, after the epsilon draw, once per scored decision.
        """
        noise = self._rng.normal(0.0, 1.0, size=self.capacities.size)
        return means + self.config.alpha * bonuses * noise

    #: Same payload as the base class, but a distinct kind: a Thompson
    #: checkpoint must not silently restore into a UCB bandit (or back).
    STATE_KIND = "bandits.thompson"


def make_thompson_bandit(
    context_dim: int,
    rng: np.random.Generator,
    config: BanditConfig | None = None,
) -> NeuralThompsonBandit:
    """Convenience constructor with the library's default configuration."""
    return NeuralThompsonBandit(context_dim, config or BanditConfig(), rng)
