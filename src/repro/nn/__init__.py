"""Minimal neural-network substrate used by the NN-enhanced UCB bandit.

The paper (Sec. V-C) replaces LinUCB's linear reward model with an L-layer
MLP ``S_theta(x, c)`` and needs the *per-sample parameter gradient*
``g_theta(x, c) = grad_theta S_theta`` to build the UCB exploration bonus
(Eq. 5).  Off-the-shelf frameworks hide that gradient behind autograd
machinery; this package implements a small fully-connected network with
manual backprop that exposes

- batched forward / backward passes for supervised training (Eq. 6) with
  the :class:`~repro.nn.optimizers.Adam` update; parameters, gradients and
  Adam moments each live in one flat vector (the layers' arrays are views),
  so a training step's zero-grad, L2 and update are one pass each,
- exact per-sample gradients, a block of rows at a time
  (:meth:`~repro.nn.MLP.sample_gradients`), behind the covariance update,
- cache-free batched forward/backward parts (per-layer activations and
  back-propagated signals) from which per-sample gradients can be reduced
  without materializing them,
- the shared representation :meth:`~repro.nn.MLP.hidden_features` on which
  the personalization step (Sec. V-D) fits broker-specific heads.

Everything is plain NumPy; all randomness flows through an explicitly
passed :class:`numpy.random.Generator`.
"""

from repro.nn.init import gaussian_init
from repro.nn.layers import Dense
from repro.nn.losses import l2_penalty, mse_loss
from repro.nn.mlp import MLP
from repro.nn.optimizers import Adam

__all__ = [
    "Dense",
    "MLP",
    "Adam",
    "mse_loss",
    "l2_penalty",
    "gaussian_init",
]
