"""The parameter-update rule of the reward-model MLP.

Alg. 1 line 17 writes the update as plain gradient descent
``theta <- theta - grad L``; every bandit here trains its reward model with
:class:`Adam` instead, the practical default for faster convergence.  It
updates every layer: the Sec. V-D layer transfer never freezes the shared
network, it fits per-broker heads on
:meth:`~repro.nn.MLP.hidden_features` (:mod:`repro.bandits.personalization`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.state.protocol import expect, versioned

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.nn.mlp import MLP


class Adam:
    """Adam optimizer (Kingma & Ba) over the per-layer gradient buffers."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._moments: dict[int, list[np.ndarray]] = {}

    def step(self, model: "MLP") -> None:
        """Apply one bias-corrected Adam update to every layer."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, layer in enumerate(model.layers):
            state = self._moments.setdefault(
                index,
                [
                    np.zeros_like(layer.weight),
                    np.zeros_like(layer.weight),
                    np.zeros_like(layer.bias),
                    np.zeros_like(layer.bias),
                ],
            )
            m_w, v_w, m_b, v_b = state
            for moment, second, grad, param in (
                (m_w, v_w, layer.grad_weight, layer.weight),
                (m_b, v_b, layer.grad_bias, layer.bias),
            ):
                moment *= self.beta1
                moment += (1.0 - self.beta1) * grad
                second *= self.beta2
                second += (1.0 - self.beta2) * grad**2
                param -= (
                    self.learning_rate
                    * (moment / bias1)
                    / (np.sqrt(second / bias2) + self.eps)
                )

    def snapshot(self) -> dict:
        """Deep snapshot of the step count and per-layer moment estimates."""
        return versioned(
            "nn.adam",
            {
                "step_count": int(self._step_count),
                "moments": {
                    index: [moment.copy() for moment in moments]
                    for index, moments in self._moments.items()
                },
            },
        )

    def restore(self, state) -> None:
        """Reinstall the Adam moments from a :meth:`snapshot`."""
        payload = expect(state, "nn.adam")
        self._step_count = int(payload["step_count"])
        self._moments = {
            int(index): [np.array(moment, dtype=float) for moment in moments]
            for index, moments in payload["moments"].items()
        }
