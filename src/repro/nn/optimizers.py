"""The parameter-update rule of the reward-model MLP.

Alg. 1 line 17 writes the update as plain gradient descent
``theta <- theta - grad L``; every bandit here trains its reward model with
:class:`Adam` instead, the practical default for faster convergence.  It
updates every layer: the Sec. V-D layer transfer never freezes the shared
network, it fits per-broker heads on
:meth:`~repro.nn.MLP.hidden_features` (:mod:`repro.bandits.personalization`).

The moments live in two flat vectors laid out like the network's flat
``theta``, so one step is one elementwise pass over all parameters, with
two step temporaries reused through ufunc ``out=``.  Every element sees the
same IEEE operations, in the same order, as the per-layer loop kept as the
oracle :func:`repro.check.differential.reference_train_step`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.state.protocol import expect, versioned

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.nn.mlp import MLP


class Adam:
    """Adam optimizer (Kingma & Ba) over the network's flat parameter vector."""

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
        # Flat first and second moments in ``theta`` order, allocated on the
        # first step, and each layer's (weight, bias) shapes for snapshots.
        self._first: np.ndarray | None = None
        self._second: np.ndarray | None = None
        self._shapes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def allocate(self, model: "MLP") -> None:
        """Create zero moments shaped like ``model`` unless they exist."""
        if self._first is None:
            self._first = np.zeros_like(model.theta)
            self._second = np.zeros_like(model.theta)
            self._shapes = [(layer.weight.shape, layer.bias.shape) for layer in model.layers]

    def layer_moments(self) -> dict[int, list[np.ndarray]]:
        """Per-layer views ``{index: [m_w, v_w, m_b, v_b]}`` of the flat moments.

        Empty before the first step.
        """
        moments: dict[int, list[np.ndarray]] = {}
        start = 0
        for index, (weight_shape, bias_shape) in enumerate(self._shapes):
            split = start + int(np.prod(weight_shape))
            end = split + int(np.prod(bias_shape))
            moments[index] = [
                self._first[start:split].reshape(weight_shape),
                self._second[start:split].reshape(weight_shape),
                self._first[split:end],
                self._second[split:end],
            ]
            start = end
        return moments

    def step(self, model: "MLP") -> None:
        """Apply one bias-corrected Adam update to every parameter."""
        self.allocate(model)
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad, moment, second = model.theta_grad, self._first, self._second
        # Two fresh temporaries per step: as fast as a kept scratch pair,
        # and nothing that copies or pickles must leave out.
        update = np.multiply(grad, 1.0 - self.beta1)
        moment *= self.beta1
        moment += update
        second *= self.beta2
        np.square(grad, out=update)
        update *= 1.0 - self.beta2
        second += update
        # lr * (m / bias1) / (sqrt(v / bias2) + eps), in that order.
        np.divide(moment, bias1, out=update)
        update *= self.learning_rate
        denom = np.divide(second, bias2)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        model.theta -= update

    def snapshot(self) -> dict:
        """Deep snapshot of the step count and per-layer moment estimates."""
        return versioned(
            "nn.adam",
            {
                "step_count": int(self._step_count),
                "moments": {
                    index: [moment.copy() for moment in moments]
                    for index, moments in self.layer_moments().items()
                },
            },
        )

    def restore(self, state) -> None:
        """Reinstall the Adam moments from a :meth:`snapshot`."""
        payload = expect(state, "nn.adam")
        self._step_count = int(payload["step_count"])
        layers = [
            [np.array(moment, dtype=float) for moment in moments]
            for _, moments in sorted(
                (int(index), moments) for index, moments in payload["moments"].items()
            )
        ]
        self._shapes = [(m_w.shape, m_b.shape) for m_w, _, m_b, _ in layers]
        if layers:
            self._first = np.concatenate(
                [part.ravel() for m_w, _, m_b, _ in layers for part in (m_w, m_b)]
            )
            self._second = np.concatenate(
                [part.ravel() for _, v_w, _, v_b in layers for part in (v_w, v_b)]
            )
        else:
            self._first = self._second = None
