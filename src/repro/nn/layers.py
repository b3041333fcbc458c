"""Dense (fully connected) layer with manual forward/backward passes.

A standalone layer owns its arrays.  Inside an :class:`~repro.nn.MLP` the
network calls :meth:`Dense.bind`, after which ``weight`` / ``bias`` and
``grad_weight`` / ``grad_bias`` are reshaped views into the network's flat
parameter and gradient vectors: every in-place write through them lands in
those vectors, so the optimizer can update all layers in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import gaussian_init


class Dense:
    """A fully connected layer ``y = x @ W.T + b``.

    The layer caches its last input so that :meth:`backward` can compute
    parameter gradients without the caller re-supplying activations.
    """

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator) -> None:
        self.weight = gaussian_init(fan_in, fan_out, rng)
        self.bias = np.zeros(fan_out)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._last_input: np.ndarray | None = None

    @property
    def fan_in(self) -> int:
        """Number of input units."""
        return self.weight.shape[1]

    @property
    def fan_out(self) -> int:
        """Number of output units."""
        return self.weight.shape[0]

    @property
    def num_params(self) -> int:
        """Total parameter count (weights plus biases)."""
        return self.weight.size + self.bias.size

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Re-home the parameters and gradients as views of flat slices.

        ``params`` and ``grads`` are ``num_params``-long contiguous slices
        laid out as the raveled weight, then the bias.  Nothing is copied:
        the caller's slices must already hold the values.
        """
        split = self.weight.size
        self.weight = params[:split].reshape(self.weight.shape)
        self.bias = params[split:]
        self.grad_weight = grads[:split].reshape(self.weight.shape)
        self.grad_bias = grads[split:]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a ``(batch, fan_in)`` input."""
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ValueError(
                f"expected input of shape (batch, {self.fan_in}), got {x.shape}"
            )
        self._last_input = x
        return x @ self.weight.T + self.bias

    def accumulate(self, grad_output: np.ndarray) -> None:
        """Accumulate ``(batch, fan_out)`` output gradients into
        ``grad_weight`` / ``grad_bias``, without the input gradient."""
        if self._last_input is None:
            raise RuntimeError("backward() called before forward()")
        self.grad_weight += grad_output.T @ self._last_input
        self.grad_bias += grad_output.sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``(batch, fan_out)`` output gradients.

        Accumulates parameter gradients into ``grad_weight`` / ``grad_bias``
        and returns the gradient with respect to the layer input.
        """
        self.accumulate(grad_output)
        return grad_output @ self.weight

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        self.grad_weight[:] = 0.0
        self.grad_bias[:] = 0.0
