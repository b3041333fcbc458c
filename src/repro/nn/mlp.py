"""Multi-layer perceptron with explicit parameter-vector access.

Implements the reward mapping function of Eq. 4,

    S_theta(x, c) = W_L . relu( ... relu(W_1 [x; c]) )

with manual backpropagation.  Beyond ordinary supervised training, the
NN-enhanced UCB policy (Eq. 5) needs the flattened per-sample gradient
``g_theta(x, c)`` of the scalar output with respect to every parameter:
:meth:`MLP.sample_gradients` computes it exactly for a block of rows and
:meth:`MLP.forward_backward` provides the parts to reduce it for a batch.

The network stores ``theta`` as one flat vector, and its training
gradient as another, both in :meth:`MLP.param_vector` order (per layer the
raveled weight, then the bias).  Every layer's arrays are views into them,
so a :meth:`MLP.train_step` zeroes, regularizes and updates all parameters
with one pass each over the flat vectors.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import l2_penalty, mse_loss
from repro.nn.optimizers import Adam
from repro.state.protocol import StateError, expect, versioned


class MLP:
    """Fully connected network with ReLU hidden activations and linear output.

    Args:
        layer_sizes: ``[input, hidden..., output]`` unit counts.  The paper's
            default configuration is a 3-layer network (Sec. VII-A).
        rng: source of randomness for Gaussian initialization (Alg. 1 line 3).
    """

    def __init__(self, layer_sizes: Sequence[int], rng: np.random.Generator) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.layers = [
            Dense(fan_in, fan_out, rng)
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        ]
        #: Flat parameters and training gradient; the layers' arrays are views.
        self.theta = np.concatenate(
            [array.ravel() for layer in self.layers for array in (layer.weight, layer.bias)]
        )
        self.theta_grad = np.zeros_like(self.theta)
        self._bind_layers()
        self._relu_masks: list[np.ndarray] = []
        # Reused outputs of :meth:`sample_gradients` and :meth:`row_gradient`;
        # never copied or pickled.
        self._gradient_scratch: np.ndarray | None = None
        self._row_scratch: tuple | None = None

    def _bind_layers(self) -> None:
        """Point every layer's parameters and gradients into the flat vectors."""
        start = 0
        for layer in self.layers:
            end = start + layer.num_params
            layer.bind(self.theta[start:end], self.theta_grad[start:end])
            start = end

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_gradient_scratch"] = None
        state["_row_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # A deepcopy or unpickle copies each layer view as a detached array;
        # the copied flat vectors hold the same values, so re-home the views.
        self.__dict__.update(state)
        self._bind_layers()

    # ------------------------------------------------------------------
    # Shape bookkeeping
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Dimension of the concatenated context-capacity input ``[x; c]``."""
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        """Dimension of the network output (1 for a scalar reward model)."""
        return self.layer_sizes[-1]

    @property
    def depth(self) -> int:
        """Number of affine layers, the ``L`` of Eq. 4."""
        return len(self.layers)

    @property
    def num_params(self) -> int:
        """Total number of learnable parameters ``d``."""
        return self.theta.size

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a ``(batch, input_dim)`` batch through the network."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._relu_masks = []
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            mask = out > 0.0
            self._relu_masks.append(mask)
            out = out * mask
        return self.layers[-1].forward(out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass returning a flat vector when the output is scalar."""
        out = self.forward(x)
        return out[:, 0] if self.output_dim == 1 else out

    def hidden_features(self, x: np.ndarray) -> np.ndarray:
        """Activations entering the last layer (the shared representation).

        The personalization scheme of Sec. V-D keeps the first ``L - 1``
        layers shared; these activations are exactly the features on which
        each broker's private head is fit.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out)
            out = out * (out > 0.0)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate output gradients, accumulating parameter gradients.

        Must follow a :meth:`forward` call on the same batch.  Returns the
        gradient with respect to the network input.
        """
        return self._accumulate_gradients(grad_output) @ self.layers[0].weight

    def _accumulate_gradients(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate every layer's parameter gradients from output gradients.

        Returns the gradient with respect to the first layer's output; the
        input gradient, which training never reads, is left to the caller.
        """
        grad = np.atleast_2d(np.asarray(grad_output, dtype=float))
        for layer, mask in zip(reversed(self.layers[1:]), reversed(self._relu_masks)):
            layer.accumulate(grad)
            grad = (grad @ layer.weight) * mask
        self.layers[0].accumulate(grad)
        return grad

    def zero_grad(self) -> None:
        """Clear accumulated gradients in every layer."""
        self.theta_grad.fill(0.0)

    # ------------------------------------------------------------------
    # Flattened parameter access (needed by the UCB covariance matrix)
    # ------------------------------------------------------------------
    def param_vector(self) -> np.ndarray:
        """A copy of the flat parameter vector ``theta``: per layer the
        raveled weight, then the bias."""
        return self.theta.copy()

    def sample_gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact per-sample gradient ``g_theta(x) = grad_theta S_theta(x)``.

        Laid out in :meth:`param_vector` order: the one-row call of
        :meth:`sample_gradients`, returned as a fresh array.  Adding
        ``0.0`` turns the kernel's ``-0.0`` products into the ``+0.0`` that
        accumulating into a zeroed buffer gives, so the result is bitwise
        the oracle :func:`repro.check.differential.param_gradient`.
        """
        return self.sample_gradients(np.atleast_2d(np.asarray(x, dtype=float)))[0] + 0.0

    def sample_gradients(self, rows: np.ndarray) -> np.ndarray:
        """Per-sample gradients of ``K`` rows, each bitwise its one-row pass.

        The one-row passes run as stacked ``(K, 1, n) @ W^T`` matmuls, which
        NumPy evaluates as ``K`` one-row products (a plain ``(K, n)`` GEMM
        associates its sums differently; ``tests/nn/test_mlp.py`` holds the
        contract).  Every ``delta (x) a`` weight entry is one exact
        elementwise product, and the bias entries are ``delta`` itself, so
        row ``k`` equals :meth:`sample_gradient` of ``rows[k]`` up to the
        sign of zero entries.

        Returns a ``(K, num_params)`` view of a scratch buffer the network
        reuses: the next call overwrites it.  The layers' training caches
        are not touched.
        """
        if self.output_dim != 1:
            raise ValueError("sample_gradient requires a scalar-output network")
        rows = np.asarray(rows, dtype=float)
        count = rows.shape[0]
        if self._gradient_scratch is None or self._gradient_scratch.shape[0] < count:
            self._gradient_scratch = np.empty((count, self.num_params))
        gradients = self._gradient_scratch[:count]
        activation = rows.reshape(count, 1, -1)
        activations = [activation]
        masks: list[np.ndarray] = []
        for layer in self.layers[:-1]:
            activation = activation @ layer.weight.T + layer.bias
            mask = activation > 0.0
            masks.append(mask)
            activation = activation * mask
            activations.append(activation)
        signal = np.ones((count, 1, 1))
        end = self.num_params
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            bias_start = end - layer.bias.size
            weight_start = bias_start - layer.weight.size
            np.multiply(
                signal.transpose(0, 2, 1),
                activations[index],
                out=gradients[:, weight_start:bias_start].reshape(count, *layer.weight.shape),
            )
            gradients[:, bias_start:end] = signal[:, 0, :]
            end = weight_start
            if index > 0:
                signal = (signal @ layer.weight) * masks[index - 1]
        return gradients

    def row_gradient(self, row: np.ndarray) -> np.ndarray:
        """One row's gradient ``g_theta(row)``, on buffers reused across calls.

        The operations of :meth:`sample_gradients`' one-row pass — a
        ``(1, n) @ W^T`` one-row product and ``+ b`` per layer, the ReLU
        masks, then ``delta (x) a`` and ``delta`` per layer — written with
        ``out=`` into preallocated activations, masks and signals, so the
        result is bitwise that pass's row.  Returns a ``(num_params,)``
        view of a buffer the next call overwrites.
        """
        if self._row_scratch is None:
            self._row_scratch = self._make_row_scratch()
        activations, masks, signals, gradient, blocks = self._row_scratch
        activations[0][0] = row
        for layer, mask, inputs, outputs in zip(self.layers, masks, activations, activations[1:]):
            np.matmul(inputs, layer.weight.T, out=outputs)
            outputs += layer.bias
            np.greater(outputs, 0.0, out=mask)
            outputs *= mask
        signal = signals[-1]
        for index in range(len(self.layers) - 1, -1, -1):
            weight_block, bias_block = blocks[index]
            np.multiply(signal.T, activations[index], out=weight_block)
            bias_block[:] = signal[0]
            if index > 0:
                np.matmul(signal, self.layers[index].weight, out=signals[index - 1])
                signal = signals[index - 1]
                signal *= masks[index - 1]
        return gradient

    def _make_row_scratch(self) -> tuple:
        """Buffers of :meth:`row_gradient`: per layer its input activation,
        ReLU mask and output signal (the last a constant ``1``), and the
        flat gradient with each layer's ``(weight, bias)`` views into it."""
        activations = [np.empty((1, layer.fan_in)) for layer in self.layers]
        masks = [np.empty((1, layer.fan_out), dtype=bool) for layer in self.layers[:-1]]
        signals = [np.empty((1, layer.fan_out)) for layer in self.layers]
        signals[-1].fill(1.0)
        gradient = np.empty(self.num_params)
        blocks = []
        start = 0
        for layer in self.layers:
            split, end = start + layer.weight.size, start + layer.num_params
            blocks.append((gradient[start:split].reshape(layer.weight.shape), gradient[split:end]))
            start = end
        return activations, masks, signals, gradient, blocks

    def forward_backward(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Cache-free forward and backward pass of a batch of scalar outputs.

        Returns ``(outputs, inputs, signals)``: the ``(batch,)`` outputs
        (bitwise :meth:`predict` on the same batch), each layer's input
        activations ``a_l`` (``(batch, fan_in_l)``; ``inputs[0]`` is ``x``)
        and the back-propagated output signals ``delta_l = dS / dz_l``
        (``(batch, fan_out_l)``).  Row ``n``'s parameter gradient is the
        outer product ``delta_l[n] (x) a_l[n]`` for ``W_l`` and
        ``delta_l[n]`` for ``b_l`` (see :func:`gradient_rows`), so callers
        can reduce gradients without ever materializing them.  The layers'
        training caches are not touched.
        """
        if self.output_dim != 1:
            raise ValueError("forward_backward requires a scalar-output network")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input of shape (batch, {self.input_dim}), got {x.shape}"
            )
        inputs = [x]
        masks: list[np.ndarray] = []
        out = x
        for layer in self.layers[:-1]:
            out = out @ layer.weight.T + layer.bias
            mask = out > 0.0
            masks.append(mask)
            out = out * mask
            inputs.append(out)
        last = self.layers[-1]
        outputs = (out @ last.weight.T + last.bias)[:, 0]
        signals: list[np.ndarray] = [np.ones((x.shape[0], 1))]
        for index in range(len(self.layers) - 1, 0, -1):
            signals.append((signals[-1] @ self.layers[index].weight) * masks[index - 1])
        signals.reverse()
        return outputs, inputs, signals

    # ------------------------------------------------------------------
    # Training helpers
    # ------------------------------------------------------------------
    def train_step(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: Adam,
        lam: float = 0.0,
    ) -> float:
        """One gradient step on the regularized loss of Eq. 6.

        Zero-grad, the L2 gradient and the optimizer update each run once
        over the flat vectors, and backpropagation skips the input gradient.
        The per-layer step it replaced is kept as the oracle
        :func:`repro.check.differential.reference_train_step`; both leave
        ``theta``, the Adam moments and the loss bitwise equal.

        Args:
            inputs: ``(batch, input_dim)`` design matrix.
            targets: ``(batch,)`` observed rewards (sign-up rates).
            optimizer: parameter-update rule.
            lam: L2 regularization strength (``lambda``).

        Returns:
            The scalar loss value before the update.
        """
        targets = np.asarray(targets, dtype=float).reshape(-1)
        self.zero_grad()
        predictions = self.predict(inputs)
        loss, grad_pred = mse_loss(predictions, targets)
        self._accumulate_gradients(grad_pred.reshape(-1, 1))
        if lam > 0.0:
            reg_loss, reg_grad = l2_penalty(self.theta, lam)
            loss += reg_loss
            self.theta_grad += reg_grad
        optimizer.step(self)
        return loss

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deep snapshot of the parameters.

        Gradient buffers and relu masks are transient training caches and
        are deliberately excluded: every consumer zeroes gradients before
        use, so they carry no information across a day boundary.
        """
        return versioned(
            "nn.mlp",
            {
                "layer_sizes": list(self.layer_sizes),
                "layers": [
                    {"weight": layer.weight.copy(), "bias": layer.bias.copy()}
                    for layer in self.layers
                ],
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot` into this network, in place."""
        payload = expect(state, "nn.mlp")
        if tuple(int(s) for s in payload["layer_sizes"]) != self.layer_sizes:
            raise StateError(
                f"MLP snapshot is for layer sizes {payload['layer_sizes']}, "
                f"network has {list(self.layer_sizes)}"
            )
        for layer, entry in zip(self.layers, payload["layers"]):
            weight = np.asarray(entry["weight"], dtype=float)
            bias = np.asarray(entry["bias"], dtype=float)
            if weight.shape != layer.weight.shape or bias.shape != layer.bias.shape:
                raise StateError(
                    f"MLP snapshot layer shape {weight.shape} does not match "
                    f"the network's {layer.weight.shape}"
                )
            layer.weight[:] = weight
            layer.bias[:] = bias
        self._relu_masks = []
        # Older snapshots carry a per-layer ``trainable`` flag, always
        # True (no run froze a layer); it is ignored.

    def max_singular_value(self) -> float:
        """Largest singular value ``xi`` over all weight matrices.

        Feeds the Theorem 1 regret bound ``n |C| xi^L / pi^(L-1)``.
        """
        return max(float(np.linalg.norm(layer.weight, 2)) for layer in self.layers)


def gradient_rows(inputs: list[np.ndarray], signals: list[np.ndarray]) -> np.ndarray:
    """``(batch, num_params)`` per-sample gradients from :meth:`MLP.forward_backward`.

    Row ``n`` is laid out in :meth:`MLP.param_vector` order: per layer the
    outer product ``delta_l[n] (x) a_l[n]`` (raveled ``W_l``), then
    ``delta_l[n]`` (``b_l``).  Agrees with :meth:`MLP.sample_gradient` to
    round-off (batched GEMMs may associate reductions differently).
    """
    batch = inputs[0].shape[0]
    chunks: list[np.ndarray] = []
    for activation, signal in zip(inputs, signals):
        chunks.append(np.einsum("no,ni->noi", signal, activation).reshape(batch, -1))
        chunks.append(signal)
    return np.concatenate(chunks, axis=1)


def weighted_gradient_norms(
    inputs: list[np.ndarray], signals: list[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """``sum_j weights[j] * g_n[j]**2`` per row, without building ``g_n``.

    ``weights`` is a flat vector in :meth:`MLP.param_vector` order.  With
    ``g_W = delta (x) a`` per layer the sum factorizes into one small GEMM
    per layer,

        sum_l (delta_l^2)^T W_l (a_l^2) + (delta_l^2)^T w_l,

    where ``W_l`` / ``w_l`` are the weight / bias blocks of ``weights``.
    Equal to reducing :func:`gradient_rows` to round-off.
    """
    values = np.zeros(inputs[0].shape[0])
    offset = 0
    for activation, signal in zip(inputs, signals):
        fan_out, fan_in = signal.shape[1], activation.shape[1]
        bias_start = offset + fan_out * fan_in
        per_unit = (activation * activation) @ weights[offset:bias_start].reshape(
            fan_out, fan_in
        ).T + weights[bias_start : bias_start + fan_out]
        values += (per_unit * (signal * signal)).sum(axis=1)
        offset = bias_start + fan_out
    return values
