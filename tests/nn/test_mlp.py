"""MLP: exact gradients, the parameter-vector layout, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import grad_vector, param_gradient, param_gradients
from repro.nn import MLP, Adam


def _load_param_vector(net: MLP, theta: np.ndarray) -> None:
    """Write a flat :meth:`MLP.param_vector` back into the layers."""
    offset = 0
    for layer in net.layers:
        for param in (layer.weight, layer.bias):
            param[...] = theta[offset : offset + param.size].reshape(param.shape)
            offset += param.size
    assert offset == theta.size


def _numerical_gradient(net: MLP, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    theta = net.param_vector()
    grad = np.zeros_like(theta)
    for index in range(theta.size):
        up = theta.copy()
        up[index] += eps
        _load_param_vector(net, up)
        f_up = net.predict(x[None])[0]
        down = theta.copy()
        down[index] -= eps
        _load_param_vector(net, down)
        f_down = net.predict(x[None])[0]
        grad[index] = (f_up - f_down) / (2 * eps)
    _load_param_vector(net, theta)
    return grad


def test_param_gradient_matches_numerical(rng):
    net = MLP([4, 6, 1], rng)
    x = rng.normal(size=4)
    numeric = _numerical_gradient(net, x)
    np.testing.assert_allclose(param_gradient(net, x), numeric, atol=1e-7)
    np.testing.assert_allclose(net.sample_gradient(x), numeric, atol=1e-7)


def test_param_gradient_preserves_training_grads(rng):
    net = MLP([3, 4, 1], rng)
    x = rng.normal(size=(5, 3))
    net.forward(x)
    net.backward(np.ones((5, 1)))
    saved = grad_vector(net)
    param_gradient(net, rng.normal(size=3))
    np.testing.assert_array_equal(grad_vector(net), saved)


def test_param_vector_roundtrip(rng):
    # param_vector's layout (per layer: weight, then bias) is the one the
    # gradients and the L2 penalty use.
    net = MLP([3, 5, 2], rng)
    theta = net.param_vector()
    assert theta.shape == (net.num_params,)
    other = MLP([3, 5, 2], rng)
    _load_param_vector(other, theta)
    x = rng.normal(size=(4, 3))
    np.testing.assert_allclose(net.forward(x), other.forward(x))


def test_needs_two_sizes(rng):
    with pytest.raises(ValueError):
        MLP([4], rng)


def test_param_gradient_requires_scalar_output(rng):
    net = MLP([3, 4, 2], rng)
    with pytest.raises(ValueError):
        param_gradient(net, np.zeros(3))
    with pytest.raises(ValueError):
        net.sample_gradient(np.zeros(3))


def test_training_reduces_loss(rng):
    net = MLP([2, 16, 1], rng)
    x = rng.uniform(-1, 1, size=(128, 2))
    y = x[:, 0] * x[:, 1]
    optimizer = Adam(0.01)
    first = net.train_step(x, y, optimizer)
    for _ in range(300):
        last = net.train_step(x, y, optimizer)
    assert last < first * 0.2


def test_l2_regularization_shrinks_weights(rng):
    net = MLP([2, 8, 1], rng)
    x = np.zeros((4, 2))
    y = np.zeros(4)
    norm_before = np.linalg.norm(net.param_vector())
    optimizer = Adam(0.01)
    for _ in range(50):
        net.train_step(x, y, optimizer, lam=0.1)
    assert np.linalg.norm(net.param_vector()) < norm_before


def test_hidden_features_match_manual_forward(rng):
    net = MLP([3, 4, 1], rng)
    x = rng.normal(size=(6, 3))
    hidden = net.hidden_features(x)
    pre = x @ net.layers[0].weight.T + net.layers[0].bias
    np.testing.assert_allclose(hidden, np.maximum(pre, 0.0))
    # head applied to hidden features reproduces the full forward pass
    full = hidden @ net.layers[-1].weight.T + net.layers[-1].bias
    np.testing.assert_allclose(full[:, 0], net.predict(x))


def test_max_singular_value_positive(rng):
    net = MLP([3, 4, 1], rng)
    xi = net.max_singular_value()
    assert xi > 0
    assert xi >= np.linalg.norm(net.layers[-1].weight, 2) - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6))
def test_forward_shapes_property(batch, hidden):
    rng = np.random.default_rng(0)
    net = MLP([3, hidden, 1], rng)
    x = rng.normal(size=(batch, 3))
    assert net.forward(x).shape == (batch, 1)
    assert net.predict(x).shape == (batch,)


# ----------------------------------------------------------------------
# Batched per-sample gradients (the repro.check oracle)
# ----------------------------------------------------------------------
def test_param_gradients_matches_per_sample_loop(rng):
    from repro.nn import MLP

    network = MLP([7, 16, 8, 1], rng)
    inputs = rng.normal(size=(9, 7))
    batched = param_gradients(network, inputs)
    reference = np.stack([param_gradient(network, row) for row in inputs])
    assert batched.shape == (9, network.num_params)
    np.testing.assert_allclose(batched, reference, rtol=1e-9, atol=1e-12)


def test_param_gradients_single_row_is_exact(rng):
    from repro.nn import MLP

    network = MLP([5, 12, 1], rng)
    row = rng.normal(size=5)
    np.testing.assert_array_equal(
        param_gradients(network, row[None, :])[0], param_gradient(network, row)
    )


def test_param_gradients_requires_scalar_output(rng):
    from repro.nn import MLP

    network = MLP([4, 6, 2], rng)
    with pytest.raises(ValueError, match="scalar"):
        param_gradients(network, rng.normal(size=(3, 4)))


def test_param_gradients_rejects_wrong_width(rng):
    from repro.nn import MLP

    network = MLP([4, 6, 1], rng)
    with pytest.raises(ValueError, match="shape"):
        param_gradients(network, rng.normal(size=(3, 5)))


def test_param_gradients_preserves_training_state(rng):
    """The batched pass must not clobber accumulated gradients or the
    forward caches a pending backward() depends on."""
    from repro.nn import MLP

    network = MLP([4, 6, 1], rng)
    batch = rng.normal(size=(5, 4))
    network.zero_grad()
    network.forward(batch)  # training forward whose caches must survive
    network.layers[0].grad_weight += 3.0
    accumulated = [layer.grad_weight.copy() for layer in network.layers]
    param_gradients(network, rng.normal(size=(7, 4)))
    for layer, before in zip(network.layers, accumulated):
        np.testing.assert_array_equal(layer.grad_weight, before)
    # backward() must still consume the training forward's caches.
    network.backward(np.ones((5, 1)))


# ----------------------------------------------------------------------
# Lean one-row gradient (the NN-UCB covariance update)
# ----------------------------------------------------------------------
def test_sample_gradient_is_bitwise_param_gradient_with_dead_relus(rng):
    dead_rows = 0
    for trial in range(40):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 12))]
        sizes += [int(rng.integers(1, 24)) for _ in range(depth)] + [1]
        network = MLP(sizes, rng)
        for layer in network.layers:
            layer.bias[:] = rng.normal(size=layer.bias.shape)
        scale = 10.0 ** int(rng.integers(-2, 3))
        for row in rng.normal(0.0, scale, size=(6, sizes[0])):
            lean = network.sample_gradient(row)
            reference = param_gradient(network, row)
            assert np.array_equal(lean, reference)
            assert lean.tobytes() == reference.tobytes()
            dead_rows += int(np.any(lean == 0.0))
    assert dead_rows > 0  # dead ReLUs were exercised


def test_sample_gradient_leaves_training_state_untouched(rng):
    network = MLP([5, 9, 4, 1], rng)
    batch = rng.normal(size=(3, 5))
    network.zero_grad()
    network.forward(batch)
    for layer in network.layers:
        layer.grad_weight += rng.normal(size=layer.grad_weight.shape)
        layer.grad_bias += rng.normal(size=layer.grad_bias.shape)
    grads = [(l.grad_weight.copy(), l.grad_bias.copy()) for l in network.layers]
    masks = [mask.copy() for mask in network._relu_masks]
    inputs = [layer._last_input for layer in network.layers]
    network.sample_gradient(rng.normal(size=5))
    for layer, (grad_w, grad_b), cached in zip(network.layers, grads, inputs):
        assert np.array_equal(layer.grad_weight, grad_w)
        assert np.array_equal(layer.grad_bias, grad_b)
        assert layer._last_input is cached
    assert len(network._relu_masks) == len(masks)
    for mask, before in zip(network._relu_masks, masks):
        assert np.array_equal(mask, before)


def test_forward_backward_outputs_are_bitwise_predict(rng):
    from repro.nn.mlp import gradient_rows, weighted_gradient_norms

    network = MLP([6, 10, 5, 1], rng)
    inputs = rng.normal(size=(8, 6))
    outputs, activations, signals = network.forward_backward(inputs)
    assert np.array_equal(outputs, network.predict(inputs))
    assert np.array_equal(activations[-1], network.hidden_features(inputs))
    rows = gradient_rows(activations, signals)
    reference = np.stack([param_gradient(network, row) for row in inputs])
    np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=1e-15)
    weights = rng.uniform(0.5, 2.0, size=network.num_params)
    np.testing.assert_allclose(
        weighted_gradient_norms(activations, signals, weights),
        (reference**2 * weights).sum(axis=1),
        rtol=1e-12,
    )


# ----------------------------------------------------------------------
# The block kernel behind the covariance commit
# ----------------------------------------------------------------------
#: The bandit MLP's layer shapes (``fan_out, fan_in``) on the default
#: (64, 16) hidden layers and an 82-wide input.
BANDIT_LAYER_SHAPES = ((64, 82), (16, 64), (1, 16))


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65])
def test_stacked_one_row_matmuls_are_bitwise_one_row_products(count, rng):
    """The premise of ``MLP.sample_gradients``: NumPy evaluates a stacked
    ``(K, 1, n) @ W`` as ``K`` one-row products, bit for bit, on the bandit
    net's forward (``a @ W.T``) and backward (``delta @ W``) shapes, with
    dead-ReLU (all-zero) rows and ``-0.0`` entries among the inputs."""
    for fan_out, fan_in in BANDIT_LAYER_SHAPES:
        weight = rng.normal(size=(fan_out, fan_in))
        for matrix, width in ((weight.T, fan_in), (weight, fan_out)):
            rows = rng.normal(size=(count, width))
            rows[rng.random(rows.shape) < 0.3] = 0.0
            rows[rng.random(rows.shape) < 0.1] = -0.0
            rows[count // 2] = 0.0
            stacked = (rows[:, None, :] @ matrix)[:, 0, :]
            one_row = np.concatenate([rows[k : k + 1] @ matrix for k in range(count)])
            assert _bits(stacked) == _bits(one_row), (
                f"numpy {np.__version__}: a stacked ({count}, 1, {width}) @ "
                f"{matrix.shape} matmul is not bitwise {count} one-row products "
                "on this NumPy/BLAS build; MLP.sample_gradients relies on it for "
                "a covariance D bit-identical to the per-broker oracle"
            )


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65])
def test_sample_gradients_rows_are_bitwise_param_gradient(count, rng):
    network = MLP([82, 64, 16, 1], rng)
    for layer in network.layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    rows = rng.normal(size=(count, 82))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[count // 2] = -5.0  # drives most hidden units dead
    block = network.sample_gradients(rows)
    assert block.shape == (count, network.num_params)
    for row, gradient in zip(rows, block):
        reference = param_gradient(network, row)
        assert _bits(gradient + 0.0) == _bits(reference)
        assert _bits(gradient**2) == _bits(reference**2)
        assert _bits(network.sample_gradient(row)) == _bits(reference)


def test_sample_gradients_reuses_one_buffer_that_copies_leave_out(rng):
    import copy
    import pickle

    network = MLP([6, 8, 1], rng)
    first = network.sample_gradients(rng.normal(size=(4, 6)))
    second = network.sample_gradients(rng.normal(size=(3, 6)))
    assert np.shares_memory(first, second)
    for twin in (copy.deepcopy(network), pickle.loads(pickle.dumps(network))):
        assert twin._gradient_scratch is None
        row = rng.normal(size=6)
        assert _bits(twin.sample_gradient(row)) == _bits(network.sample_gradient(row))


@pytest.mark.parametrize("sizes", [[82, 64, 16, 1], [9, 8, 4, 1], [6, 1]])
def test_row_gradient_is_bitwise_the_one_row_pass(sizes, rng):
    """The scored commit's kernel: the same bits as ``sample_gradients``'
    one-row pass, with dead ReLUs and ``-0.0`` inputs, on reused buffers
    that copies leave out."""
    import copy
    import pickle

    network = MLP(sizes, rng)
    for layer in network.layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    rows = rng.normal(size=(6, sizes[0]))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[2] = -5.0  # drives most hidden units dead
    for row in rows:
        gradient = network.row_gradient(row)
        assert _bits(gradient) == _bits(network.sample_gradients(row[None])[0])
        assert _bits(gradient + 0.0) == _bits(param_gradient(network, row))
    assert np.shares_memory(network.row_gradient(rows[0]), network.row_gradient(rows[1]))
    for twin in (copy.deepcopy(network), pickle.loads(pickle.dumps(network))):
        assert twin._row_scratch is None
        assert _bits(twin.row_gradient(rows[3])) == _bits(network.row_gradient(rows[3]))


# ----------------------------------------------------------------------
# Flat parameter and gradient vectors
# ----------------------------------------------------------------------
def _assert_layers_are_views(network):
    start = 0
    for layer in network.layers:
        for param, grad in ((layer.weight, layer.grad_weight), (layer.bias, layer.grad_bias)):
            end = start + param.size
            assert param.base is network.theta and grad.base is network.theta_grad
            assert np.shares_memory(param, network.theta[start:end])
            assert np.shares_memory(grad, network.theta_grad[start:end])
            start = end
    assert start == network.theta.size == network.num_params


def test_layers_are_views_of_the_flat_vectors(rng):
    network = MLP([5, 7, 3, 1], rng)
    _assert_layers_are_views(network)
    assert _bits(network.param_vector()) == _bits(network.theta)
    network.theta[:] = np.arange(network.theta.size, dtype=float)
    assert network.layers[0].weight[0, 1] == 1.0
    assert network.layers[-1].bias[0] == network.theta.size - 1
    network.layers[1].grad_bias += 2.0
    assert np.count_nonzero(network.theta_grad) == network.layers[1].bias.size
    network.zero_grad()
    assert not network.theta_grad.any()


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copies_rehome_the_layer_views(how, rng):
    import copy
    import pickle

    network = MLP([5, 7, 3, 1], rng)
    optimizer = Adam(0.01)
    x, y = rng.normal(size=(9, 5)), rng.uniform(size=9)
    network.train_step(x, y, optimizer, lam=0.01)
    twin = copy.deepcopy(network) if how == "deepcopy" else pickle.loads(pickle.dumps(network))
    _assert_layers_are_views(twin)
    assert not np.shares_memory(twin.theta, network.theta)
    assert _bits(twin.theta) == _bits(network.theta)
    twin_optimizer = copy.deepcopy(optimizer)
    for _ in range(3):
        network.train_step(x, y, optimizer, lam=0.01)
        twin.train_step(x, y, twin_optimizer, lam=0.01)
    assert _bits(twin.theta) == _bits(network.theta)


def test_restore_writes_through_the_views(rng):
    source = MLP([4, 6, 1], rng)
    target = MLP([4, 6, 1], np.random.default_rng(99))
    target.restore(source.snapshot())
    _assert_layers_are_views(target)
    assert _bits(target.theta) == _bits(source.theta)


def test_backward_still_returns_the_input_gradient(rng):
    network = MLP([4, 6, 3, 1], rng)
    x = rng.normal(size=(5, 4))
    network.zero_grad()
    network.forward(x)
    grad_input = network.backward(np.ones((5, 1)))
    eps = 1e-6
    for column in range(4):
        step = np.zeros_like(x)
        step[:, column] = eps
        numeric = (network.predict(x + step) - network.predict(x - step)) / (2 * eps)
        np.testing.assert_allclose(grad_input[:, column], numeric, rtol=1e-5, atol=1e-7)
