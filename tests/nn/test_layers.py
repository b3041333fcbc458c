"""Dense layer: shapes and gradient accumulation."""

import numpy as np
import pytest

from repro.nn import Dense


def test_forward_shape_and_affine(rng):
    layer = Dense(4, 3, rng)
    x = rng.normal(size=(5, 4))
    out = layer.forward(x)
    assert out.shape == (5, 3)
    expected = x @ layer.weight.T + layer.bias
    np.testing.assert_allclose(out, expected)


def test_forward_rejects_wrong_width(rng):
    layer = Dense(4, 3, rng)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(5, 6)))


def test_backward_before_forward_raises(rng):
    layer = Dense(4, 3, rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((2, 3)))


def test_backward_gradients_match_manual(rng):
    layer = Dense(3, 2, rng)
    x = rng.normal(size=(7, 3))
    layer.forward(x)
    grad_out = rng.normal(size=(7, 2))
    grad_in = layer.backward(grad_out)
    np.testing.assert_allclose(layer.grad_weight, grad_out.T @ x)
    np.testing.assert_allclose(layer.grad_bias, grad_out.sum(axis=0))
    np.testing.assert_allclose(grad_in, grad_out @ layer.weight)


def test_backward_accumulates(rng):
    layer = Dense(3, 2, rng)
    x = rng.normal(size=(4, 3))
    grad_out = rng.normal(size=(4, 2))
    layer.forward(x)
    layer.backward(grad_out)
    first = layer.grad_weight.copy()
    layer.forward(x)
    layer.backward(grad_out)
    np.testing.assert_allclose(layer.grad_weight, 2 * first)
    layer.zero_grad()
    assert np.all(layer.grad_weight == 0)
    assert np.all(layer.grad_bias == 0)


def test_num_params(rng):
    layer = Dense(5, 4, rng)
    assert layer.num_params == 5 * 4 + 4
    assert layer.fan_in == 5
    assert layer.fan_out == 4
