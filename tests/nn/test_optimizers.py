"""Adam: parameter validation and descent behaviour."""

import numpy as np
import pytest

from repro.nn import MLP, Adam


@pytest.mark.parametrize("factory", [Adam])
def test_rejects_nonpositive_learning_rate(factory):
    with pytest.raises(ValueError):
        factory(learning_rate=0.0)


def _quadratic_progress(optimizer, rng, steps=200):
    net = MLP([2, 8, 1], rng)
    x = rng.uniform(-1, 1, size=(64, 2))
    y = 2.0 * x[:, 0] - x[:, 1]
    losses = [net.train_step(x, y, optimizer) for _ in range(steps)]
    return losses


def test_adam_descends_faster_than_one_step(rng):
    losses = _quadratic_progress(Adam(0.01), rng)
    assert losses[-1] < 0.1 * losses[0]


def test_adam_updates_every_layer(rng):
    # Layer transfer (Sec. V-D) fits per-broker heads on the shared
    # features; it never freezes a layer of the shared network.
    net = MLP([2, 4, 1], rng)
    before = [layer.weight.copy() for layer in net.layers]
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    optimizer = Adam(0.01)
    for _ in range(3):
        net.train_step(x, y, optimizer)
    for layer, weight in zip(net.layers, before):
        assert not np.array_equal(layer.weight, weight)
