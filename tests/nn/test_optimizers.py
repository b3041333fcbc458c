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


def _trained(rng, steps=3):
    net = MLP([3, 5, 2, 1], rng)
    optimizer = Adam(0.01)
    x, y = rng.normal(size=(6, 3)), rng.uniform(size=6)
    for _ in range(steps):
        net.train_step(x, y, optimizer, lam=0.001)
    return net, optimizer, x, y


def test_snapshot_is_empty_before_the_first_step():
    snapshot = Adam(0.01).snapshot()
    assert snapshot["payload"] == {"step_count": 0, "moments": {}}


def test_snapshot_keeps_the_per_layer_format(rng):
    net, optimizer, _, _ = _trained(rng)
    moments = optimizer.snapshot()["payload"]["moments"]
    assert list(moments) == list(range(net.depth))
    for layer, (m_w, v_w, m_b, v_b) in zip(net.layers, moments.values()):
        assert m_w.shape == v_w.shape == layer.weight.shape
        assert m_b.shape == v_b.shape == layer.bias.shape
        assert not np.shares_memory(m_w, optimizer._first)
    flat = [part.ravel() for m_w, _, m_b, _ in moments.values() for part in (m_w, m_b)]
    assert np.concatenate(flat).tobytes() == optimizer._first.tobytes()


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_snapshot_after_a_copy_and_a_step_reflects_that_step(how, rng):
    import copy
    import pickle

    net, optimizer, x, y = _trained(rng)
    before = optimizer.snapshot()
    pair = (net, optimizer)
    twin_net, twin = copy.deepcopy(pair) if how == "deepcopy" else pickle.loads(pickle.dumps(pair))
    twin_net.train_step(x, y, twin, lam=0.001)
    after = twin.snapshot()["payload"]
    assert after["step_count"] == before["payload"]["step_count"] + 1
    fresh = Adam(0.01)
    fresh.restore(before)
    net.train_step(x, y, fresh, lam=0.001)
    for ours, theirs in zip(after["moments"].values(), fresh.snapshot()["payload"]["moments"].values()):
        for left, right in zip(ours, theirs):
            assert left.tobytes() == right.tobytes()
    assert twin_net.theta.tobytes() == net.theta.tobytes()
    # The original optimizer did not move.
    assert optimizer.snapshot()["payload"]["step_count"] == before["payload"]["step_count"]


def test_restore_continues_training_bitwise(rng):
    net, optimizer, x, y = _trained(rng)
    restored_net = MLP([3, 5, 2, 1], np.random.default_rng(0))
    restored_net.restore(net.snapshot())
    restored = Adam(0.01)
    restored.restore(optimizer.snapshot())
    for _ in range(4):
        net.train_step(x, y, optimizer, lam=0.001)
        restored_net.train_step(x, y, restored, lam=0.001)
    assert restored_net.theta.tobytes() == net.theta.tobytes()
    assert restored._second.tobytes() == optimizer._second.tobytes()
    assert restored._step_count == optimizer._step_count
