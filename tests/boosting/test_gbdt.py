"""Gradient boosting: monotone training loss, accuracy, validation."""

import numpy as np
import pytest

from repro.boosting import GradientBoostedTrees


def test_parameter_validation():
    with pytest.raises(ValueError):
        GradientBoostedTrees(num_rounds=0)
    with pytest.raises(ValueError):
        GradientBoostedTrees(learning_rate=0.0)
    with pytest.raises(ValueError):
        GradientBoostedTrees(subsample=0.0)
    with pytest.raises(ValueError):
        GradientBoostedTrees(subsample=0.5)  # needs rng


def test_predict_before_fit():
    with pytest.raises(RuntimeError):
        GradientBoostedTrees().predict(np.zeros((1, 2)))


def test_fit_shape_mismatch():
    with pytest.raises(ValueError):
        GradientBoostedTrees().fit(np.zeros((3, 2)), np.zeros(4))


def test_training_loss_decreases(rng):
    x = rng.uniform(-1, 1, size=(300, 3))
    y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
    model = GradientBoostedTrees(num_rounds=40).fit(x, y)
    losses = model.train_losses
    assert len(losses) == 40
    assert losses[-1] < 0.2 * losses[0]
    # Full-sample squared-loss boosting is monotone non-increasing.
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_beats_constant_predictor(rng):
    x = rng.uniform(-1, 1, size=(400, 4))
    y = x[:, 0] ** 2 + x[:, 1]
    model = GradientBoostedTrees(num_rounds=50).fit(x, y)
    mse = np.mean((model.predict(x) - y) ** 2)
    assert mse < 0.1 * y.var()


def test_subsampling_still_learns(rng):
    x = rng.uniform(-1, 1, size=(400, 3))
    y = 2 * x[:, 0]
    model = GradientBoostedTrees(num_rounds=50, subsample=0.7, rng=rng).fit(x, y)
    mse = np.mean((model.predict(x) - y) ** 2)
    assert mse < 0.1 * y.var()


def test_generalization_on_holdout(rng):
    x = rng.uniform(-1, 1, size=(600, 2))
    y = np.where(x[:, 0] > 0, 1.0, 0.0) + 0.05 * rng.normal(size=600)
    model = GradientBoostedTrees(num_rounds=30).fit(x[:400], y[:400])
    holdout_mse = np.mean((model.predict(x[400:]) - y[400:]) ** 2)
    assert holdout_mse < 0.05


def test_num_trees(rng):
    x = rng.uniform(size=(50, 2))
    y = rng.normal(size=50)
    model = GradientBoostedTrees(num_rounds=7).fit(x, y)
    assert len(model.train_losses) == 7  # one fitted tree per boosting round
