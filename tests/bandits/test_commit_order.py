"""A scored commit lands after every queued explore commit, in broker order.

Structured exploration queues its covariance commits; a scored broker
applies its own at once.  ``D`` must still accumulate in broker order, so
the scored broker flushes the queue before its bonus reads ``D`` and before
its commit lands.  Each case scores brokers right after a run of queued
explore commits — one, one short of a full block, and a full block (which
has already flushed itself) — and holds ``D`` bitwise against the oracle
commit applied broker by broker.
"""

import copy
import functools

import numpy as np
import pytest

from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
from repro.bandits.neural_ucb import COMMIT_BLOCK
from repro.check.differential import per_context_estimates, reference_commit
from repro.core.config import BanditConfig

CONTEXT_DIM = 5
SCORED = (0, 1)


def _warm_estimator(hidden_sizes, seed):
    """A trained personalized estimator whose brokers 0 and 1 score."""
    rng = np.random.default_rng(seed)
    config = BanditConfig(
        hidden_sizes=hidden_sizes, min_arm_pulls=0, epsilon=0.0, batch_size=8
    )
    estimator = PersonalizedCapacityEstimator(NNUCBBandit(CONTEXT_DIM, config, rng))
    for _ in range(estimator.personal_explore + 2):
        contexts = rng.normal(size=(len(SCORED), CONTEXT_DIM))
        capacities = estimator.estimate_batch(contexts, np.array(SCORED))
        for broker_id, context, capacity in zip(SCORED, contexts, capacities):
            estimator.update(
                context, float(rng.integers(1, 40)), float(rng.uniform()), broker_id,
                capacity=float(capacity),
            )
    return estimator, rng


@pytest.mark.parametrize("hidden_sizes", [(8, 4), (64, 16)])
@pytest.mark.parametrize("queued", [1, COMMIT_BLOCK - 1, COMMIT_BLOCK])
def test_scored_commit_follows_queued_explore_commits(hidden_sizes, queued):
    estimator, rng = _warm_estimator(hidden_sizes, seed=queued)
    # ``queued`` never-seen brokers explore (their commits queue), then the
    # two scored brokers; then one more explore run before a scored broker.
    broker_ids = np.concatenate(
        [1000 + np.arange(queued), SCORED, [2000], SCORED[:1]]
    )
    contexts = rng.normal(size=(broker_ids.size, CONTEXT_DIM))

    batched = copy.deepcopy(estimator)
    got = batched.estimate_batch(contexts, broker_ids)

    looped = copy.deepcopy(estimator)
    base = looped.base
    base._commit = base._commit_now = functools.partial(reference_commit, base)
    expected = per_context_estimates(looped, contexts, broker_ids)

    np.testing.assert_array_equal(got, expected)
    assert batched.base._d_diag.tobytes() == base._d_diag.tobytes()
    np.testing.assert_array_equal(batched.base._arm_pulls, base._arm_pulls)
    assert batched.base._num_pending == 0
