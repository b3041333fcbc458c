"""RNG durability: every stream resumes exactly where it left off.

The repo's determinism rests on named ``numpy.random.Generator`` streams
(platform, matcher, bandit, GBDT subsampling).  A restore must put each
stream back *in place* — same object identity, same position — so that
post-restore draws continue the uninterrupted sequence bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import make_matcher
from repro.simulation import SyntheticConfig, generate_city
from repro.state import rng_state, set_rng_state


def _city():
    config = SyntheticConfig(num_brokers=12, num_requests=90, num_days=3, seed=3)
    return config, generate_city(config)


def test_platform_rng_resumes_uninterrupted_sequence():
    config, platform = _city()
    platform.reset()
    platform.start_day(0)
    snapshot = platform.snapshot()
    expected = platform._rng.standard_normal(16)

    _config, twin = _city()
    twin.restore(snapshot)
    assert np.array_equal(twin._rng.standard_normal(16), expected)


def test_matcher_shared_rng_resumes_in_place():
    """make_matcher builds ONE generator per matcher, held by the bandit
    (the assigner draws none); restore must reinstall it in place, so the
    draws after restore match the uninterrupted sequence."""
    def bandit_of(matcher):
        # With personalization on the NNUCB bandit sits behind .base.
        return getattr(matcher.estimator, "base", matcher.estimator)

    _config, platform = _city()
    matcher = make_matcher("LACB", platform, seed=5)
    bandit_rng = bandit_of(matcher)._rng
    assert not hasattr(matcher.assigner, "rng")  # the bandit's is the only stream

    bandit_rng.standard_normal(7)  # advance the stream
    snapshot = matcher.snapshot()
    expected = bandit_rng.standard_normal(6)

    _config2, platform2 = _city()
    twin = make_matcher("LACB", platform2, seed=99)
    twin_rng = bandit_of(twin)._rng
    twin.restore(snapshot)
    assert bandit_of(twin)._rng is twin_rng  # restored in place, not rebound
    assert np.array_equal(twin_rng.standard_normal(6), expected)


def test_set_rng_state_does_not_rebind():
    rng = np.random.default_rng(0)
    alias = rng
    saved = rng_state(rng)
    rng.standard_normal(10)
    set_rng_state(rng, saved)
    assert alias is rng


def test_quickselect_pivot_stream_is_call_private():
    """CBS takes no generator at all, and the quickselect oracle rebuilds
    its private pivot stream per call — so checkpoints need not (and do
    not) carry any CBS or quickselect state."""
    from repro.check.differential import quickselect_union
    from repro.core.selection import select_candidate_brokers

    utilities = np.random.default_rng(7).uniform(size=(6, 40))
    first = select_candidate_brokers(utilities, 6)
    # Pivot-independent output: the oracle's union is the identical set,
    # call after call.
    np.testing.assert_array_equal(first, quickselect_union(utilities, 6))
    np.testing.assert_array_equal(first, quickselect_union(utilities, 6))


def test_gbdt_subsample_rng_round_trips():
    from repro.boosting.gbdt import GradientBoostedTrees

    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 4))
    y = x[:, 0]
    model = GradientBoostedTrees(num_rounds=4, subsample=0.7, rng=rng)
    model.fit(x, y)
    snapshot = model.snapshot()
    expected = rng.standard_normal(5)

    twin_rng = np.random.default_rng(999)
    twin = GradientBoostedTrees(num_rounds=4, subsample=0.7, rng=twin_rng)
    twin.restore(snapshot)
    assert np.array_equal(twin_rng.standard_normal(5), expected)
