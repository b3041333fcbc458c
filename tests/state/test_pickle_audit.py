"""Pickle audit: everything the executor ships between processes survives.

``run_many`` pickles specs into workers today; operators also pickle live
objects ad hoc (debug dumps, notebook workflows).  This audit pins down
that every registered algorithm, the engine hooks, the platform and the
spec layer survive ``pickle -> unpickle`` with their durable state intact
(``snapshot()`` equality before vs after).
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms import ALGORITHM_NAMES, make_matcher
from repro.engine.hooks import DecisionTimer, MetricsCollector
from repro.engine.loop import DayLoopEngine
from repro.engine.spec import MatcherSpec, PlatformSpec, RunSpec
from repro.simulation import SyntheticConfig, generate_city
from repro.state import state_equal


@pytest.fixture(scope="module")
def config():
    return SyntheticConfig(num_brokers=10, num_requests=60, num_days=2, seed=3)


@pytest.fixture(scope="module")
def platform(config):
    return generate_city(config)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_algorithm_pickles_with_state(name, config):
    platform = generate_city(config)
    matcher = make_matcher(name, platform, seed=5)
    DayLoopEngine().run(platform, matcher)
    clone = pickle.loads(pickle.dumps(matcher))
    assert state_equal(clone.snapshot(), matcher.snapshot())


def test_platform_pickles_with_state(config):
    platform = generate_city(config)
    matcher = make_matcher("Greedy", platform, seed=5)
    DayLoopEngine().run(platform, matcher)
    clone = pickle.loads(pickle.dumps(platform))
    assert state_equal(clone.snapshot(), platform.snapshot())


def test_hooks_pickle_with_state(config):
    platform = generate_city(config)
    matcher = make_matcher("Greedy", platform, seed=5)
    hooks = (
        MetricsCollector(store_outcomes=True, store_assignments=True),
        DecisionTimer(),
    )
    DayLoopEngine().run(platform, matcher, hooks=hooks)
    for hook in hooks:
        clone = pickle.loads(pickle.dumps(hook))
        assert state_equal(clone.snapshot(), hook.snapshot())


def test_runspec_pickles(config):
    spec = RunSpec(
        platform=PlatformSpec.synthetic(config),
        matcher=MatcherSpec("LACB", seed=5),
        checkpoint_dir="/tmp/somewhere",
        checkpoint_every=2,
        resume_from="/tmp/somewhere",
        tag="pickle-audit",
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.run_id() == spec.run_id()
