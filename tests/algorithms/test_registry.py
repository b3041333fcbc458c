"""Algorithm registry: every name builds, configuration plumbs through."""

import inspect

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_NAMES, make_matcher
from repro.algorithms.ctopk import ConstrainedTopKRecommender
from repro.algorithms.lacb import LACBMatcher


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_name_builds(name, tiny_platform):
    matcher = make_matcher(name, tiny_platform, seed=3)
    assert matcher.name == name


def test_unknown_name(tiny_platform):
    with pytest.raises(KeyError):
        make_matcher("GPT", tiny_platform)


def test_empirical_capacity_reaches_ctopk(tiny_platform):
    matcher = make_matcher("CTop-3", tiny_platform, empirical_capacity=55.0)
    assert isinstance(matcher, ConstrainedTopKRecommender)
    assert matcher.capacity == 55.0


def test_lacb_opt_enables_cbs(tiny_platform):
    matcher = make_matcher("LACB-Opt", tiny_platform)
    assert isinstance(matcher, LACBMatcher)
    assert matcher.config.assignment.use_cbs is True
    plain = make_matcher("LACB", tiny_platform)
    assert plain.config.assignment.use_cbs is False


def test_batches_per_day_plumbed(tiny_platform):
    matcher = make_matcher("LACB", tiny_platform)
    assert matcher.assigner.batches_per_day == tiny_platform.batches_per_day


def test_make_matcher_takes_only_the_recipe():
    # Config ablations build the matcher classes directly.
    assert list(inspect.signature(make_matcher).parameters) == [
        "name",
        "platform",
        "seed",
        "empirical_capacity",
    ]


@pytest.mark.parametrize("cls", [LACBMatcher])
def test_value_function_matchers_require_batches_per_day(cls):
    with pytest.raises(TypeError):
        cls(4, 6, np.random.default_rng(0))
    with pytest.raises(ValueError):
        cls(4, 6, np.random.default_rng(0), batches_per_day=0)
