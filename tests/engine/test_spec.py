"""Run specs: validation, picklability, and seed-faithful reconstruction."""

import pickle

import numpy as np
import pytest

from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.simulation import SyntheticConfig, real_like_city

TINY = SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=11)


def test_platform_spec_validation():
    with pytest.raises(ValueError, match="unknown platform kind"):
        PlatformSpec(kind="cloud")
    with pytest.raises(ValueError, match="SyntheticConfig"):
        PlatformSpec(kind="synthetic")
    with pytest.raises(ValueError, match="city"):
        PlatformSpec(kind="real_city", city="Z")


def test_run_spec_round_trips_through_pickle():
    spec = RunSpec(
        platform=PlatformSpec.synthetic(TINY),
        matcher=MatcherSpec("LACB-Opt", seed=3, empirical_capacity=12.0),
        store_assignments=True,
        tag="num_brokers=20",
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.platform.config.num_brokers == 20
    assert clone.matcher.name == "LACB-Opt"
    assert clone.tag == "num_brokers=20"


def test_matcher_spec_fields_are_the_recipe():
    import dataclasses

    assert [f.name for f in dataclasses.fields(MatcherSpec)] == [
        "name",
        "seed",
        "empirical_capacity",
    ]


def test_synthetic_build_is_deterministic():
    spec = PlatformSpec.synthetic(TINY)
    first, second = spec.build(), spec.build()
    assert first.num_days == second.num_days == TINY.num_days
    first.reset()
    second.reset()
    first.start_day(0)
    second.start_day(0)
    first_ids = first.batch_requests(0, 0)
    second_ids = second.batch_requests(0, 0)
    np.testing.assert_array_equal(first_ids, second_ids)
    np.testing.assert_array_equal(
        first.predicted_utilities(first_ids), second.predicted_utilities(second_ids)
    )


def test_real_city_spec_matches_real_like_city():
    reference, city_spec, config = real_like_city("C", scale=0.008, seed=7)
    rebuilt = PlatformSpec.real_city("C", scale=0.008, seed=7).build()
    assert rebuilt.num_brokers == reference.num_brokers == max(20, round(city_spec.brokers * 0.008))
    assert rebuilt.num_days == config.num_days
    np.testing.assert_array_equal(rebuilt.latent_capacities, reference.latent_capacities)


def test_cache_key_distinguishes_configs():
    base = PlatformSpec.synthetic(TINY)
    same = PlatformSpec.synthetic(
        SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=11)
    )
    other = PlatformSpec.synthetic(
        SyntheticConfig(num_brokers=20, num_requests=80, num_days=2, imbalance=0.1, seed=12)
    )
    assert base.cache_key() == same.cache_key()
    assert base.cache_key() != other.cache_key()
    assert base.cache_key() != PlatformSpec.real_city("A").cache_key()
    assert hash(base.cache_key())  # usable as a dict key


def test_matcher_spec_builds_registry_matchers():
    platform = PlatformSpec.synthetic(TINY).build()
    matcher = MatcherSpec("CTop-3", seed=5, empirical_capacity=12.0).build(platform)
    assert matcher.name == "CTop-3"
    with pytest.raises(KeyError):
        MatcherSpec("NoSuch").build(platform)


def test_run_spec_executes_standalone():
    result = RunSpec(
        platform=PlatformSpec.synthetic(TINY),
        matcher=MatcherSpec("Top-3", seed=1),
        store_outcomes=True,
    ).run()
    assert result.algorithm == "Top-3"
    assert result.num_assigned == TINY.num_requests
    assert len(result.outcomes) == TINY.num_days
