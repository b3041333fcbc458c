"""Broker populations: arrays, skill correlation, determinism."""

import copy
import pickle

import numpy as np
import pytest

from repro.simulation.brokers import generate_population


def test_validation(rng):
    with pytest.raises(ValueError):
        generate_population(0, 5, rng)


def test_array_shapes(rng):
    population = generate_population(30, 6, rng)
    assert len(population) == 30
    assert population.num_brokers == 30
    assert population.static_context.shape[0] == 30
    assert population.district_pref.shape == (30, 6)
    assert population.type_pref.shape == (30, 3)
    assert population.latent_capacity.shape == (30,)
    assert population.base_quality.shape == (30,)
    assert np.all(np.isfinite(population.static_context))


def test_preference_tables_gather_rows(rng):
    population = generate_population(30, 6, rng)
    assert population.district_fit.shape == (6, 30)
    assert population.type_fit.shape == (3, 30)
    assert population.response_fit.shape == (30,)
    assert population.district_fit.flags.c_contiguous
    # A broker's favourite district and house type carry the full weight.
    np.testing.assert_allclose(population.district_fit.max(axis=0), 0.35)
    np.testing.assert_allclose(population.type_fit.max(axis=0), 0.15)


@pytest.mark.parametrize(
    "name",
    ["district_pref", "type_pref", "response_rate", "district_fit", "type_fit", "response_fit"],
)
def test_preference_tables_and_sources_are_read_only(rng, name):
    """The fit tables are derived once; writing a source would leave them stale.

    The guard must survive copies too: numpy rebuilds copied arrays
    writeable, in a deepcopy as in a pickle round trip.
    """
    population = generate_population(5, 4, rng)
    copies = (copy.deepcopy(population), pickle.loads(pickle.dumps(population)))
    for candidate in (population, *copies):
        with pytest.raises(ValueError, match="read-only"):
            getattr(candidate, name)[0] = 0.5
    for duplicate in copies:
        np.testing.assert_array_equal(getattr(duplicate, name), getattr(population, name))


def test_quality_mean_matches_fig2_band(rng):
    population = generate_population(500, 6, rng)
    # The city-level plateau of Fig. 2 sits around 14-27%.
    assert 0.1 < population.base_quality.mean() < 0.3


def test_capacity_correlates_with_skill(rng):
    population = generate_population(300, 6, rng)
    correlation = np.corrcoef(population.skill, population.latent_capacity)[0, 1]
    assert correlation > 0.8


def test_quality_correlates_with_skill(rng):
    population = generate_population(300, 6, rng)
    correlation = np.corrcoef(population.skill, population.base_quality)[0, 1]
    assert correlation > 0.8


def test_skill_long_tailed(rng):
    population = generate_population(1000, 6, rng)
    assert np.median(population.skill) < population.skill.mean() + 0.05
    assert (population.skill > 0.6).mean() < 0.2  # thin top tail


def test_deterministic_given_seed():
    a = generate_population(20, 4, np.random.default_rng(9))
    b = generate_population(20, 4, np.random.default_rng(9))
    np.testing.assert_array_equal(a.static_context, b.static_context)
    np.testing.assert_array_equal(a.latent_capacity, b.latent_capacity)
