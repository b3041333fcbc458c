"""Property-based invariants of the platform day loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import AssignedPair, Assignment
from repro.simulation import SyntheticConfig, generate_city
from repro.simulation.utility import ground_truth_affinity


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_random_policy_invariants(seed):
    """Any well-formed assignment sequence keeps the books balanced."""
    config = SyntheticConfig(
        num_brokers=15, num_requests=120, num_days=2, imbalance=0.2, seed=4
    )
    platform = generate_city(config)
    platform.reset()
    rng = np.random.default_rng(seed)
    for day in range(platform.num_days):
        platform.start_day(day)
        submitted = np.zeros(platform.num_brokers, dtype=int)
        affinity_sum = np.zeros(platform.num_brokers)
        for batch in range(platform.batches_per_day):
            requests = platform.batch_requests(day, batch)
            if requests.size == 0:
                continue
            brokers = rng.integers(0, platform.num_brokers, size=requests.size)
            utilities = platform.predicted_utilities(requests)
            affinity = ground_truth_affinity(platform.population, platform.stream, requests)
            pairs = []
            for row, (request, broker) in enumerate(zip(requests, brokers)):
                pairs.append(AssignedPair(int(request), int(broker), float(utilities[row, broker])))
                submitted[broker] += 1
                affinity_sum[broker] += affinity[row, broker]
            platform.submit_assignment(Assignment(day, batch, pairs))
        outcome = platform.finish_day()

        # Workloads equal exactly what was submitted (no appeals here).
        np.testing.assert_array_equal(outcome.workloads, submitted)
        # Realized utility never exceeds the undegraded affinity total.
        assert np.all(outcome.realized_utility <= affinity_sum + 1e-9)
        assert np.all(outcome.realized_utility >= 0.0)
        # Sign-up rates are probabilities, zero for idle brokers.
        assert np.all((0.0 <= outcome.signup_rates) & (outcome.signup_rates <= 1.0))
        assert np.all(outcome.signup_rates[submitted == 0] == 0.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_vfga_never_exceeds_capacity(seed):
    """Alg. 2's defining invariant under arbitrary utility draws."""
    from repro.core import AssignmentConfig, ValueFunctionGuidedAssigner

    rng = np.random.default_rng(seed)
    num_brokers = 12
    assigner = ValueFunctionGuidedAssigner(
        num_brokers, AssignmentConfig(), batches_per_day=6
    )
    capacities = rng.integers(1, 5, size=num_brokers).astype(float)
    assigner.begin_day(capacities)
    for batch in range(6):
        size = int(rng.integers(1, 5))
        utilities = rng.uniform(0.01, 1.0, size=(size, num_brokers))
        assigner.assign_batch(0, batch, np.arange(size), utilities)
        assert np.all(assigner.workloads <= capacities)
    assigner.end_day()
