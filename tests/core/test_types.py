"""Entity types: assignment accounting and day-outcome accessors."""

import numpy as np
import pytest

from repro.core import AssignedPair, Assignment, DayOutcome


def test_assignment_predicted_utility_and_load():
    assignment = Assignment(day=0, batch=2)
    assignment.pairs.append(AssignedPair(10, 3, 0.4))
    assignment.pairs.append(AssignedPair(11, 3, 0.3))
    assignment.pairs.append(AssignedPair(12, 5, 0.2))
    assert len(assignment) == 3
    assert assignment.predicted_utility == pytest.approx(0.9)
    assert assignment.broker_load() == {3: 2, 5: 1}


def test_day_outcome_total():
    outcome = DayOutcome(
        day=1,
        workloads=np.array([2, 0, 3]),
        signup_rates=np.array([0.2, 0.0, 0.1]),
        realized_utility=np.array([0.5, 0.0, 0.4]),
    )
    assert outcome.total_realized_utility == pytest.approx(0.9)
