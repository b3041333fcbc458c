"""Min-cost-flow assignment: validity, optimality vs scipy, networkx check."""

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.check.flow import min_cost_flow_assignment
from repro.matching import assert_valid_matching


def test_simple_instance():
    weights = np.array([[0.9, 0.1], [0.2, 0.8]])
    result = min_cost_flow_assignment(weights)
    assert dict(result.pairs) == {0: 0, 1: 1}
    assert result.total_weight == pytest.approx(1.7)


def test_rejects_negative_weights():
    with pytest.raises(ValueError):
        min_cost_flow_assignment(np.array([[1.0, -0.1]]))


def test_rejects_non_matrix():
    with pytest.raises(ValueError):
        min_cost_flow_assignment(np.zeros(3))


def test_empty():
    result = min_cost_flow_assignment(np.zeros((0, 4)))
    assert result.pairs == [] and result.total_weight == 0.0


def test_optimal_vs_scipy(rng):
    for _ in range(25):
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        weights = rng.uniform(0.05, 1.0, size=(r, c))
        result = min_cost_flow_assignment(weights)
        assert_valid_matching(result, weights)
        rows, cols = linear_sum_assignment(-weights)
        assert result.total_weight == pytest.approx(weights[rows, cols].sum())


def test_agrees_with_networkx_matching(rng):
    weights = rng.uniform(0.05, 1.0, size=(6, 6))
    result = min_cost_flow_assignment(weights)
    graph = nx.Graph()
    for row in range(6):
        for col in range(6):
            graph.add_edge(("r", row), ("c", col), weight=weights[row, col])
    matching = nx.max_weight_matching(graph, maxcardinality=False)
    nx_total = sum(graph.edges[edge]["weight"] for edge in matching)
    assert result.total_weight == pytest.approx(nx_total)
