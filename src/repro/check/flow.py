"""Min-cost-flow assignment solver (independent cross-check).

Maximum-weight bipartite matching reduces to min-cost max-flow on a
source/sink network with unit capacities.  We implement successive shortest
paths with Johnson potentials (Bellman-Ford initialization, Dijkstra
thereafter) from scratch.  The differential suites and the tests use this
solver to independently confirm that the Hungarian implementation
(`repro.matching.hungarian`) is optimal, and that CBS pruning (Theorem 2)
loses nothing; it is not a production matching backend.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.matching.bipartite import MatchResult


class _FlowNetwork:
    """Adjacency-list residual network with per-edge cost."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.capacity: list[int] = []
        self.cost: list[float] = []

    def add_edge(self, src: int, dst: int, capacity: int, cost: float) -> None:
        """Add a directed edge and its zero-capacity reverse twin."""
        self.head[src].append(len(self.to))
        self.to.append(dst)
        self.capacity.append(capacity)
        self.cost.append(cost)
        self.head[dst].append(len(self.to))
        self.to.append(src)
        self.capacity.append(0)
        self.cost.append(-cost)


def min_cost_flow_assignment(weights: np.ndarray) -> MatchResult:
    """Maximum-weight bipartite matching via min-cost flow.

    Unmatched vertices are allowed (each augmenting path is only taken while
    it improves the objective), matching the zero-weight dummy-padding
    semantics of :func:`repro.matching.hungarian.solve_assignment`.

    Args:
        weights: ``(n_rows, n_cols)`` non-negative edge weights.

    Returns:
        A :class:`MatchResult` with the optimal pairs and total weight.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {weights.shape}")
    if weights.size and weights.min() < 0:
        raise ValueError("min_cost_flow_assignment expects non-negative weights")
    n_rows, n_cols = weights.shape
    if n_rows == 0 or n_cols == 0:
        return MatchResult(pairs=[], total_weight=0.0)

    source = n_rows + n_cols
    sink = source + 1
    net = _FlowNetwork(n_rows + n_cols + 2)
    for row in range(n_rows):
        net.add_edge(source, row, 1, 0.0)
    for col in range(n_cols):
        net.add_edge(n_rows + col, sink, 1, 0.0)
    edge_of_pair: dict[int, tuple[int, int]] = {}
    for row in range(n_rows):
        for col in range(n_cols):
            if weights[row, col] > 0.0:
                edge_of_pair[len(net.to)] = (row, col)
                net.add_edge(row, n_rows + col, 1, -float(weights[row, col]))

    potential = _bellman_ford(net, source)
    total = 0.0
    while True:
        dist, parent_edge = _dijkstra(net, source, potential)
        if not np.isfinite(dist[sink]):
            break
        true_cost = dist[sink] + potential[sink] - potential[source]
        if true_cost >= 0.0:
            break  # further augmentation would lower total weight
        node = sink
        while node != source:
            edge = parent_edge[node]
            net.capacity[edge] -= 1
            net.capacity[edge ^ 1] += 1
            node = net.to[edge ^ 1]
        total -= true_cost
        finite = np.isfinite(dist)
        potential[finite] += dist[finite]

    pairs = [
        edge_of_pair[edge]
        for edge in edge_of_pair
        if net.capacity[edge] == 0  # saturated forward edge == matched pair
    ]
    pairs.sort()
    return MatchResult(pairs=pairs, total_weight=total)


def _bellman_ford(net: _FlowNetwork, source: int) -> np.ndarray:
    """Exact shortest distances with negative edges (initial potentials)."""
    dist = np.full(net.num_nodes, np.inf)
    dist[source] = 0.0
    for _ in range(net.num_nodes - 1):
        changed = False
        for node in range(net.num_nodes):
            if not np.isfinite(dist[node]):
                continue
            for edge in net.head[node]:
                if net.capacity[edge] > 0 and dist[node] + net.cost[edge] < dist[net.to[edge]]:
                    dist[net.to[edge]] = dist[node] + net.cost[edge]
                    changed = True
        if not changed:
            break
    dist[~np.isfinite(dist)] = 0.0
    return dist


def _dijkstra(
    net: _FlowNetwork,
    source: int,
    potential: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Shortest paths on reduced (non-negative) costs."""
    dist = np.full(net.num_nodes, np.inf)
    parent_edge = [-1] * net.num_nodes
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        node_dist, node = heapq.heappop(heap)
        if node_dist > dist[node]:
            continue
        for edge in net.head[node]:
            if net.capacity[edge] <= 0:
                continue
            neighbor = net.to[edge]
            reduced = net.cost[edge] + potential[node] - potential[neighbor]
            candidate = node_dist + reduced
            if candidate < dist[neighbor] - 1e-12:
                dist[neighbor] = candidate
                parent_edge[neighbor] = edge
                heapq.heappush(heap, (candidate, neighbor))
    return dist, parent_edge
