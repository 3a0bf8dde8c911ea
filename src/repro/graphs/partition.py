"""Multilevel graph partitioning (the METIS stand-in).

Implements the algorithm family METIS popularized:

1. **Coarsening** by heavy-edge matching until the graph is small;
2. **Initial partitioning** of the coarse graph by greedy BFS region
   growing into node-balanced parts;
3. **Uncoarsening with refinement**: projected back level by level, a
   boundary-greedy Kernighan–Lin/Fiduccia–Mattheyses-style pass moves
   nodes to reduce the edge cut while keeping parts within a balance
   tolerance.

The experiments only require METIS's observable behaviour — partitions
with (near-)equal node counts and a respectable cut — because the
paper's point is that *node-balanced* partitions still have skewed
compute cost on power-law graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph

__all__ = ["PartitionResult", "partition_graph", "edge_cut",
           "partition_sizes"]


@dataclass
class PartitionResult:
    """Assignment of every node to one of ``k`` parts."""

    assignment: List[int]
    k: int

    def sizes(self) -> List[int]:
        counts = [0] * self.k
        for part in self.assignment:
            counts[part] += 1
        return counts


def edge_cut(graph: Graph, assignment: Sequence[int]) -> int:
    """Number of directed edges crossing part boundaries."""
    return sum(1 for src, dst in graph.edges()
               if assignment[src] != assignment[dst])


def partition_sizes(assignment: Sequence[int], k: int) -> List[int]:
    """Node count per part for an assignment vector."""
    counts = [0] * k
    for part in assignment:
        counts[part] += 1
    return counts


def partition_graph(graph: Graph, k: int,
                    rng: Optional[random.Random] = None,
                    balance_tolerance: float = 0.05,
                    coarsen_until: int = 256) -> PartitionResult:
    """Partition ``graph`` into ``k`` node-balanced parts."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k == 1 or graph.num_nodes == 0:
        return PartitionResult(assignment=[0] * graph.num_nodes, k=k)
    if k >= graph.num_nodes:
        return PartitionResult(
            assignment=[node % k for node in graph.nodes()], k=k)
    rng = rng or random.Random(0)

    adj = graph.undirected_neighbors()
    weights = [1] * graph.num_nodes

    # -- coarsening ---------------------------------------------------------
    # Each history entry is the *fine* level (its adjacency, node weights,
    # and the fine->coarse mapping) so uncoarsening can refine against the
    # right graph at every level.
    history: List[Tuple[List[Dict[int, int]], List[int], List[int]]] = []
    target = max(coarsen_until, 8 * k)
    while len(adj) > target:
        mapping, coarse_adj, coarse_weights = _coarsen(adj, weights, rng)
        if len(coarse_adj) >= len(adj):  # no progress: matching exhausted
            break
        history.append((adj, weights, mapping))
        adj = coarse_adj
        weights = coarse_weights

    # -- initial partition of the coarse graph -------------------------------
    assignment = _region_grow(adj, weights, k)
    _rebalance(adj, weights, assignment, k, balance_tolerance)
    _refine(adj, weights, assignment, k, balance_tolerance, rounds=6)

    # -- uncoarsen + refine ---------------------------------------------------
    for fine_adj, fine_weights, mapping in reversed(history):
        assignment = [assignment[coarse] for coarse in mapping]
        _rebalance(fine_adj, fine_weights, assignment, k, balance_tolerance)
        _refine(fine_adj, fine_weights, assignment, k, balance_tolerance,
                rounds=4)
        _rebalance(fine_adj, fine_weights, assignment, k, balance_tolerance)

    return PartitionResult(assignment=assignment, k=k)


# ---------------------------------------------------------------------------


def _coarsen(adj: List[Dict[int, int]], weights: List[int],
             rng: random.Random):
    """Heavy-edge matching: each unmatched node pairs with its heaviest
    unmatched neighbor; pairs collapse into coarse nodes."""
    n = len(adj)
    match = [-1] * n
    visit_order = list(range(n))
    rng.shuffle(visit_order)
    for node in visit_order:
        if match[node] != -1:
            continue
        best = -1
        best_weight = -1
        for neighbor, weight in adj[node].items():
            if match[neighbor] == -1 and weight > best_weight:
                best = neighbor
                best_weight = weight
        if best != -1:
            match[node] = best
            match[best] = node
        else:
            match[node] = node

    mapping = [-1] * n
    next_id = 0
    for node in range(n):
        if mapping[node] != -1:
            continue
        mapping[node] = next_id
        partner = match[node]
        if partner != node and mapping[partner] == -1:
            mapping[partner] = next_id
        next_id += 1

    coarse_adj: List[Dict[int, int]] = [{} for _ in range(next_id)]
    coarse_weights = [0] * next_id
    for node in range(n):
        coarse = mapping[node]
        coarse_weights[coarse] += weights[node]
        for neighbor, weight in adj[node].items():
            coarse_neighbor = mapping[neighbor]
            if coarse_neighbor == coarse:
                continue
            coarse_adj[coarse][coarse_neighbor] = (
                coarse_adj[coarse].get(coarse_neighbor, 0) + weight)
    return mapping, coarse_adj, coarse_weights


def _region_grow(adj: List[Dict[int, int]], weights: List[int],
                 k: int) -> List[int]:
    """Greedy BFS region growing into k weight-balanced parts.

    Each part grows from the highest-degree unassigned seed until it
    reaches its weight target; leftovers are fed to the lightest parts.
    """
    from collections import deque

    n = len(adj)
    total = sum(weights)
    target = total / k
    assignment = [-1] * n
    part_weight = [0.0] * k
    seeds = sorted(range(n), key=lambda node: -len(adj[node]))
    seed_index = 0

    for part in range(k):
        while seed_index < n and assignment[seeds[seed_index]] != -1:
            seed_index += 1
        if seed_index >= n:
            break
        queue = deque([seeds[seed_index]])
        while queue and part_weight[part] < target:
            node = queue.popleft()
            if assignment[node] != -1:
                continue
            assignment[node] = part
            part_weight[part] += weights[node]
            for neighbor in adj[node]:
                if assignment[neighbor] == -1:
                    queue.append(neighbor)

    for node in range(n):
        if assignment[node] == -1:
            part = min(range(k), key=lambda p: part_weight[p])
            assignment[node] = part
            part_weight[part] += weights[node]
    return assignment


def _rebalance(adj: List[Dict[int, int]], weights: List[int],
               assignment: List[int], k: int, tolerance: float) -> None:
    """Force every part into the balance band by moving the cheapest
    boundary (or, failing that, any) nodes from heavy parts to light ones."""
    total = sum(weights)
    target = total / k
    max_weight = target * (1.0 + tolerance)
    min_weight = target * (1.0 - tolerance)
    part_weight = [0.0] * k
    nodes_in: List[List[int]] = [[] for _ in range(k)]
    for node, part in enumerate(assignment):
        part_weight[part] += weights[node]
        nodes_in[part].append(node)

    for _ in range(4 * len(adj)):
        light = min(range(k), key=lambda p: part_weight[p])
        if part_weight[light] >= min_weight:
            break
        heavy = max(range(k), key=lambda p: part_weight[p])
        if heavy == light or not nodes_in[heavy]:
            break
        # Cheapest node to surrender: most connectivity toward `light`,
        # least toward `heavy`.
        best = None
        best_cost = None
        for node in nodes_in[heavy]:
            to_light = sum(w for nb, w in adj[node].items()
                           if assignment[nb] == light)
            to_heavy = sum(w for nb, w in adj[node].items()
                           if assignment[nb] == heavy)
            cost = to_heavy - to_light
            if best_cost is None or cost < best_cost:
                best = node
                best_cost = cost
        if best is None:
            break
        nodes_in[heavy].remove(best)
        nodes_in[light].append(best)
        assignment[best] = light
        part_weight[heavy] -= weights[best]
        part_weight[light] += weights[best]


def _refine(adj: List[Dict[int, int]], weights: List[int],
            assignment: List[int], k: int, tolerance: float,
            rounds: int) -> None:
    """Boundary-greedy refinement: move nodes whose gain (cut reduction)
    is positive, or zero-gain moves that improve balance, respecting a
    weight tolerance per part."""
    total = sum(weights)
    target = total / k
    max_weight = target * (1.0 + tolerance)
    min_weight = target * (1.0 - tolerance)
    part_weight = [0.0] * k
    for node, part in enumerate(assignment):
        part_weight[part] += weights[node]

    for _ in range(rounds):
        moved = 0
        for node in range(len(adj)):
            home = assignment[node]
            # connectivity to each part among neighbors
            link: Dict[int, int] = {}
            for neighbor, weight in adj[node].items():
                link[assignment[neighbor]] = (
                    link.get(assignment[neighbor], 0) + weight)
            internal = link.get(home, 0)
            best_part = home
            best_gain = 0
            for part, weight in link.items():
                if part == home:
                    continue
                gain = weight - internal
                new_src = part_weight[home] - weights[node]
                new_dst = part_weight[part] + weights[node]
                if new_dst > max_weight or new_src < min_weight:
                    continue
                improves_balance = (gain == 0 and new_dst < new_src)
                if gain > best_gain or (best_part == home and improves_balance):
                    best_gain = gain
                    best_part = part
            if best_part != home:
                part_weight[home] -= weights[node]
                part_weight[best_part] += weights[node]
                assignment[node] = best_part
                moved += 1
        if moved == 0:
            break


