"""A compact directed graph container.

Nodes are dense integers ``0..n-1``.  The PageRank experiments need out-
edge iteration, degrees, and undirected views for partitioning; this
container provides exactly that without pulling in heavier dependencies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Graph"]


class Graph:
    """Directed graph over nodes ``0..num_nodes-1``."""

    def __init__(self, num_nodes: int,
                 edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        self._out: List[List[int]] = [[] for _ in range(num_nodes)]
        self.num_edges = 0
        for src, dst in edges:
            self.add_edge(src, dst)

    def add_edge(self, src: int, dst: int) -> None:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise IndexError(f"edge ({src}, {dst}) out of range")
        self._out[src].append(dst)
        self.num_edges += 1

    def out_edges(self, node: int) -> Sequence[int]:
        return self._out[node]

    def out_degree(self, node: int) -> int:
        return len(self._out[node])

    def nodes(self) -> range:
        return range(self.num_nodes)

    def edges(self) -> Iterable[Tuple[int, int]]:
        for src, targets in enumerate(self._out):
            for dst in targets:
                yield (src, dst)

    def undirected_neighbors(self) -> List[Dict[int, int]]:
        """Symmetrized adjacency with edge multiplicities, used by the
        partitioner (cut edges count in both directions)."""
        adj: List[Dict[int, int]] = [{} for _ in range(self.num_nodes)]
        for src, dst in self.edges():
            if src == dst:
                continue
            adj[src][dst] = adj[src].get(dst, 0) + 1
            adj[dst][src] = adj[dst].get(src, 0) + 1
        return adj

    def __repr__(self) -> str:
        return f"<Graph nodes={self.num_nodes} edges={self.num_edges}>"
