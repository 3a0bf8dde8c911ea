"""Unit tests for the graph container and generators."""

import random

import pytest

from repro.graphs import (Graph, powerlaw_graph, ring_graph, social_graph,
                          uniform_graph)


def test_graph_basics():
    graph = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
    assert graph.num_nodes == 3
    assert graph.num_edges == 3
    assert list(graph.out_edges(0)) == [1, 2]
    assert graph.out_degree(0) == 2
    assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_graph_rejects_out_of_range_edges():
    graph = Graph(2)
    with pytest.raises(IndexError):
        graph.add_edge(0, 5)
    with pytest.raises(ValueError):
        Graph(-1)


def test_undirected_neighbors_symmetrized():
    graph = Graph(3, edges=[(0, 1), (0, 1), (1, 2)])
    adj = graph.undirected_neighbors()
    assert adj[0][1] == 2           # multiplicity preserved
    assert adj[1][0] == 2
    assert adj[2][1] == 1
    assert 2 not in adj[0]


def test_self_loops_excluded_from_undirected():
    graph = Graph(2, edges=[(0, 0), (0, 1)])
    adj = graph.undirected_neighbors()
    assert 0 not in adj[0]


def test_ring_graph_structure():
    graph = ring_graph(5, hops=2)
    assert graph.num_edges == 10
    assert sorted(graph.out_edges(4)) == [0, 1]


def test_powerlaw_graph_has_degree_skew():
    graph = powerlaw_graph(500, 3, random.Random(1))
    degrees = sorted((graph.out_degree(n) for n in graph.nodes()),
                     reverse=True)
    assert degrees[0] > 5 * degrees[len(degrees) // 2]


def test_powerlaw_graph_deterministic_per_seed():
    a = powerlaw_graph(100, 2, random.Random(5))
    b = powerlaw_graph(100, 2, random.Random(5))
    assert list(a.edges()) == list(b.edges())


def test_powerlaw_minimum_size():
    with pytest.raises(ValueError):
        powerlaw_graph(1, 2)


def test_social_graph_superhubs_dominate():
    graph = social_graph(1000, 3, superhubs=3, hub_fraction=0.1,
                         rng=random.Random(2))
    hub_degree = min(graph.out_degree(h) for h in range(3))
    tail_degree = graph.out_degree(900)
    assert hub_degree > 5 * max(1, tail_degree)


def test_uniform_graph_edge_count():
    graph = uniform_graph(50, 200, random.Random(3))
    assert graph.num_edges <= 200
    assert graph.num_edges > 150  # only self-loop draws are dropped
