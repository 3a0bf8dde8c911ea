"""Unit tests for the multilevel partitioner."""

import random

import pytest

from repro.graphs import (edge_cut, partition_graph, partition_sizes,
                          powerlaw_graph, ring_graph, uniform_graph)


def test_every_node_assigned_within_k():
    graph = powerlaw_graph(400, 3, random.Random(1))
    result = partition_graph(graph, 8, random.Random(2))
    assert len(result.assignment) == graph.num_nodes
    assert all(0 <= part < 8 for part in result.assignment)


def test_partitions_node_balanced():
    graph = powerlaw_graph(960, 4, random.Random(1))
    result = partition_graph(graph, 16, random.Random(2))
    sizes = result.sizes()
    assert min(sizes) >= 0.85 * (graph.num_nodes / 16)
    assert max(sizes) <= 1.15 * (graph.num_nodes / 16)


def test_cut_beats_random_assignment():
    graph = uniform_graph(600, 2400, random.Random(4))
    result = partition_graph(graph, 8, random.Random(2))
    rng = random.Random(9)
    random_assignment = [rng.randrange(8) for _ in graph.nodes()]
    assert edge_cut(graph, result.assignment) < \
        edge_cut(graph, random_assignment)


def test_ring_graph_cut_is_small():
    graph = ring_graph(256)
    result = partition_graph(graph, 4, random.Random(2))
    # A ring cut into 4 contiguous arcs has cut 4; allow some slack.
    assert edge_cut(graph, result.assignment) <= 24


def test_k_equals_one():
    graph = powerlaw_graph(50, 2, random.Random(1))
    result = partition_graph(graph, 1)
    assert set(result.assignment) == {0}


def test_k_at_least_num_nodes():
    graph = powerlaw_graph(8, 2, random.Random(1))
    result = partition_graph(graph, 16)
    assert len(result.assignment) == 8


def test_invalid_k_rejected():
    graph = powerlaw_graph(10, 2, random.Random(1))
    with pytest.raises(ValueError):
        partition_graph(graph, 0)


def test_partition_sizes_helper():
    assert partition_sizes([0, 1, 1, 2], 3) == [1, 2, 1]


def test_deterministic_given_seed():
    graph = powerlaw_graph(300, 3, random.Random(1))
    a = partition_graph(graph, 8, random.Random(7)).assignment
    b = partition_graph(graph, 8, random.Random(7)).assignment
    assert a == b
