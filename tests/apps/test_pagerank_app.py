"""Tests for the distributed PageRank application (Figs. 6-8 substrate)."""

import random

import pytest

from repro.apps.pagerank import (PAGERANK_POLICY, PageRankWorker,
                                 build_pagerank, collect_ranks,
                                 run_iterations)
from repro.baselines import MizanMigrator
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.graphs import pagerank, powerlaw_graph, social_graph


@pytest.fixture(scope="module")
def small_graph():
    return powerlaw_graph(400, 3, random.Random(11))


def test_distributed_ranks_match_reference(small_graph):
    bed = build_cluster(4)
    deployment = build_pagerank(bed, small_graph, 8)
    stats = run_iterations(deployment, 25)
    reference = pagerank(small_graph, iterations=25)
    got = collect_ranks(deployment)
    assert max(abs(a - b) for a, b in zip(reference, got)) < 1e-12
    assert len(stats.times_ms) == 25
    assert all(t > 0 for t in stats.times_ms)


def test_deltas_shrink_as_ranks_converge(small_graph):
    bed = build_cluster(4)
    deployment = build_pagerank(bed, small_graph, 8)
    stats = run_iterations(deployment, 15)
    assert stats.deltas[-1] < stats.deltas[0]


def test_every_node_owned_by_exactly_one_worker(small_graph):
    bed = build_cluster(4)
    deployment = build_pagerank(bed, small_graph, 8)
    owned = []
    for ref in deployment.workers:
        owned.extend(bed.system.actor_instance(ref).nodes)
    assert sorted(owned) == list(range(small_graph.num_nodes))


def test_balance_rule_migrates_workers_and_keeps_correctness():
    graph = social_graph(800, 3, 4, 0.05, random.Random(3))
    bed = build_cluster(4)
    rng = random.Random(9)
    placement = [rng.randrange(4) for _ in range(16)]
    deployment = build_pagerank(bed, graph, 16, placement=placement)
    policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=3_000.0, gem_wait_ms=200.0, lem_stagger_ms=10.0))
    manager.start()
    run_iterations(deployment, 20)
    assert manager.migrations_total() >= 1
    reference = pagerank(graph, iterations=20)
    got = collect_ranks(deployment)
    # Migration must never corrupt the computation.
    assert max(abs(a - b) for a, b in zip(reference, got)) < 1e-12


def test_mizan_vertex_migration_preserves_ranks(small_graph):
    bed = build_cluster(4)
    deployment = build_pagerank(bed, small_graph, 8)
    mizan = MizanMigrator(deployment, migrate_fraction=0.1,
                          imbalance_trigger=1.01)
    stats = run_iterations(deployment, 20,
                           on_iteration=mizan.on_iteration)
    assert mizan.vertices_moved > 0
    reference = pagerank(small_graph, iterations=20)
    got = collect_ranks(deployment)
    assert max(abs(a - b) for a, b in zip(reference, got)) < 1e-12
    assert len(stats.times_ms) == 20


def test_mizan_does_nothing_when_balanced():
    # A ring partitions into equal-cost parts: no trigger.
    from repro.graphs import ring_graph
    graph = ring_graph(256, hops=2)
    bed = build_cluster(4)
    deployment = build_pagerank(bed, graph, 8)
    mizan = MizanMigrator(deployment, imbalance_trigger=1.5)
    run_iterations(deployment, 5, on_iteration=mizan.on_iteration)
    assert mizan.vertices_moved == 0
