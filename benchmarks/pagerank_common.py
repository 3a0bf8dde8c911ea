"""Shared setup for the PageRank benchmarks (Figs. 6-8).

Substitutions (DESIGN.md §2): the LiveJournal graph is replaced by a
scaled-down social graph with superhub nodes, partitioned by our
multilevel (METIS-like) partitioner into 32 node-balanced partitions
whose *compute* cost is skewed — the property the experiments exercise.
"""

import random

from repro.apps.pagerank import (PAGERANK_POLICY, PageRankWorker,
                                 build_pagerank, run_iterations)
from repro.baselines import OrleansBalancer
from repro.bench import ClusterRecorder, build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.graphs import social_graph

NUM_PARTITIONS = 32
NUM_SERVERS = 8
PERIOD_MS = 8_000.0


def standard_graph():
    return social_graph(3000, 3, superhubs=6, hub_fraction=0.06,
                        rng=random.Random(2))


def random_placement(seed, servers=NUM_SERVERS,
                     partitions=NUM_PARTITIONS):
    rng = random.Random(seed)
    return [rng.randrange(servers) for _ in range(partitions)]


def run_static(graph, placement, mode, iterations=40, seed=4,
               record=False):
    """One fixed-fleet run.  ``mode``: plasma | orleans | none."""
    bed = build_cluster(NUM_SERVERS, "m5.large", seed=seed)
    deployment = build_pagerank(bed, graph, NUM_PARTITIONS,
                                placement=list(placement))
    manager = None
    if mode == "plasma":
        policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
        manager = ElasticityManager(bed.system, policy, EmrConfig(
            period_ms=PERIOD_MS, gem_wait_ms=500.0))
        manager.start()
    elif mode == "orleans":
        manager = OrleansBalancer(bed.system, period_ms=PERIOD_MS)
        manager.start()
    recorder = None
    if record:
        recorder = ClusterRecorder(bed.system, sample_ms=PERIOD_MS,
                                   window_ms=PERIOD_MS)
        recorder.start()
    stats = run_iterations(deployment, iterations)
    migrations = manager.migrations_total() if manager else 0
    return {"stats": stats, "migrations": migrations, "bed": bed,
            "recorder": recorder, "deployment": deployment,
            "manager": manager}


def run_dynamic(graph, iterations=80, max_servers=16, seed=4,
                record=False):
    """PLASMA dynamic resource allocation: start with 1 server."""
    bed = build_cluster(1, "m5.large", seed=seed,
                        boot_delay_ms=20_000.0, max_servers=max_servers)
    deployment = build_pagerank(bed, graph, NUM_PARTITIONS,
                                placement=[0] * NUM_PARTITIONS)
    policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=PERIOD_MS, gem_wait_ms=2_000.0,
        max_scale_out_per_period=2))
    manager.start()
    recorder = None
    if record:
        recorder = ClusterRecorder(bed.system, sample_ms=PERIOD_MS,
                                   window_ms=PERIOD_MS)
        recorder.start()
    stats = run_iterations(deployment, iterations)
    return {"stats": stats, "manager": manager, "bed": bed,
            "recorder": recorder, "deployment": deployment}


def run_conservative(graph, iterations=30, seed=4):
    """Over-provisioned fleet: 16 servers, one worker per vCPU."""
    bed = build_cluster(16, "m5.large", seed=seed)
    deployment = build_pagerank(
        bed, graph, NUM_PARTITIONS,
        placement=[i // 2 for i in range(NUM_PARTITIONS)])
    stats = run_iterations(deployment, iterations)
    return {"stats": stats, "bed": bed, "deployment": deployment}


def steady_time(stats, tail=5):
    return sum(stats.times_ms[-tail:]) / tail
