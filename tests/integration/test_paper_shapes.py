"""Scaled-down end-to-end checks of the paper's qualitative results.

Each test runs a miniature version of one evaluation scenario and
asserts the *shape* the paper reports (who wins, roughly by how much).
The full-size reproductions live in benchmarks/.
"""

import random

import pytest

from repro.apps.estore import run_estore_experiment
from repro.apps.halo import run_halo_interaction_experiment
from repro.apps.metadata import run_metadata_experiment
from repro.apps.pagerank import (PAGERANK_POLICY, PageRankWorker,
                                 build_pagerank, run_iterations)
from repro.baselines import OrleansBalancer
from repro.bench import build_cluster
from repro.check import InvariantChecker
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.graphs import social_graph


def test_fig5_shape_rescol_beats_default_and_none():
    common = dict(num_clients=8, duration_ms=90_000.0, period_ms=25_000.0)
    rescol = run_metadata_experiment("res-col-rule", **common)
    default = run_metadata_experiment("def-rule", **common)
    none = run_metadata_experiment("no-rule", **common)
    # The semantic rule helps a lot; the blind rule roughly doesn't.
    assert rescol.mean_after_ms < 0.75 * none.mean_after_ms
    assert default.mean_after_ms > 0.8 * none.mean_after_ms


def test_fig6a_shape_plasma_beats_orleans_on_pagerank():
    graph = social_graph(1200, 3, 5, 0.06, random.Random(2))
    rng = random.Random(104)
    placement = [rng.randrange(4) for _ in range(16)]

    def run(mode):
        bed = build_cluster(4, "m5.large", seed=4)
        deployment = build_pagerank(bed, graph, 16,
                                    placement=list(placement))
        checker = None
        if mode == "plasma":
            policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
            manager = ElasticityManager(bed.system, policy, EmrConfig(
                period_ms=4_000.0, gem_wait_ms=300.0))
            checker = InvariantChecker(manager)
            checker.attach()
            manager.start()
        elif mode == "orleans":
            manager = OrleansBalancer(bed.system, period_ms=4_000.0)
            manager.start()
        stats = run_iterations(deployment, 25)
        if checker is not None:
            checker.assert_clean()
        return sum(stats.times_ms[-5:]) / 5

    plasma = run("plasma")
    orleans = run("orleans")
    assert plasma < orleans


def test_fig6b_shape_dynamic_allocation_converges():
    graph = social_graph(1200, 3, 5, 0.06, random.Random(2))
    bed = build_cluster(1, "m5.large", seed=4, boot_delay_ms=5_000.0,
                        max_servers=8)
    deployment = build_pagerank(bed, graph, 16, placement=[0] * 16)
    policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=4_000.0, gem_wait_ms=300.0, max_scale_out_per_period=2))
    checker = InvariantChecker(manager)
    checker.attach()
    manager.start()
    stats = run_iterations(deployment, 40)
    # Fleet grew, actors spread, iterations got faster.
    assert bed.provisioner.fleet_size() > 1
    assert stats.times_ms[-1] < 0.6 * stats.times_ms[0]
    assert manager.migrations_total() >= 1
    checker.assert_clean()


def test_fig9_shape_plasma_matches_inapp_estore():
    common = dict(num_clients=24, duration_ms=110_000.0,
                  period_ms=25_000.0)
    plasma = run_estore_experiment("plasma", **common)
    inapp = run_estore_experiment("in-app", **common)
    none = run_estore_experiment("none", **common)
    assert plasma.mean_after_ms < none.mean_after_ms
    assert inapp.mean_after_ms < none.mean_after_ms
    # "quite similar": within 25% of each other.
    ratio = plasma.mean_after_ms / inapp.mean_after_ms
    assert 0.75 < ratio < 1.25


def test_fig11a_shape_interaction_rule_smoother_than_default():
    common = dict(num_clients=12, rounds=2, round_ms=25_000.0,
                  period_ms=10_000.0, heartbeat_ms=200.0)
    inter = run_halo_interaction_experiment("inter-rule", **common)
    default = run_halo_interaction_experiment("def-rule", **common)
    assert inter.mean_latency_ms < default.mean_latency_ms
    # Smoothness: the interaction rule's curve varies far less.
    inter_values = [lat for _t, lat in inter.curve]
    default_values = [lat for _t, lat in default.curve]
    inter_spread = max(inter_values) - min(inter_values)
    default_spread = max(default_values) - min(default_values)
    assert inter_spread <= default_spread


def test_table3_shape_profiling_overhead_within_percent_scale():
    from repro.apps.chatroom import run_chatroom
    base = run_chatroom(users=8, duration_ms=8_000.0, profiled=False)
    prof = run_chatroom(users=8, duration_ms=8_000.0, profiled=True,
                        profiling_overhead_cpu_ms=0.01)
    overhead = prof.mean_latency_ms / base.mean_latency_ms
    assert overhead < 1.05
