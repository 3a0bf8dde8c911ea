"""Tests for the baseline elasticity managers."""

import pytest

from repro.actors import Actor, Client
from repro.baselines import (DefaultRuleManager, EStoreInApp,
                             OrleansBalancer)
from repro.bench import build_cluster
from repro.cluster.server import SERVER_WINDOW_MS
from repro.sim import spawn


class Busy(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


class Chatty(Actor):
    def __init__(self, peer=None):
        self.peer = peer

    def nudge(self):
        if self.peer is not None:
            yield self.call(self.peer, "receive")
        return True

    def receive(self):
        yield self.compute(0.1)
        return True


def drive(bed, refs, cpu_ms, until_ms):
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < until_ms:
            yield client.call(ref, "spin", cpu_ms)

    for ref in refs:
        spawn(bed.sim, loop(ref))


def test_orleans_equalizes_actor_counts():
    bed = build_cluster(3)
    refs = [bed.system.create_actor(Busy, server=bed.servers[0])
            for _ in range(9)]
    manager = OrleansBalancer(bed.system, period_ms=3_000.0)
    manager.start()
    bed.run(until_ms=20_000.0)
    counts = sorted(len(bed.system.actors_on(s)) for s in bed.servers)
    assert counts == [3, 3, 3]
    assert manager.migrations_total() == 6


def test_orleans_does_nothing_when_counts_balanced():
    bed = build_cluster(3)
    for index in range(9):
        bed.system.create_actor(Busy, server=bed.servers[index % 3])
    manager = OrleansBalancer(bed.system, period_ms=3_000.0)
    manager.start()
    # Heavy load imbalance (all the work goes to server 0's actors), but
    # Orleans only looks at actor counts.
    drive(bed, [r.ref for r in bed.system.actors_on(bed.servers[0])],
          cpu_ms=30.0, until_ms=20_000.0)
    bed.run(until_ms=20_000.0)
    assert manager.migrations_total() == 0


def test_orleans_respects_pinned_actors():
    bed = build_cluster(2)
    refs = [bed.system.create_actor(Busy, server=bed.servers[0])
            for _ in range(4)]
    for ref in refs[:2]:
        bed.system.pin(ref)
    manager = OrleansBalancer(bed.system, period_ms=3_000.0)
    manager.start()
    bed.run(until_ms=15_000.0)
    pinned_homes = {bed.system.server_of(ref) for ref in refs[:2]}
    assert pinned_homes == {bed.servers[0]}


def test_default_rule_moves_hottest_actor():
    bed = build_cluster(2, instance_type="m1.small")
    hot = bed.system.create_actor(Busy, server=bed.servers[0])
    cold = bed.system.create_actor(Busy, server=bed.servers[0])
    manager = DefaultRuleManager(bed.system, period_ms=5_000.0,
                                 cpu_threshold=50.0)
    manager.start()
    drive(bed, [hot], cpu_ms=30.0, until_ms=20_000.0)
    bed.run(until_ms=20_000.0)
    assert bed.system.server_of(hot) is bed.servers[1]
    assert bed.system.server_of(cold) is bed.servers[0]


def test_default_rule_idle_cluster_no_moves():
    bed = build_cluster(2)
    bed.system.create_actor(Busy, server=bed.servers[0])
    manager = DefaultRuleManager(bed.system, period_ms=5_000.0)
    manager.start()
    bed.run(until_ms=20_000.0)
    assert manager.migrations_total() == 0


def test_frequency_colocation_brings_caller_to_callee():
    bed = build_cluster(2)
    callee = bed.system.create_actor(Chatty, server=bed.servers[0])
    caller = bed.system.create_actor(Chatty, callee,
                                     server=bed.servers[1])
    manager = DefaultRuleManager(bed.system, period_ms=4_000.0,
                                 migrate_hot=False,
                                 colocate_frequent=True,
                                 min_pair_rate_per_min=1.0)
    manager.start()
    client = Client(bed.system)

    def loop():
        while bed.sim.now < 15_000.0:
            yield client.call(caller, "nudge")

    spawn(bed.sim, loop())
    bed.run(until_ms=15_000.0)
    assert bed.system.server_of(caller) is bed.system.server_of(callee)
    assert manager.migrations_total() >= 1


def test_estore_inapp_moves_hot_tree_to_idle_server():
    from repro.apps.estore import build_estore
    bed = build_cluster(3, instance_type="m1.small")
    setup = build_estore(bed, num_roots=6, children_per_root=2,
                         num_home_servers=2)
    manager = EStoreInApp(bed.system, setup.roots, period_ms=5_000.0,
                          high_water=40.0)
    manager.start()
    client = Client(bed.system)

    def loop():
        while bed.sim.now < 20_000.0:
            yield client.call(setup.roots[0], "read", 3)

    spawn(bed.sim, loop())
    bed.run(until_ms=20_000.0)
    assert manager.migrations_total() >= 3  # one tree: root + children
    # The tree stayed intact: children moved with their root.
    home = bed.system.server_of(setup.roots[0])
    assert all(bed.system.server_of(kid) is home
               for kid in setup.children[0])


def test_balancer_stop_detaches_profiler():
    bed = build_cluster(1)
    manager = OrleansBalancer(bed.system, period_ms=5_000.0)
    manager.start()
    assert manager.profiler in bed.system.hooks
    manager.stop()
    assert manager.profiler not in bed.system.hooks
    manager.stop()  # idempotent


def test_baseline_period_is_bounded_by_the_server_meter_retention():
    bed = build_cluster(1)
    assert OrleansBalancer(bed.system,
                           period_ms=SERVER_WINDOW_MS).period_ms \
        == SERVER_WINDOW_MS
    with pytest.raises(ValueError, match="SERVER_WINDOW_MS"):
        OrleansBalancer(bed.system, period_ms=SERVER_WINDOW_MS + 0.5)
    with pytest.raises(ValueError, match="positive"):
        OrleansBalancer(bed.system, period_ms=0.0)
