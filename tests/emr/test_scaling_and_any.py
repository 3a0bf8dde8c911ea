"""Fleet scaling detail and the `any` actor type end to end."""

import pytest

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import spawn


class Alpha(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


class Beta(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


CONFIG = dict(period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0)


def drive(bed, refs, cpu_ms, until_ms):
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < until_ms:
            yield client.call(ref, "spin", cpu_ms)

    for ref in refs:
        spawn(bed.sim, loop(ref))


def test_any_type_balance_moves_all_kinds():
    bed = build_cluster(2)
    src = bed.servers[0]
    refs = ([bed.system.create_actor(Alpha, server=src) for _ in range(3)]
            + [bed.system.create_actor(Beta, server=src)
               for _ in range(3)])
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({any}, cpu);", [Alpha, Beta])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive(bed, refs, 40.0, 40_000.0)
    bed.run(until_ms=40_000.0)
    assert manager.migrations_total() >= 1
    moved_types = {event.actor.type_name
                   for event in manager.migration_log}
    homes = {bed.system.server_of(ref).server_id for ref in refs}
    assert len(homes) == 2
    # `any` makes both types eligible; at least one of each may move,
    # but nothing restricts the balancer to a single type.
    assert moved_types <= {"Alpha", "Beta"}


def test_scale_out_respects_fleet_cap():
    bed = build_cluster(1, boot_delay_ms=1_000.0, max_servers=2)
    refs = [bed.system.create_actor(Alpha, server=bed.servers[0])
            for _ in range(8)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Alpha}, cpu);", [Alpha])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        max_scale_out_per_period=4, **CONFIG))
    manager.start()
    drive(bed, refs, 60.0, 60_000.0)
    bed.run(until_ms=60_000.0)
    assert bed.provisioner.fleet_size() == 2  # capped despite demand


def test_scale_in_respects_min_servers():
    bed = build_cluster(3)
    bed.system.create_actor(Alpha, server=bed.servers[0])
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Alpha}, cpu);", [Alpha])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        min_servers=2, **CONFIG))
    manager.start()
    bed.run(until_ms=60_000.0)  # idle fleet: scale-in pressure
    assert bed.provisioner.fleet_size() >= 2


def test_migration_events_carry_rule_line():
    bed = build_cluster(2)
    refs = [bed.system.create_actor(Alpha, server=bed.servers[0])
            for _ in range(6)]
    policy_source = ("# a comment line\n"
                     "server.cpu.perc > 80 or server.cpu.perc < 60 "
                     "=> balance({Alpha}, cpu);")
    policy = compile_source(policy_source, [Alpha])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive(bed, refs, 40.0, 30_000.0)
    bed.run(until_ms=30_000.0)
    assert manager.migration_log
    assert all(event.rule_line == 2 for event in manager.migration_log)


def test_gem_vote_rejects_without_peer_agreement():
    bed = build_cluster(2)
    policy = compile_source(
        "server.cpu.perc > 80 => balance({Alpha}, cpu);", [Alpha])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        gem_count=3, **CONFIG))
    manager.start()
    requester = manager.gems[0]
    # Peers that have processed rounds and see no overload: vote fails.
    for peer in manager.gems[1:]:
        peer.rounds_processed = 1
        peer.overload_fraction = 0.0
    assert not manager.vote(requester, "overloaded")
    # Peers that corroborate: vote passes.
    for peer in manager.gems[1:]:
        peer.overload_fraction = 1.0
    assert manager.vote(requester, "overloaded")


def test_single_gem_vote_always_passes():
    bed = build_cluster(1)
    policy = compile_source(
        "server.cpu.perc > 80 => balance({Alpha}, cpu);", [Alpha])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    assert manager.vote(manager.gems[0], "overloaded")
    assert manager.vote(manager.gems[0], "underloaded")
