"""Integration tests: LEM/GEM rounds drive real migrations."""

import pytest

from repro.actors import Actor, ActorSystem, Client
from repro.cluster import Provisioner
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import Simulator, Timeout, spawn


class Spinner(Actor):
    """CPU-hungry actor driven by an internal client loop."""

    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


class Hub(Actor):
    spokes: list

    def __init__(self):
        self.spokes = []

    def ping(self):
        yield self.compute(0.2)
        return len(self.spokes)


class Spoke(Actor):
    def pong(self):
        yield self.compute(0.2)
        return True


def build(servers=2, itype="m5.large", **prov_kwargs):
    sim = Simulator()
    prov = Provisioner(sim, default_type=itype, **prov_kwargs)
    for _ in range(servers):
        prov.boot_server(immediate=True)
    sim.run()
    return sim, ActorSystem(sim, prov)


def drive_load(system, refs, cpu_ms, until_ms):
    client = Client(system)

    def loop(ref):
        while system.sim.now < until_ms:
            yield client.call(ref, "spin", cpu_ms)

    for ref in refs:
        spawn(system.sim, loop(ref))


CONFIG = dict(period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0)


def test_balance_rule_spreads_overloaded_server():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive_load(system, refs, cpu_ms=40.0, until_ms=60_000.0)
    sim.run(until=60_000.0)
    homes = {system.server_of(ref).server_id for ref in refs}
    assert len(homes) == 2
    assert manager.migrations_total() >= 1


def test_no_rules_means_no_migrations():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(6)]
    policy = compile_source("", [Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive_load(system, refs, cpu_ms=40.0, until_ms=30_000.0)
    sim.run(until=30_000.0)
    assert manager.migrations_total() == 0


def test_colocate_rule_brings_spokes_to_hub():
    sim, system = build(2)
    a, b = system.provisioner.servers
    hub = system.create_actor(Hub, server=a)
    spokes = [system.create_actor(Spoke, server=b) for _ in range(3)]
    system.actor_instance(hub).spokes.extend(spokes)
    policy = compile_source(
        "Spoke(s) in ref(Hub(h).spokes) => pin(h); colocate(s, h);",
        [Hub, Spoke])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    sim.run(until=20_000.0)
    assert all(system.server_of(s) is a for s in spokes)
    assert system.directory.lookup(hub.actor_id).pinned


def test_separate_rule_spreads_same_server_pair():
    sim, system = build(3)
    a = system.provisioner.servers[0]
    hub = system.create_actor(Hub, server=a)
    spoke = system.create_actor(Spoke, server=a)
    system.actor_instance(hub).spokes.append(spoke)
    policy = compile_source(
        "Spoke(s) in ref(Hub(h).spokes) => separate(h, s);", [Hub, Spoke])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    sim.run(until=20_000.0)
    assert system.server_of(hub) is not system.server_of(spoke)


def test_reserve_with_companion_colocate_moves_group():
    sim, system = build(2, itype="m1.small")
    src, extra = system.provisioner.servers
    hub = system.create_actor(Hub, server=src)
    spokes = [system.create_actor(Spoke, server=src) for _ in range(2)]
    system.actor_instance(hub).spokes.extend(spokes)
    # Load the source server over the threshold via independent spinners.
    spinners = [system.create_actor(Spinner, server=src)
                for _ in range(2)]
    policy = compile_source("""
        server.cpu.perc > 60 and
        Spoke(s) in ref(Hub(h).spokes) =>
            reserve(h, cpu); colocate(h, s);
    """, [Hub, Spoke, Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive_load(system, spinners, cpu_ms=30.0, until_ms=30_000.0)
    sim.run(until=30_000.0)
    assert system.server_of(hub) is extra
    assert all(system.server_of(s) is extra for s in spokes)


def test_gem_failure_lem_times_out_and_recovers():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    config = EmrConfig(gem_count=2, gem_reply_timeout_ms=2_000.0, **CONFIG)
    manager = ElasticityManager(system, policy, config)
    manager.start()
    manager.gems[0].fail()
    drive_load(system, refs, cpu_ms=40.0, until_ms=90_000.0)
    sim.run(until=90_000.0)
    # Progress is still made through the healthy GEM (shuffling, §4.3).
    homes = {system.server_of(ref).server_id for ref in refs}
    assert len(homes) == 2


def test_all_gems_failed_no_crash_no_progress():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(4)]
    policy = compile_source(
        "server.cpu.perc > 80 => balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    manager.gems[0].fail()
    drive_load(system, refs, cpu_ms=40.0, until_ms=20_000.0)
    sim.run(until=20_000.0)
    assert manager.migrations_total() == 0


def test_stability_window_limits_migration_rate():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    config = EmrConfig(stability_ms=1e12, **CONFIG)  # effectively never
    manager = ElasticityManager(system, policy, config)
    manager.start()
    drive_load(system, refs, cpu_ms=40.0, until_ms=30_000.0)
    sim.run(until=30_000.0)
    assert manager.migrations_total() == 0


def test_scale_out_boots_servers_when_all_overloaded():
    sim, system = build(1, boot_delay_ms=2_000.0, max_servers=4)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(8)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    config = EmrConfig(max_scale_out_per_period=1, **CONFIG)
    manager = ElasticityManager(system, policy, config)
    manager.start()
    drive_load(system, refs, cpu_ms=60.0, until_ms=120_000.0)
    sim.run(until=120_000.0)
    assert system.provisioner.fleet_size() > 1
    assert manager.migrations_total() >= 1


def test_scale_in_drains_and_retires_idle_server():
    sim, system = build(3)
    refs = [system.create_actor(Spinner,
                                server=system.provisioner.servers[i % 3])
            for i in range(3)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    config = EmrConfig(min_servers=1, **CONFIG)
    manager = ElasticityManager(system, policy, config)
    manager.start()
    # Very light load: everything is far below the lower bound.
    drive_load(system, refs, cpu_ms=0.5, until_ms=60_000.0)
    sim.run(until=60_000.0)
    assert system.provisioner.fleet_size() < 3
    # All actors still alive and reachable.
    assert system.directory.count() == 3


def test_rule_aware_placement_colocates_new_actor():
    sim, system = build(3)
    hub = system.create_actor(Hub, server=system.provisioner.servers[2])
    policy = compile_source(
        "Spoke(s) in ref(Hub(h).spokes) => colocate(s, h);", [Hub, Spoke])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    spoke = system.create_actor(Spoke, related=hub)
    assert system.server_of(spoke) is system.server_of(hub)
    assert manager.placement.placements_by_rule == 1


def test_manager_stop_detaches():
    sim, system = build(1)
    policy = compile_source("", [Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    assert manager.profiler in system.hooks
    manager.stop()
    assert manager.profiler not in system.hooks
    assert system.placement_policy is None
    manager.stop()  # idempotent


def test_redistribution_rounds_counts_periods_with_moves():
    sim, system = build(2)
    src = system.provisioner.servers[0]
    refs = [system.create_actor(Spinner, server=src) for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(system, policy, EmrConfig(**CONFIG))
    manager.start()
    drive_load(system, refs, cpu_ms=40.0, until_ms=60_000.0)
    sim.run(until=60_000.0)
    assert 1 <= manager.redistribution_rounds() <= \
        manager.migrations_total()
