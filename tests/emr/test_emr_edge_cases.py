"""EMR edge cases: admission, net/mem resources, report filtering,
config knobs."""

import pytest

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import spawn


class NetHog(Actor):
    """Replies with large payloads: network-intensive."""

    def fetch(self):
        yield self.compute(0.05)
        return "x"


class MemHog(Actor):
    state_size_mb = 700.0

    def touch(self):
        yield self.compute(0.05)
        return True


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


class Idle(Actor):
    def noop(self):
        return None


CONFIG = dict(period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0)


def least_loaded(manager):
    """The least-loaded server the EMR may still move or place onto."""
    return min((s for s in manager.system.running_servers()
                if not manager.is_draining(s)
                and not manager.server_quorumless(s)),
               key=lambda s: (s.cpu_percent(manager.config.period_ms),
                              s.server_id))


def test_net_balance_rule_spreads_network_load():
    bed = build_cluster(2, instance_type="m1.small")
    hogs = [bed.system.create_actor(NetHog, server=bed.servers[0])
            for _ in range(4)]
    policy = compile_source(
        "server.net.perc > 60 or server.net.perc < 40 "
        "=> balance({NetHog}, net);", [NetHog])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    clients = [Client(bed.system, request_bytes=2_000.0)
               for _ in range(8)]

    def loop(client, ref):
        while bed.sim.now < 40_000.0:
            # Large replies saturate the m1.small NIC.
            yield bed.system.client_call(ref, "fetch",
                                         size_bytes=2_000.0,
                                         reply_bytes=200_000.0)

    for index, client in enumerate(clients):
        spawn(bed.sim, loop(client, hogs[index % 4]))
    bed.run(until_ms=40_000.0)
    homes = {bed.system.server_of(ref).server_id for ref in hogs}
    assert len(homes) == 2
    assert manager.migrations_total() >= 1


def test_mem_reserve_rule_relieves_memory_pressure():
    bed = build_cluster(2, instance_type="m1.small")  # 1.7 GB each
    hogs = [bed.system.create_actor(MemHog, server=bed.servers[0])
            for _ in range(2)]  # 1.4 GB on one server: > 70%
    policy = compile_source(
        "server.mem.perc > 70 => reserve(MemHog(m), mem);", [MemHog])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    # A 700 MB state transfer over the m1.small NIC takes ~23 s of
    # virtual time; give the live migration room to finish.
    bed.run(until_ms=60_000.0)
    assert {bed.system.server_of(ref).server_id for ref in hogs} != \
        {bed.servers[0].server_id}
    assert bed.servers[0].memory_percent() < 70.0


def test_admission_rejects_move_that_would_overload_target():
    bed = build_cluster(2)
    # Target server already loaded close to the admission bound.
    busy = [bed.system.create_actor(Spinner, server=bed.servers[1])
            for _ in range(4)]
    crowded = [bed.system.create_actor(Spinner, server=bed.servers[0])
               for _ in range(4)]
    policy = compile_source(
        "server.cpu.perc > 70 => balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < 30_000.0:
            yield client.call(ref, "spin", 40.0)

    for ref in busy + crowded:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=30_000.0)
    # Both sides saturated: moves must not pile actors onto one server.
    counts = sorted(len(bed.system.actors_on(s)) for s in bed.servers)
    assert counts[1] - counts[0] <= 2


def test_report_filtering_sends_only_rule_relevant_types():
    bed = build_cluster(1)
    bed.system.create_actor(Spinner)
    bed.system.create_actor(Idle)
    policy = compile_source(
        "server.cpu.perc > 80 => balance({Spinner}, cpu);",
        [Spinner, Idle])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    lem = next(iter(manager.lems.values()))
    records = bed.system.actors_on(bed.servers[0])
    snaps = manager.profiler.snapshot_actors(records)
    related = lem._collect_actors_for_res_rules(snaps)
    assert {snap.type_name for snap in related} == {"Spinner"}


def test_zero_period_config_not_allowed_in_practice():
    # Guard against degenerate configuration values.
    config = EmrConfig(period_ms=5_000.0, stability_ms=None)
    assert config.stability_window_ms() == 5_000.0
    config = EmrConfig(period_ms=5_000.0, stability_ms=1_000.0)
    assert config.stability_window_ms() == 1_000.0


def test_manager_survives_empty_fleet_rounds():
    bed = build_cluster(1)
    policy = compile_source(
        "server.cpu.perc > 80 => balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    # No actors at all: rounds still tick without errors.
    bed.run(until_ms=20_000.0)
    assert manager.migrations_total() == 0


def test_draining_server_not_used_as_target():
    bed = build_cluster(3)
    policy = compile_source("", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    manager.mark_draining(bed.servers[2])
    target = least_loaded(manager)
    assert target is not bed.servers[2]


def test_migration_log_and_stats_accessors():
    bed = build_cluster(2)
    refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
            for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CONFIG))
    manager.start()
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < 20_000.0:
            yield client.call(ref, "spin", 40.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=20_000.0)
    assert manager.migrations_total() == len(manager.migration_log)
    for event in manager.migration_log:
        assert event.kind in ("balance", "reserve", "colocate", "separate")
        assert event.src != event.dst
