"""EMR failure detection: suspicion, resurrection, LEM and GEM failover."""

from repro.actors import Actor, RuntimeHooks
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def balance_policy():
    return compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])


def make_manager(bed, **overrides):
    defaults = dict(period_ms=2_000.0, gem_wait_ms=300.0,
                    lem_stagger_ms=10.0, suspicion_timeout_ms=2_500.0)
    defaults.update(overrides)
    manager = ElasticityManager(bed.system, balance_policy(),
                                EmrConfig(**defaults))
    manager.start()
    return manager


def test_crash_cancels_lem_and_unregisters_it():
    bed = build_cluster(2)
    manager = make_manager(bed)
    victim = bed.servers[0]
    lem = manager.lems[victim.server_id]
    bed.run(until_ms=100.0)
    bed.system.crash_server(victim)
    assert victim.server_id not in manager.lems
    assert lem._process is not None
    bed.run(until_ms=10_000.0)
    # The cancelled timer never ran another round on the dead server.
    assert lem.rounds_run == 0
    assert lem._process.finished


def test_suspicion_fires_after_silence_and_resurrects_actors():
    bed = build_cluster(3)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
            for _ in range(4)]
    bed.run(until_ms=3_000.0)       # at least one LEM round has happened
    crash_at = bed.sim.now
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=crash_at + 2 * 2_500.0 + 100.0)
    suspected = [d for kind, d in events if kind == "server-suspected"]
    assert len(suspected) == 1
    assert suspected[0]["lost_actors"] == 4
    # Every lost actor lives again, same ref, on a surviving server.
    for ref in refs:
        record = bed.system.directory.try_lookup(ref.actor_id)
        assert record is not None
        assert record.server in (bed.servers[1], bed.servers[2])
        assert record.server.running


def test_resurrection_can_be_disabled():
    bed = build_cluster(2)
    manager = make_manager(bed, resurrect_lost_actors=False)
    ref = bed.system.create_actor(Spinner, server=bed.servers[0])
    bed.run(until_ms=100.0)
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=10_000.0)
    assert bed.system.directory.try_lookup(ref.actor_id) is None


def test_no_detection_without_suspicion_timeout():
    bed = build_cluster(2)
    manager = make_manager(bed, suspicion_timeout_ms=None)
    events = []
    manager.add_listener(lambda kind, detail: events.append(kind))
    ref = bed.system.create_actor(Spinner, server=bed.servers[0])
    bed.run(until_ms=100.0)
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=20_000.0)
    assert "server-suspected" not in events
    assert bed.system.directory.try_lookup(ref.actor_id) is None


def test_healthy_servers_are_never_suspected():
    bed = build_cluster(3)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append(kind))
    bed.run(until_ms=30_000.0)
    assert "server-suspected" not in events


def test_resurrection_emits_hook_and_resets_profile():
    bed = build_cluster(2)
    manager = make_manager(bed)
    resurrected = []

    class Watch(RuntimeHooks):
        def on_actor_resurrected(self, record):
            resurrected.append(record)

    bed.system.add_hooks(Watch())
    ref = bed.system.create_actor(Spinner, server=bed.servers[0])
    bed.system.client_call(ref, "spin", 5.0)
    bed.run(until_ms=2_100.0)
    profiler = manager.profiler
    record = bed.system.directory.lookup(ref.actor_id)
    before = profiler.snapshot_actors([record])[0]
    assert ("client", "spin") in before.call_count_per_min
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=12_000.0)
    assert [r.ref for r in resurrected] == [ref]
    # The resurrected actor reads a fresh, all-zero profile: not even the
    # pre-crash call key (which a stale profile keeps at rate 0) is left.
    after = profiler.snapshot_actors(
        [bed.system.directory.lookup(ref.actor_id)])[0]
    assert (after.cpu_ms_per_min, after.cpu_perc, after.net_bytes_per_min,
            after.net_perc) == (0.0, 0.0, 0.0, 0.0)
    assert after.call_count_per_min == {}
    assert after.call_bytes_per_min == {}
    assert after.pair_count_per_min == {}


def test_gem_failover_adoption_by_survivor():
    bed = build_cluster(2)
    manager = make_manager(bed, gem_count=2)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    bed.run(until_ms=100.0)
    manager.gems[0].fail()
    bed.run(until_ms=5_000.0)
    failovers = [d for kind, d in events if kind == "gem-failover"]
    assert failovers == [{"failed_gem": 0, "adopter": 1,
                          "respawned": False}]
    # A recovered GEM can fail again later and is re-noted.
    manager.gems[0].recover()
    bed.run(until_ms=7_000.0)
    manager.gems[0].fail()
    bed.run(until_ms=12_000.0)
    failovers = [d for kind, d in events if kind == "gem-failover"]
    assert len(failovers) == 2


def test_gem_respawn_when_none_survive():
    bed = build_cluster(2)
    manager = make_manager(bed, gem_count=1)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    bed.run(until_ms=100.0)
    manager.gems[0].fail()
    bed.run(until_ms=5_000.0)
    failovers = [d for kind, d in events if kind == "gem-failover"]
    assert failovers == [{"failed_gem": 0, "adopter": 1, "respawned": True}]
    assert len(manager.gems) == 2
    assert not manager.gems[1].failed
    # LEM reports now route to the respawned GEM.
    assert manager.pick_gem() is manager.gems[1]


def test_scale_in_retirement_is_not_suspected():
    # A deliberately retired server must not produce a suspicion event.
    bed = build_cluster(2)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append(kind))
    server = bed.servers[1]
    manager.mark_draining(server)
    manager._maybe_retire()
    assert not server.running
    bed.run(until_ms=15_000.0)
    assert "server-suspected" not in events
