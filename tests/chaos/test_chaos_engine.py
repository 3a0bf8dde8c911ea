"""Chaos engine: fault injection through the public runtime surfaces."""

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.chaos import (ChaosEngine, CrashServer, DegradeNetwork,
                         FaultPlan, KillGem, KillRoot, PartitionNetwork,
                         SlowServer)
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import spawn


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def kinds(engine):
    return [kind for _t, kind, _d in engine.log]


def test_crash_server_fault_kills_actors():
    bed = build_cluster(2)
    victim = bed.system.create_actor(Spinner, server=bed.servers[0])
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=1_000.0, server_index=0),)))
    engine.start()
    bed.run(until_ms=2_000.0)
    assert engine.faults_injected == 1
    assert bed.system.directory.try_lookup(victim.actor_id) is None
    assert not bed.servers[0].running
    assert kinds(engine) == ["fault-injected"]


def test_crash_server_with_replacement_restores_fleet_size():
    bed = build_cluster(2)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=1_000.0, server_index=1,
                    replace_after_ms=3_000.0),)))
    engine.start()
    bed.run(until_ms=2_000.0)
    assert bed.provisioner.fleet_size() == 1
    bed.run(until_ms=6_000.0)
    assert bed.provisioner.fleet_size() == 2
    assert kinds(engine) == ["fault-injected", "fault-healed"]


def test_degrade_network_slows_and_drops_then_heals():
    bed = build_cluster(2)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        DegradeNetwork(at_ms=500.0, duration_ms=1_000.0,
                       latency_multiplier=4.0, drop_probability=1.0),)))
    engine.start()
    bed.run(until_ms=600.0)
    assert bed.system.fabric.degraded
    assert bed.system.fabric.latency_multiplier == 4.0
    # With drop probability 1.0 every remote call is lost: no reply.
    target = bed.system.create_actor(Spinner, server=bed.servers[1])
    client = Client(bed.system)
    replies = []

    def body():
        value = yield from client.reliable_call(
            target, "spin", 1.0, timeout_ms=200.0, max_retries=0)
        replies.append(value)

    spawn(bed.sim, body())
    bed.run(until_ms=1_000.0)
    assert replies == [None]
    assert bed.system.fabric.messages_dropped >= 1
    bed.run(until_ms=2_000.0)
    assert not bed.system.fabric.degraded
    assert kinds(engine) == ["fault-injected", "fault-healed"]


def test_slow_server_limps_and_recovers():
    bed = build_cluster(1)
    server = bed.servers[0]
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        SlowServer(at_ms=100.0, duration_ms=1_000.0, speed_factor=0.25),)))
    engine.start()
    bed.run(until_ms=200.0)
    assert server.speed_factor == 0.25
    bed.run(until_ms=2_000.0)
    assert server.speed_factor == 1.0
    assert kinds(engine) == ["fault-injected", "fault-healed"]


def test_kill_gem_and_recover_via_manager():
    bed = build_cluster(2)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, gem_count=2))
    manager.start()
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillGem(at_ms=1_000.0, gem_id=0, recover_after_ms=2_000.0),)),
        manager=manager)
    engine.start()
    bed.run(until_ms=1_500.0)
    assert manager.gems[0].failed
    bed.run(until_ms=4_000.0)
    assert not manager.gems[0].failed
    assert [kind for kind, _ in events] == ["fault-injected", "fault-healed"]


def test_kill_gem_addresses_stable_id_not_list_position():
    """A respawn (or any list churn) must not shift KillGem targets: the
    fault names the GEM's stable id, not an index into manager.gems."""
    bed = build_cluster(2)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, gem_count=2))
    manager.start()
    # Simulate list churn: the gem with id 1 now sits at index 0.
    removed = manager.gems.pop(0)
    assert removed.gem_id == 0 and manager.gems[0].gem_id == 1
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillGem(at_ms=500.0, gem_id=1),
        KillGem(at_ms=600.0, gem_id=0),   # no longer exists -> skip
    )), manager=manager)
    engine.start()
    bed.run(until_ms=1_000.0)
    assert manager.gems[0].failed and manager.gems[0].gem_id == 1
    assert engine.faults_injected == 1
    assert engine.faults_skipped == 1
    assert engine.log[-1][2]["reason"] == "no-such-gem"


def _hierarchical_manager(bed, **config):
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0,
        server_group_size=2, **config))
    manager.start()
    return manager


def test_kill_root_injects_and_recovers_in_place():
    """Recovery before any promotion restores the same incarnation:
    generation unchanged, views wiped (fresh fold from full publishes)."""
    bed = build_cluster(4)
    manager = _hierarchical_manager(bed)
    root = manager.hierarchy.root
    root.views[0] = {"cpu_sum": 1.0}
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillRoot(at_ms=1_000.0, recover_after_ms=500.0),)),
        manager=manager)
    engine.start()
    bed.run(until_ms=1_200.0)
    assert root.failed
    bed.run(until_ms=2_000.0)
    assert not root.failed
    assert root.generation == 0
    assert root.views == {}          # recovery discards stale views
    injected, healed = engine.log
    assert injected[1] == "fault-injected" and healed[1] == "fault-healed"
    assert healed[2]["superseded"] is False


def test_kill_root_recovery_superseded_by_promotion():
    """If a leaf is promoted while the old root is down, the scheduled
    recovery must not restore authority to the dead incarnation."""
    bed = build_cluster(4)
    manager = _hierarchical_manager(bed)
    root = manager.hierarchy.root
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillRoot(at_ms=1_000.0, recover_after_ms=9_000.0),)),
        manager=manager)
    engine.start()
    # The first leaf publish after the kill (next period) promotes.
    bed.run(until_ms=8_000.0)
    assert not root.failed
    assert root.generation == 1
    assert root.host_gem_id == 0     # lowest-id alive leaf
    bed.run(until_ms=11_000.0)       # the heal fires, finds itself stale
    assert root.generation == 1      # unchanged: promotion stands
    healed = [entry for entry in engine.log if entry[1] == "fault-healed"]
    assert healed and healed[-1][2]["superseded"] is True


def test_kill_root_skipped_without_manager_or_when_already_failed():
    bed = build_cluster(4)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillRoot(at_ms=100.0),)))
    engine.start()
    bed.run(until_ms=500.0)
    assert engine.faults_skipped == 1
    assert engine.log[-1][2]["reason"] == "no-manager"

    bed = build_cluster(4)
    manager = _hierarchical_manager(bed)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        KillRoot(at_ms=100.0),
        KillRoot(at_ms=200.0),       # still down: nothing to kill
    )), manager=manager)
    engine.start()
    bed.run(until_ms=500.0)
    assert engine.faults_injected == 1
    assert engine.faults_skipped == 1
    assert engine.log[-1][2]["reason"] == "root-already-failed"


def test_unappliable_faults_are_skipped_not_fatal():
    bed = build_cluster(1)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=100.0, server_index=0),
        CrashServer(at_ms=200.0, server_index=0),   # already down
        CrashServer(at_ms=300.0, server_index=7),   # never existed
        SlowServer(at_ms=400.0, duration_ms=50.0, server_index=0),
        KillGem(at_ms=500.0, gem_id=0),             # no manager attached
    )))
    engine.start()
    bed.run(until_ms=1_000.0)
    assert engine.faults_injected == 1
    assert engine.faults_skipped == 4
    assert kinds(engine) == ["fault-injected"] + ["fault-skipped"] * 4


def test_partition_network_severs_and_heals():
    bed = build_cluster(3)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        PartitionNetwork(at_ms=500.0, duration_ms=1_000.0, group=(0,)),)))
    engine.start()
    bed.run(until_ms=600.0)
    fabric = bed.system.fabric
    assert fabric.partitioned
    assert fabric.link_blocked(bed.servers[0], bed.servers[1])
    assert fabric.link_blocked(bed.servers[1], bed.servers[0])
    assert not fabric.link_blocked(bed.servers[1], bed.servers[2])
    bed.run(until_ms=2_000.0)
    assert not fabric.partitioned
    assert not fabric.link_blocked(bed.servers[0], bed.servers[1])
    assert kinds(engine) == ["fault-injected", "fault-healed"]
    injected = engine.log[0][2]
    assert injected["fault"] == "partition-network"
    assert injected["group"] == (bed.servers[0].name,)
    assert injected["symmetric"] is True
    healed = engine.log[1][2]
    assert "partition_drops" in healed


def test_asymmetric_partition_blocks_one_direction_only():
    bed = build_cluster(3)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        PartitionNetwork(at_ms=100.0, duration_ms=1_000.0, group=(0,),
                         symmetric=False),)))
    engine.start()
    bed.run(until_ms=200.0)
    fabric = bed.system.fabric
    assert fabric.link_blocked(bed.servers[0], bed.servers[1])
    assert not fabric.link_blocked(bed.servers[1], bed.servers[0])


def test_partition_group_filtered_to_live_servers():
    bed = build_cluster(3)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=100.0, server_index=0),
        # Group {0, 1}: server 0 is dead, so only server 1 is cut off.
        PartitionNetwork(at_ms=500.0, duration_ms=1_000.0, group=(0, 1)),)))
    engine.start()
    bed.run(until_ms=600.0)
    injected = engine.log[-1][2]
    assert injected["group"] == (bed.servers[1].name,)
    assert bed.system.fabric.link_blocked(bed.servers[1], bed.servers[2])


def test_partition_skipped_when_group_all_crashed():
    bed = build_cluster(2)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=100.0, server_index=0),
        PartitionNetwork(at_ms=500.0, duration_ms=1_000.0, group=(0,)),)))
    engine.start()
    bed.run(until_ms=1_000.0)
    assert engine.faults_injected == 1
    assert engine.faults_skipped == 1
    assert not bed.system.fabric.partitioned


def test_partition_with_manager_advances_epoch_and_recovers():
    bed = build_cluster(3)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0))
    manager.start()
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        PartitionNetwork(at_ms=1_000.0, duration_ms=4_000.0,
                         group=(0,)),)), manager=manager)
    engine.start()
    bed.run(until_ms=2_000.0)
    assert manager.epoch == 1
    bed.run(until_ms=30_000.0)
    assert manager.epoch == 2  # inject + heal
    names = [kind for kind, _ in events]
    assert names.count("epoch-advanced") == 2
    assert "partition-healed" in names
    # Everyone ends on the healed epoch; no LEM stays fenced out.
    for lem in manager.lems.values():
        assert lem.epoch == manager.epoch
    # A replacement server must not shift the meaning of later indices.
    bed = build_cluster(3)
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=100.0, server_index=0, replace_after_ms=100.0),
        CrashServer(at_ms=1_000.0, server_index=2),)))
    engine.start()
    original_third = bed.servers[2]
    bed.run(until_ms=2_000.0)
    assert not original_third.running
    assert engine.faults_injected == 2
