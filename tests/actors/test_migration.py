"""Unit tests for live actor migration semantics."""

import pytest

from repro.actors import Actor, ActorSystem, Client, RuntimeHooks
from repro.actors.system import MIGRATION_PHASE_TIMEOUT_MS
from repro.cluster import Provisioner
from repro.sim import Simulator, Timeout, spawn


class Worker(Actor):
    state_size_mb = 2.0

    def __init__(self):
        self.processed = 0
        self.moves = []

    def work(self, duration):
        yield self.compute(duration)
        self.processed += 1
        return self.processed

    def on_migrated(self, old_server, new_server):
        self.moves.append((old_server.name, new_server.name))


def make_system(servers=2):
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    for _ in range(servers):
        prov.boot_server(immediate=True)
    sim.run()
    return sim, ActorSystem(sim, prov)


def test_migration_moves_actor_and_memory():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    done = system.migrate_actor(ref, dst)
    sim.run()
    assert done.value is True
    assert system.server_of(ref) is dst
    assert src.memory_used_mb == 0.0
    assert dst.memory_used_mb == Worker.state_size_mb
    record = system.directory.lookup(ref.actor_id)
    assert record.migrations == 1
    assert record.last_placed_at > 0.0


def test_migration_takes_transfer_time():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    done = system.migrate_actor(ref, dst)
    sim.run()
    # 2 MB over 10 Gbps plus one RTT: > 1 ms of virtual time.
    assert sim.now >= 1.0


def test_on_migrated_hook_called():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    system.migrate_actor(ref, dst)
    sim.run()
    instance = system.actor_instance(ref)
    assert instance.moves == [(src.name, dst.name)]


def test_migration_waits_for_inflight_handler():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    client = Client(system)
    results = []

    def driver():
        reply = client.call(ref, "work", 50.0)
        yield Timeout(sim, 1.0)  # the handler is now running
        done = system.migrate_actor(ref, dst)
        value = yield reply
        results.append(("reply", sim.now, value))
        yield done
        results.append(("migrated", sim.now))

    spawn(sim, driver())
    sim.run()
    kinds = [r[0] for r in results]
    assert kinds == ["reply", "migrated"]
    # The reply completed on the source before the move finished.
    assert results[0][1] <= results[1][1]


def test_messages_during_migration_are_processed_after():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    client = Client(system)
    completions = []

    def sender():
        system.migrate_actor(ref, dst)
        replies = [client.call(ref, "work", 1.0) for _ in range(3)]
        for reply in replies:
            value = yield reply
            completions.append(value)

    spawn(sim, sender())
    sim.run()
    assert completions == [1, 2, 3]  # nothing lost, order kept
    assert system.server_of(ref) is dst


def test_concurrent_migration_requests_second_skipped():
    sim, system = make_system(3)
    servers = system.provisioner.servers
    ref = system.create_actor(Worker, server=servers[0])
    first = system.migrate_actor(ref, servers[1])
    second = system.migrate_actor(ref, servers[2])
    sim.run()
    assert first.value is True
    assert second.value is False
    assert system.server_of(ref) is servers[1]


def test_migration_to_same_server_skipped():
    sim, system = make_system()
    src = system.provisioner.servers[0]
    ref = system.create_actor(Worker, server=src)
    done = system.migrate_actor(ref, src)
    sim.run()
    assert done.value is False


def test_migration_to_dead_server_skipped():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    dst.shutdown()
    done = system.migrate_actor(ref, dst)
    sim.run()
    assert done.value is False


def test_inflight_message_is_forwarded_after_move():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    client = Client(system)
    results = []

    class ForwardSpy(RuntimeHooks):
        def __init__(self):
            self.forwarded = 0

        def on_message_delivered(self, record, message):
            if message.forwards:
                self.forwarded += 1

    spy = ForwardSpy()
    system.add_hooks(spy)

    def driver():
        # Fire the call, then migrate immediately so the message is in
        # flight toward the old server when the actor moves.
        reply = client.call(ref, "work", 1.0)
        done = system.migrate_actor(ref, dst)
        value = yield reply
        results.append(value)
        yield done

    spawn(sim, driver())
    sim.run()
    assert results == [1]


# -- two-phase protocol under partitions -------------------------------


class AbortSpy(RuntimeHooks):
    def __init__(self):
        self.aborts = []

    def on_migration_aborted(self, record, source, target, reason):
        self.aborts.append((record.ref.type_name, source.name,
                            target.name, reason))


def test_prepare_timeout_rolls_back_without_transfer():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    spy = AbortSpy()
    system.add_hooks(spy)
    system.fabric.partition({src.server_id})
    before = dst.net_meter.lifetime_total
    done = system.migrate_actor(ref, dst)
    sim.run()
    assert done.value is False
    assert system.server_of(ref) is src
    assert system.migrations_rolled_back == 1
    assert spy.aborts == [("Worker", src.name, dst.name,
                           "prepare-timeout")]
    # Rolled back in prepare: no state bytes ever crossed the fabric.
    assert dst.net_meter.lifetime_total == before
    assert src.memory_used_mb == Worker.state_size_mb
    assert dst.memory_used_mb == 0.0
    record = system.directory.lookup(ref.actor_id)
    assert not record.migrating


def test_prepare_retries_after_partition_heals_in_time():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    token = system.fabric.partition({src.server_id})
    done = system.migrate_actor(ref, dst)
    # Heal inside the phase timeout: the held prepare goes through.
    sim.schedule(MIGRATION_PHASE_TIMEOUT_MS / 2,
                 system.fabric.heal_partition, token)
    sim.run()
    assert done.value is True
    assert system.server_of(ref) is dst
    assert system.migrations_rolled_back == 0


def test_partition_during_transfer_rolls_back_commit():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    spy = AbortSpy()
    system.add_hooks(spy)
    done = system.migrate_actor(ref, dst)
    # The 2 MB transfer takes ~2.6 ms; cut the link mid-flight and keep
    # it cut past the commit's phase timeout.
    sim.schedule(1.0, system.fabric.partition, {src.server_id})
    sim.run()
    assert done.value is False
    assert system.server_of(ref) is src
    assert spy.aborts == [("Worker", src.name, dst.name,
                           "commit-timeout")]
    # The prepared copy was logical only: nothing leaked on the target.
    assert src.memory_used_mb == Worker.state_size_mb
    assert dst.memory_used_mb == 0.0


def test_commit_lands_late_when_partition_heals_in_time():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    done = system.migrate_actor(ref, dst)
    tokens = []
    sim.schedule(1.0, lambda: tokens.append(
        system.fabric.partition({src.server_id})))
    sim.schedule(100.0,
                 lambda: system.fabric.heal_partition(tokens[0]))
    sim.run()
    assert done.value is True
    assert system.server_of(ref) is dst
    assert system.migrations_rolled_back == 0
    assert src.memory_used_mb == 0.0
    assert dst.memory_used_mb == Worker.state_size_mb


def test_rolled_back_actor_keeps_serving():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    ref = system.create_actor(Worker, server=src)
    system.fabric.partition({src.server_id})
    client = Client(system)
    results = []

    def driver():
        done = system.migrate_actor(ref, dst)
        yield done
        # Post-rollback the actor must still process messages in place
        # (the client is on the management network, never partitioned).
        value = yield client.call(ref, "work", 1.0)
        results.append(value)

    spawn(sim, driver())
    sim.run()
    assert results == [1]
    assert system.server_of(ref) is src


def test_migration_hooks_notified():
    sim, system = make_system()
    src, dst = system.provisioner.servers
    events = []

    class Spy(RuntimeHooks):
        def on_actor_migrated(self, record, old_server, new_server):
            events.append((record.ref.type_name, old_server.name,
                           new_server.name))

    system.add_hooks(Spy())
    ref = system.create_actor(Worker, server=src)
    system.migrate_actor(ref, dst)
    sim.run()
    assert events == [("Worker", src.name, dst.name)]
