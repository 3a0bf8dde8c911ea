"""State-preserving recovery: resurrection restores checkpoints,
rollback restores the shipped transfer checkpoint, and clients riding
over a crash observe restored — not fresh — state."""

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.durability import DurabilityConfig, state_digest
from repro.sim import Timeout, spawn


class Counter(Actor):
    state_size_mb = 1.0

    def __init__(self):
        self.total = 0

    def add(self, amount):
        yield self.compute(0.5)
        self.total += amount
        return self.total

    def get(self):
        yield self.compute(0.1)
        return self.total


def counter_policy():
    return compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Counter}, cpu);", [Counter])


def make_manager(bed, durability, **overrides):
    defaults = dict(period_ms=2_000.0, gem_wait_ms=300.0,
                    lem_stagger_ms=10.0, suspicion_timeout_ms=2_500.0,
                    durability=durability)
    defaults.update(overrides)
    manager = ElasticityManager(bed.system, counter_policy(),
                                EmrConfig(**defaults))
    manager.start()
    return manager


def record_events(manager):
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    return events


# -- resurrection restores ----------------------------------------------


def test_resurrection_restores_last_acknowledged_state():
    bed = build_cluster(3, seed=3)
    config = DurabilityConfig(checkpoint_interval_ms=500.0)
    manager = make_manager(bed, config)
    events = record_events(manager)
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system)

    def driver():
        for _ in range(10):
            yield client.call(ref, "add", 1)

    spawn(bed.sim, driver())
    bed.run(until_ms=3_000.0)
    store = manager.durability.store
    acked = store.latest_acked(ref.actor_id)
    assert acked is not None and acked.state["total"] > 0
    acked_total = acked.state["total"]

    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=12_000.0)
    restored = [d for k, d in events if k == "state-restored"]
    assert len(restored) == 1
    assert restored[0]["actor_id"] == ref.actor_id
    # The instance carries the checkpointed total, not a fresh zero —
    # and at least everything acknowledged before the crash survived.
    record = bed.system.directory.lookup(ref.actor_id)
    assert record.instance.total >= acked_total > 0
    # The event's digest is computed from the instance AFTER restore
    # (round-trip): it must match a digest of the live state.
    assert restored[0]["digest"] == state_digest(
        record.instance.snapshot_state())
    assert manager.durability.restores == 1


def test_without_durability_resurrection_is_fresh():
    bed = build_cluster(3, seed=3)
    manager = make_manager(bed, durability=None)
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system)

    def driver():
        for _ in range(10):
            yield client.call(ref, "add", 1)

    spawn(bed.sim, driver())
    bed.run(until_ms=3_000.0)
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=12_000.0)
    record = bed.system.directory.lookup(ref.actor_id)
    assert record.instance.total == 0


def test_restore_miss_when_no_checkpoint_survives():
    bed = build_cluster(3, seed=3)
    config = DurabilityConfig(checkpoint_interval_ms=500.0)
    manager = make_manager(bed, config)
    events = record_events(manager)
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    bed.run(until_ms=2_000.0)
    # Every stored copy becomes unreadable before the crash.
    for checkpoint in manager.durability.store.checkpoints(ref.actor_id):
        checkpoint.aborted = True
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=12_000.0)
    record = bed.system.directory.lookup(ref.actor_id)
    assert record.instance.total == 0          # fresh restart, honestly
    assert manager.durability.restore_misses == 1
    assert not any(k == "state-restored" for k, _ in events)


def test_journal_suffix_replayed_on_restore():
    bed = build_cluster(3, seed=3)
    config = DurabilityConfig(checkpoint_interval_ms=500.0)
    manager = make_manager(bed, config)
    events = record_events(manager)
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system)

    def driver():
        for _ in range(5):
            yield client.call(ref, "add", 1)

    spawn(bed.sim, driver())
    bed.run(until_ms=3_000.0)
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=12_000.0)
    replayed = [d for k, d in events if k == "journal-replayed"]
    assert len(replayed) == 1
    # The actor's death was journaled after its restored checkpoint, so
    # the replayed per-actor suffix must mention it.
    assert "actor-destroyed" in replayed[0]["kinds"]
    assert manager.durability.journal_replays == 1


# -- migration rollback restores the shipped checkpoint ------------------


class BigCounter(Counter):
    # Big enough that the transfer outlasts the scheduled link cut.
    state_size_mb = 8.0


def test_rollback_restores_transfer_checkpoint():
    bed = build_cluster(2, seed=3)
    config = DurabilityConfig(checkpoint_interval_ms=60_000.0)
    manager = make_manager(bed, config, suspicion_timeout_ms=None)
    events = record_events(manager)
    src, dst = bed.servers
    ref = bed.system.create_actor(BigCounter, server=src)
    record = bed.system.directory.lookup(ref.actor_id)
    record.instance.total = 42
    bed.run(until_ms=100.0)

    done = bed.system.migrate_actor(ref, dst)
    # Cut the link mid-transfer and keep it cut past the commit phase
    # timeout, then corrupt the live state — rollback must restore the
    # snapshot the transfer shipped.
    bed.sim.schedule(1.0, bed.system.fabric.partition, {src.server_id})
    bed.sim.schedule(2.0, lambda: setattr(record.instance, "total", -999))
    bed.run(until_ms=bed.sim.now + 10_000.0)
    assert done.value is False
    assert bed.system.server_of(ref) is src
    assert record.instance.total == 42
    written = [d for k, d in events if k == "checkpoint-written"]
    transfer = [d for d in written if d["trigger"] == "transfer"]
    assert len(transfer) == 1
    assert transfer[0]["replicas"] == (dst.name,)
    # The rolled-back transfer checkpoint never acknowledges.
    acked = [d for k, d in events if k == "checkpoint-replicated"]
    assert all(d["trigger"] != "transfer" for d in acked)


def test_committed_migration_acks_transfer_checkpoint():
    bed = build_cluster(2, seed=3)
    config = DurabilityConfig(checkpoint_interval_ms=60_000.0)
    manager = make_manager(bed, config, suspicion_timeout_ms=None)
    events = record_events(manager)
    src, dst = bed.servers
    ref = bed.system.create_actor(Counter, server=src)
    bed.run(until_ms=100.0)
    done = bed.system.migrate_actor(ref, dst)
    bed.run(until_ms=bed.sim.now + 5_000.0)
    assert done.value is True
    acked = [d for k, d in events if k == "checkpoint-replicated"
             and d["trigger"] == "transfer"]
    assert len(acked) == 1
    assert acked[0]["replicas"] == (dst.name,)
    # The journal recorded the full phase sequence.
    kinds = [e.kind for e in manager.durability.store.journal
             if e.actor_id == ref.actor_id]
    assert kinds[-3:] == ["migration-prepare", "migration-transfer",
                          "migration-commit"]


# -- satellite: a client call in flight across the crash -----------------


def run_client_through_crash(durability, seed=13):
    """One client hammers one counter; its server dies mid-run and the
    actor resurrects.  Returns (replies, final total, attempts)."""
    bed = build_cluster(3, seed=seed)
    manager = make_manager(bed, durability)
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system, timeout_ms=1_000.0, max_retries=8,
                    backoff_base_ms=100.0, backoff_cap_ms=1_000.0)
    replies = []
    attempts = []

    def loop():
        while bed.sim.now < 20_000.0:
            attempts.append(bed.sim.now)
            value = yield from client.reliable_call(ref, "add", 1)
            if value is not None:
                replies.append((bed.sim.now, value))
            yield Timeout(bed.sim, 50.0)

    spawn(bed.sim, loop())
    bed.sim.schedule(4_000.0, bed.system.crash_server, bed.servers[0])
    bed.run(until_ms=20_000.0)

    final = []

    def read_back():
        value = yield from client.reliable_call(ref, "get")
        final.append(value)

    spawn(bed.sim, read_back())
    bed.run(until_ms=bed.sim.now + 2_000.0)
    return replies, final[0], len(attempts)


def test_call_in_flight_across_crash_observes_restored_state():
    # Checkpoint after every message: the acknowledged tail at crash
    # time is within one write of the applied total.
    config = DurabilityConfig(checkpoint_interval_ms=2_000.0,
                              dirty_message_threshold=1)
    replies, final, attempts = run_client_through_crash(config)
    pre = [value for t, value in replies if t < 4_000.0]
    post = [value for t, value in replies if t >= 4_000.0]
    assert pre and post, "crash must interrupt an active client"
    # The first reply after recovery continues from restored state —
    # never from a fresh zero (which would echo 1).
    assert post[0] > 1
    # ... and never loses acknowledged history: the restored lineage
    # resumes no lower than the last pre-crash checkpointed total.
    assert post[0] >= pre[-1] - 1
    # No double-apply: the counter never exceeds one increment per
    # attempted call.
    assert final <= attempts
    assert final == max(value for _t, value in replies)


def test_call_in_flight_across_crash_without_durability_is_fresh():
    replies, _final, _attempts = run_client_through_crash(None)
    post = [value for t, value in replies if t >= 4_000.0]
    assert post and post[0] == 1   # the A/B control: state reset
