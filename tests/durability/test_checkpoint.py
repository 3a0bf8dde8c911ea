"""Checkpoint protocol: triggers, replication, costs, and inertness
when disabled."""

import pytest

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.durability import DurabilityConfig, DurabilityManager
from repro.fuzz import Scenario
from repro.sim import spawn


class Counter(Actor):
    state_size_mb = 1.0

    def __init__(self):
        self.total = 0

    def add(self, amount):
        yield self.compute(0.5)
        self.total += amount
        return self.total


def counter_policy():
    return compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Counter}, cpu);", [Counter])


def make_manager(bed, durability=None, **overrides):
    defaults = dict(period_ms=2_000.0, gem_wait_ms=300.0,
                    lem_stagger_ms=10.0, durability=durability)
    defaults.update(overrides)
    manager = ElasticityManager(bed.system, counter_policy(),
                                EmrConfig(**defaults))
    return manager


def record_events(manager):
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    return events


# -- configuration ------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(checkpoint_interval_ms=0.0),
    dict(checkpoint_interval_ms=-5.0),
    dict(dirty_message_threshold=0),
    dict(replication_factor=0),
    dict(serialize_cpu_ms=-0.1),
    dict(snapshot_fraction=0.0),
    dict(snapshot_fraction=1.5),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError):
        DurabilityConfig(**bad)


def test_emr_config_rejects_non_config_durability():
    with pytest.raises(ValueError, match="durability"):
        EmrConfig(durability={"checkpoint_interval_ms": 1_000.0})


def test_manager_requires_enabled_config():
    bed = build_cluster(2)
    manager = make_manager(bed, durability=None)
    with pytest.raises(ValueError, match="DurabilityConfig"):
        DurabilityManager(manager)


# -- default off: inert -------------------------------------------------


def test_disabled_attaches_nothing():
    bed = build_cluster(2)
    manager = make_manager(bed, durability=None)
    events = record_events(manager)
    manager.start()
    bed.system.create_actor(Counter)
    bed.run(until_ms=bed.sim.now + 5_000.0)
    assert manager.durability is None
    assert bed.system.durability is None
    assert not any(kind.startswith("checkpoint") for kind, _ in events)
    manager.stop()


def fingerprint(seed, durability):
    bed = build_cluster(2, seed=seed)
    manager = make_manager(bed, durability=durability)
    events = record_events(manager)
    manager.start()
    refs = [bed.system.create_actor(Counter) for _ in range(4)]
    client = Client(bed.system)
    rng = bed.streams.stream("load")

    def loop(ref):
        while bed.sim.now < 10_000.0:
            yield client.call(ref, "add", 1)
            _ = rng.random()

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=10_000.0)
    return (tuple(kind for kind, _ in events),
            tuple(lat for _t, lat in client.latencies.samples),
            tuple((e.time_ms, e.src, e.dst) for e in manager.migration_log))


def test_disabled_config_is_bit_identical_to_none():
    """``durability=None`` is the only off-state: the legacy
    ``enabled: false`` spelling old fuzz artifacts carry loads as exactly
    that, so those runs keep the golden-trace guarantee."""
    legacy = Scenario(seed=11, app="estore", durability={
        "enabled": False, "checkpoint_interval_ms": 1_000.0}).to_jsonable()
    off = Scenario.from_jsonable(legacy).durability
    assert off is None
    assert fingerprint(11, off) == fingerprint(11, None)


def test_enabled_run_diverges_only_in_durability_events():
    base = fingerprint(11, None)
    durable = fingerprint(11, DurabilityConfig(
        checkpoint_interval_ms=1_000.0,
        serialize_cpu_ms=0.0))
    stripped = tuple(kind for kind in durable[0]
                     if not kind.startswith("checkpoint"))
    assert stripped == base[0]
    assert durable[1] == base[1]  # zero-cost checkpoints: same latencies


# -- protocol -----------------------------------------------------------


def run_durable(durability, until_ms=10_000.0, servers=3, load=True):
    bed = build_cluster(servers, seed=5)
    manager = make_manager(bed, durability=durability,
                           suspicion_timeout_ms=2_500.0)
    events = record_events(manager)
    refs = [bed.system.create_actor(Counter, server=bed.servers[0])
            for _ in range(2)]
    manager.start()
    if load:
        client = Client(bed.system)

        def loop(ref):
            while bed.sim.now < until_ms:
                yield client.call(ref, "add", 1)

        for ref in refs:
            spawn(bed.sim, loop(ref))
    bed.run(until_ms=until_ms)
    return bed, manager, refs, events


def test_baseline_and_periodic_checkpoints():
    config = DurabilityConfig(checkpoint_interval_ms=1_000.0)
    bed, manager, refs, events = run_durable(config)
    written = [d for k, d in events if k == "checkpoint-written"]
    acked = [d for k, d in events if k == "checkpoint-replicated"]
    # Pre-start actors got a baseline write; busy actors keep getting
    # periodic ones, each eventually acknowledged.
    assert [d["trigger"] for d in written[:2]] == ["baseline", "baseline"]
    assert sum(1 for d in written if d["trigger"] == "periodic") > 5
    assert len(acked) > 5
    assert manager.durability.store.checkpoints_acked == len(acked)
    # Replication happened to peers, never to the writer itself.
    host = bed.servers[0].name
    for d in written:
        assert d["replicas"], "no replica chosen"
        assert host not in d["replicas"]
    # Acks strictly follow writes, never outrun them.
    totals = manager.durability.summary()["totals"]
    assert totals["checkpoints_acked"] <= totals["checkpoints_written"]


def test_idle_actors_are_not_rewritten():
    config = DurabilityConfig(checkpoint_interval_ms=1_000.0)
    _bed, manager, refs, events = run_durable(config, load=False)
    written = [d for k, d in events if k == "checkpoint-written"]
    # Nothing dirtied the actors after the baseline: one write each.
    assert len(written) == len(refs)


def test_dirty_threshold_triggers_immediate_checkpoint():
    config = DurabilityConfig(checkpoint_interval_ms=60_000.0,
                              dirty_message_threshold=5)
    _bed, manager, refs, events = run_durable(config, until_ms=5_000.0)
    triggers = [d["trigger"] for k, d in events
                if k == "checkpoint-written"]
    assert "dirty" in triggers
    assert "periodic" not in triggers  # interval never elapsed


def test_replication_charges_nic_meters():
    config = DurabilityConfig(checkpoint_interval_ms=500.0,
                              replication_factor=2)
    bed, manager, _refs, _events = run_durable(config, load=True)
    assert manager.durability.store.bytes_replicated > 0
    # Replica servers hosted no actors; any NIC traffic there is
    # checkpoint copies landing.
    assert any(server.net_meter.lifetime_total > 0
               for server in bed.servers[1:])


def test_host_crash_aborts_inflight_writes():
    config = DurabilityConfig(checkpoint_interval_ms=500.0,
                              # Slow the copies down so some are in
                              # flight at crash time.
                              snapshot_fraction=1.0)
    bed, manager, refs, events = run_durable(config, until_ms=3_000.0)
    crash_at = bed.sim.now
    victim = bed.servers[0]
    bed.system.crash_server(victim)
    bed.run(until_ms=crash_at + 8_000.0)
    store = manager.durability.store
    # Acked count never includes writes whose source died mid-flight.
    assert store.checkpoints_acked < store.checkpoints_written
    assert store.checkpoints_lost > 0


def test_replica_holder_crash_discards_its_copies():
    config = DurabilityConfig(checkpoint_interval_ms=500.0,
                              replication_factor=2)
    bed, manager, _refs, _events = run_durable(config, until_ms=3_000.0)
    crash_at = bed.sim.now
    # The actors live on servers[0]; its replicas are peers — crash one
    # of those and every copy it stored must become unreadable.
    bed.system.crash_server(bed.servers[1])
    bed.run(until_ms=crash_at + 2_000.0)
    assert manager.durability.store.replicas_discarded > 0


def test_replica_choice_is_deterministic_and_spread():
    config = DurabilityConfig(checkpoint_interval_ms=500.0,
                              replication_factor=1)
    bed, manager, _refs, _events = run_durable(config)
    choose = manager.durability._choose_replicas
    first = choose(bed.servers[0])
    assert first == choose(bed.servers[0])
    assert bed.servers[0] not in first
    # Different hosts rotate to different peers (the offset spreads
    # copies without randomness).
    assert choose(bed.servers[1]) != choose(bed.servers[2])


def test_stop_detaches_cleanly():
    config = DurabilityConfig(checkpoint_interval_ms=500.0)
    bed, manager, _refs, events = run_durable(config, until_ms=2_000.0)
    assert bed.system.durability is manager.durability
    manager.stop()
    assert manager.durability is None
    assert bed.system.durability is None
    count = len(events)
    bed.system.create_actor(Counter)
    bed.run(until_ms=bed.sim.now + 3_000.0)
    assert not any(kind.startswith("checkpoint")
                   for kind, _ in events[count:])
