"""Unit tests for the elasticity profiling runtime (EPR)."""

import pytest

from repro.actors import Actor, ActorSystem, Client
from repro.cluster import Provisioner
from repro.core import compile_source
from repro.core.profiling import ProfilingRuntime
from repro.core.profiling.snapshot import EMPTY
from repro.sim import Simulator, Timeout, spawn


class Shard(Actor):
    state_size_mb = 4.0
    items: list

    def __init__(self):
        self.items = []

    def read(self):
        yield self.compute(2.0)
        return 1

    def write(self, data):
        yield self.compute(4.0)
        return 2


class Caller(Actor):
    def __init__(self, target):
        self.target = target

    def go(self):
        result = yield self.call(self.target, "read")
        return result


def setup(profiled=True, window_ms=600_000.0):
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    for _ in range(2):
        prov.boot_server(immediate=True)
    sim.run()
    system = ActorSystem(sim, prov)
    profiler = ProfilingRuntime(sim, window_ms=window_ms)
    if profiled:
        system.add_hooks(profiler)
    return sim, system, profiler


def run_calls(sim, system, ref, function, count, *args):
    client = Client(system)

    def body():
        for _ in range(count):
            yield client.call(ref, function, *args)

    spawn(sim, body())
    sim.run(until=sim.now + 120_000.0)


def test_message_counts_per_caller_kind_and_function():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard, server=system.provisioner.servers[0])
    run_calls(sim, system, shard, "read", 6)
    run_calls(sim, system, shard, "write", 3, "payload")

    record = system.directory.lookup(shard.actor_id)
    snap = profiler.snapshot_actors([record])[0]
    # Rates are per minute; the window is 60 s and sim.now > 60 s, so the
    # counts normalize to the raw totals scaled by window coverage.
    reads = snap.call_count_per_min[("client", "read")]
    writes = snap.call_count_per_min[("client", "write")]
    assert reads > 0 and writes > 0
    assert reads / writes == pytest.approx(2.0, rel=0.01)


def test_cpu_usage_attributed_to_actor():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard, server=system.provisioner.servers[0])
    run_calls(sim, system, shard, "read", 5)
    record = system.directory.lookup(shard.actor_id)
    snap = profiler.snapshot_actors([record])[0]
    assert snap.cpu_perc > 0
    assert snap.cpu_ms_per_min > 0


def test_pair_counts_track_actor_callers():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard, server=system.provisioner.servers[0])
    caller = system.create_actor(Caller, shard,
                                 server=system.provisioner.servers[1])
    run_calls(sim, system, caller, "go", 4)
    record = system.directory.lookup(shard.actor_id)
    snap = profiler.snapshot_actors([record])[0]
    pair_rate = snap.pair_count_per_min[(caller.actor_id, "read")]
    assert pair_rate > 0
    # Aggregate by caller type is present too.
    assert snap.call_count_per_min[("Caller", "read")] == \
        pytest.approx(pair_rate)


def test_call_percentage_within_same_type_same_server():
    sim, system, profiler = setup()
    server = system.provisioner.servers[0]
    hot = system.create_actor(Shard, server=server)
    cold = system.create_actor(Shard, server=server)
    run_calls(sim, system, hot, "read", 9)
    run_calls(sim, system, cold, "read", 3)
    records = system.actors_on(server)
    snaps = {s.actor_id: s for s in profiler.snapshot_actors(records)}
    assert snaps[hot.actor_id].call_perc[("client", "read")] == \
        pytest.approx(75.0, abs=0.5)
    assert snaps[cold.actor_id].call_perc[("client", "read")] == \
        pytest.approx(25.0, abs=0.5)


def test_net_bytes_tracked_for_remote_messages():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard, server=system.provisioner.servers[0])
    caller = system.create_actor(Caller, shard,
                                 server=system.provisioner.servers[1])
    run_calls(sim, system, caller, "go", 4)
    shard_snap = profiler.snapshot_actors(
        [system.directory.lookup(shard.actor_id)])[0]
    caller_snap = profiler.snapshot_actors(
        [system.directory.lookup(caller.actor_id)])[0]
    assert shard_snap.net_bytes_per_min > 0
    assert caller_snap.net_bytes_per_min > 0


def test_local_messages_do_not_count_as_network():
    sim, system, profiler = setup()
    server = system.provisioner.servers[0]
    shard = system.create_actor(Shard, server=server)
    caller = system.create_actor(Caller, shard, server=server)
    run_calls(sim, system, caller, "go", 4)
    snap = profiler.snapshot_actors(
        [system.directory.lookup(shard.actor_id)])[0]
    assert snap.net_bytes_per_min == 0.0


def test_refs_snapshotted_from_properties():
    sim, system, _ = setup(profiled=False)
    policy = compile_source(
        "Shard(s) in ref(Shard(o).items) => colocate(o, s);", [Shard])
    assert policy.ref_properties == {"items"}
    profiler = ProfilingRuntime(sim, ref_properties=policy.ref_properties)
    shard_a = system.create_actor(Shard)
    shard_b = system.create_actor(Shard)
    instance = system.actor_instance(shard_a)
    instance.items = [shard_b]
    instance.other = [shard_b]      # holds a ref, but no atom reads it
    record = system.directory.lookup(shard_a.actor_id)
    assert profiler.snapshot_actors([record])[0].refs == {
        "items": (shard_b,)}
    # A profiler without a policy carries no refs at all.
    assert ProfilingRuntime(sim).snapshot_actors([record])[0].refs is EMPTY


def test_server_snapshot():
    sim, system, profiler = setup()
    server = system.provisioner.servers[0]
    shard = system.create_actor(Shard, server=server)
    run_calls(sim, system, shard, "write", 5, "x")
    records = system.actors_on(server)
    snap = profiler.snapshot_server(server, records)
    assert snap.actor_count == 1
    assert snap.instance_type == "m5.large"
    assert snap.cpu_perc >= 0.0


def test_overhead_charge_submits_cpu_work():
    sim, system, _ = setup(profiled=False)
    server = system.provisioner.servers[0]
    heavy = ProfilingRuntime(sim, overhead_cpu_ms=1.0)
    system.add_hooks(heavy)
    shard = system.create_actor(Shard, server=server)
    run_calls(sim, system, shard, "read", 10)
    # 10 messages x 1 ms overhead charged to the server on top of the
    # 10 x 2 ms handler compute.
    assert server.cpu_meter.lifetime_total == pytest.approx(30.0, rel=0.01)
    assert heavy.messages_profiled == 10


def test_destroyed_actor_stats_dropped():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard)
    run_calls(sim, system, shard, "read", 2)
    system.destroy_actor(shard)
    assert shard.actor_id not in profiler._stats


def test_zero_window_profiler_does_not_divide_by_zero():
    # Regression: window_ms=0 made the per-minute scaling divide by an
    # effective window of zero and raise ZeroDivisionError.
    sim, system, _ = setup(profiled=False)
    profiler = ProfilingRuntime(sim, window_ms=0.0)
    system.add_hooks(profiler)
    shard = system.create_actor(Shard, server=system.provisioner.servers[0])
    run_calls(sim, system, shard, "read", 3)
    snap = profiler.snapshot_actors(
        [system.directory.lookup(shard.actor_id)])[0]
    assert snap.cpu_ms_per_min == 0.0
    assert snap.cpu_perc == 0.0
    assert all(v == 0.0 for v in snap.call_count_per_min.values())


def test_zero_group_total_percentages_are_zero():
    # A group whose windowed call counts all decayed to zero must produce
    # 0% shares, not a divide-by-zero (the _fill_percentages guard).
    sim, system, _ = setup(profiled=False)
    profiler = ProfilingRuntime(sim, window_ms=10_000.0)
    system.add_hooks(profiler)
    server = system.provisioner.servers[0]
    first = system.create_actor(Shard, server=server)
    second = system.create_actor(Shard, server=server)
    run_calls(sim, system, first, "read", 4)
    run_calls(sim, system, second, "read", 2)
    sim.run(until=sim.now + 800_000.0)  # far past every retained bucket
    snaps = profiler.snapshot_actors(system.actors_on(server))
    for snap in snaps:
        for value in snap.call_perc.values():
            assert value == 0.0


def test_snapshot_cache_counters():
    sim, system, profiler = setup()
    server = system.provisioner.servers[0]
    shard = system.create_actor(Shard, server=server)
    run_calls(sim, system, shard, "read", 3)
    record = system.directory.lookup(shard.actor_id)
    profiler.snapshot_actors([record])
    misses = profiler.snapshot_cache_misses
    # Same instant, nothing changed: served from cache.
    profiler.snapshot_actors([record])
    assert profiler.snapshot_cache_hits >= 1
    assert profiler.snapshot_cache_misses == misses
    # New traffic dirties the actor: recomputed.
    run_calls(sim, system, shard, "read", 1)
    profiler.snapshot_actors([record])
    assert profiler.snapshot_cache_misses > misses


def test_resource_perc_accessors_validate():
    sim, system, profiler = setup()
    shard = system.create_actor(Shard)
    snap = profiler.snapshot_actors(
        [system.directory.lookup(shard.actor_id)])[0]
    for resource in ("cpu", "mem", "net"):
        assert snap.resource_perc(resource) >= 0.0
        assert snap.demand(resource) >= 0.0
    with pytest.raises(ValueError):
        snap.resource_perc("disk")
    with pytest.raises(ValueError):
        snap.demand("disk")
