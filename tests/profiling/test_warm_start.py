"""Resurrected actors restart with cold profiles.

A resurrected actor's pre-crash rates must not drive post-crash rules:
the profiler forgets a destroyed actor's stats, and resurrection starts
a fresh profile even when durability restores the actor's state.
"""

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.profiling import ProfilingRuntime
from repro.durability import DurabilityConfig
from repro.sim import spawn

WINDOW_MS = 10_000.0


class _Idle(Actor):
    def poke(self):
        yield self.compute(1.0)
        return True


def test_cold_start_forgets_precrash_rates():
    bed = build_cluster(1, "m5.large", seed=3)
    ref = bed.system.create_actor(_Idle)
    record = bed.system.directory.lookup(ref.actor_id)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS)
    profiler.on_actor_created(record)
    profiler.on_compute(record, 42.0)
    bed.sim.run(until=bed.sim.now + 500.0)
    before = profiler.snapshot_actors([record])[0]
    profiler.on_actor_destroyed(record)
    assert profiler._stats == {}           # nothing kept for the dead
    profiler.on_actor_resurrected(record)
    after = profiler.snapshot_actors([record])[0]
    assert before.cpu_ms_per_min > 0.0
    assert after.cpu_ms_per_min == 0.0


# -- end-to-end through EmrConfig + durability ---------------------------


class Counter(Actor):
    state_size_mb = 1.0

    def __init__(self):
        self.total = 0

    def add(self, amount):
        yield self.compute(0.5)
        self.total += amount
        return self.total


def test_emr_default_resurrects_cold():
    bed = build_cluster(3, seed=7)
    manager = ElasticityManager(
        bed.system,
        compile_source("server.cpu.perc > 80 or server.cpu.perc < 60 "
                       "=> balance({Counter}, cpu);", [Counter]),
        EmrConfig(period_ms=2_000.0, gem_wait_ms=300.0,
                  lem_stagger_ms=10.0,
                  durability=DurabilityConfig(
                      checkpoint_interval_ms=1_000.0)))
    manager.start()
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system)

    def loop():
        # Quiesce before the crash so no call is in flight at t=4000 —
        # a message in transit would be delivered to the resurrected
        # actor (same ref) and dirty its fresh profile.
        while bed.sim.now < 3_800.0:
            yield client.call(ref, "add", 1)

    spawn(bed.sim, loop())
    bed.run(until_ms=4_000.0)
    record = bed.system.directory.lookup(ref.actor_id)
    before = manager.profiler.snapshot_actors([record])[0]
    assert before.cpu_ms_per_min > 0.0
    # Resurrect promptly (the EMR's failure detector can only notice a
    # crash after at least one silent period, by which time the windowed
    # rates have aged out either way) — the manual path runs the same
    # on_actor_resurrected hooks and durability restore.
    bed.system.crash_server(bed.servers[0])
    assert bed.system.resurrect_actor(record) is ref
    bed.run(until_ms=5_000.0)
    record = bed.system.directory.lookup(ref.actor_id)
    after = manager.profiler.snapshot_actors([record])[0]
    # Durability restored the checkpointed total; the profile did not
    # come back with it.
    assert record.instance.total > 0
    assert after.cpu_ms_per_min == 0.0
