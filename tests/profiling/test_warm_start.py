"""Warm-start profiles: A/B of resurrection with and without
``warm_start`` re-seeding.

Cold (the default) is the safe choice when a resurrected actor restarts
from fresh state; warm pairs with durability's checkpoint restore, where
the state — and therefore plausibly the load — actually survives the
crash.
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


def profile_through_resurrection(warm_start):
    """Unit-level A/B: burn CPU, destroy, resurrect, snapshot."""
    bed = build_cluster(1, "m5.large", seed=3)
    ref = bed.system.create_actor(_Idle)
    record = bed.system.directory.lookup(ref.actor_id)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS,
                                warm_start=warm_start)
    profiler.on_actor_created(record)
    profiler.on_compute(record, 42.0)
    bed.sim.run(until=bed.sim.now + 500.0)
    before = profiler.snapshot_actors([record])[0]
    profiler.on_actor_destroyed(record)
    profiler.on_actor_resurrected(record)
    after = profiler.snapshot_actors([record])[0]
    return profiler, before, after


def test_cold_start_forgets_precrash_rates():
    profiler, before, after = profile_through_resurrection(False)
    assert before.cpu_ms_per_min > 0.0
    assert after.cpu_ms_per_min == 0.0
    assert profiler.warm_starts == 0
    assert profiler._retired == {}         # nothing cached when off


def test_warm_start_carries_precrash_rates():
    profiler, before, after = profile_through_resurrection(True)
    assert after.cpu_ms_per_min == before.cpu_ms_per_min > 0.0
    assert profiler.warm_starts == 1
    assert profiler._retired == {}         # consumed, not leaked


def test_warm_start_cold_when_nothing_was_retired():
    bed = build_cluster(1, "m5.large", seed=3)
    ref = bed.system.create_actor(_Idle)
    record = bed.system.directory.lookup(ref.actor_id)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS,
                                warm_start=True)
    # Resurrected without ever being profiled-then-destroyed (e.g. the
    # profiler attached after the crash): falls back to a fresh profile.
    profiler.on_actor_resurrected(record)
    assert profiler.snapshot_actors([record])[0].cpu_ms_per_min == 0.0
    assert profiler.warm_starts == 0


def test_retired_cache_is_bounded():
    bed = build_cluster(1, "m5.large", seed=3)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS,
                                warm_start=True)
    profiler._RETIRED_CAP = 4
    bed.system.add_hooks(profiler)
    refs = [bed.system.create_actor(_Idle) for _ in range(10)]
    for ref in refs:
        bed.system.client_call(ref, "poke")  # one message: a real profile
    bed.sim.run(until=bed.sim.now + 500.0)
    assert profiler.messages_profiled == 10
    for ref in refs:
        bed.system.destroy_actor(ref)
    assert len(profiler._retired) == 4
    # FIFO: the survivors are the newest retirees.
    assert sorted(profiler._retired) == sorted(r.actor_id for r in refs[-4:])
    assert all(stats.messages_processed == 1
               for stats in profiler._retired.values())


def test_warm_start_counts_actor_destroyed_without_a_profile():
    bed = build_cluster(1, "m5.large", seed=3)
    ref = bed.system.create_actor(_Idle)
    record = bed.system.directory.lookup(ref.actor_id)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS,
                                warm_start=True)
    profiler.on_actor_created(record)
    # Destroyed before anything was profiled: its all-zero profile is
    # still carried over, and counted, on resurrection.
    profiler.on_actor_destroyed(record)
    profiler.on_actor_resurrected(record)
    assert profiler.warm_starts == 1
    assert profiler._retired == {}
    assert profiler.snapshot_actors([record])[0].cpu_ms_per_min == 0.0


# -- end-to-end through EmrConfig + durability ---------------------------


class Counter(Actor):
    state_size_mb = 1.0

    def __init__(self):
        self.total = 0

    def add(self, amount):
        yield self.compute(0.5)
        self.total += amount
        return self.total


def run_crash(warm_start_profiles):
    bed = build_cluster(3, seed=7)
    manager = ElasticityManager(
        bed.system,
        compile_source("server.cpu.perc > 80 or server.cpu.perc < 60 "
                       "=> balance({Counter}, cpu);", [Counter]),
        EmrConfig(period_ms=2_000.0, gem_wait_ms=300.0,
                  lem_stagger_ms=10.0,
                  warm_start_profiles=warm_start_profiles,
                  durability=DurabilityConfig(
                      enabled=True, checkpoint_interval_ms=1_000.0)))
    manager.start()
    ref = bed.system.create_actor(Counter, server=bed.servers[0])
    client = Client(bed.system)

    def loop():
        # Quiesce before the crash so no call is in flight at t=4000 —
        # a message in transit would be delivered to the resurrected
        # actor (same ref) and dirty the cold control's fresh profile.
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
    # Durability restored the checkpointed total in both variants; what
    # differs is only the profile.
    assert record.instance.total > 0
    return manager, after


def test_emr_warm_start_reseeds_resurrected_profile():
    manager, after = run_crash(warm_start_profiles=True)
    # The restored actor resumes with its pre-crash profile: rules see a
    # busy actor immediately instead of re-learning from zero.
    assert manager.profiler.warm_starts == 1
    assert after.cpu_ms_per_min > 0.0


def test_emr_default_resurrects_cold():
    manager, after = run_crash(warm_start_profiles=False)
    assert manager.profiler.warm_starts == 0
    assert after.cpu_ms_per_min == 0.0
