"""Chaos recovery — applications surviving injected failures.

Not a paper figure: this exercises the robustness layer added on top of
the reproduction.  A :class:`FaultPlan` crashes one of four servers (and
later a GEM) in the middle of a run; the EMR's failure detector notices
the missed heartbeats, resurrects the lost actors through rule-aware
placement on the survivors, and a surviving GEM adopts the dead GEM's
servers.  Clients ride over the outage with timeout + retry, and an
:class:`AvailabilityMeter` documents the dip and the recovery.
"""

import random

from pagerank_common import PERIOD_MS  # noqa: F401  (shared conventions)
from repro.actors import Client, RuntimeHooks
from repro.apps.estore import ESTORE_POLICY, Partition, build_estore
from repro.apps.pagerank import (EXCHANGE_GRACE_MS, PAGERANK_POLICY,
                                 PageRankWorker, build_pagerank)
from repro.bench import build_cluster, format_table
from repro.chaos import ChaosEngine, CrashServer, FaultPlan, KillGem
from repro.cluster import AvailabilityMeter
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.tracing import ElasticityTracer
from repro.graphs import social_graph
from repro.sim import Timeout, spawn

#: Fault-tolerant EMR tuning shared by both experiments: 5 s elasticity
#: periods, suspicion after 6 s of LEM silence (detector ticks every 3 s,
#: so worst-case detection latency stays under two periods).
CHAOS_EMR = dict(period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
                 suspicion_timeout_ms=6_000.0)

CRASH_AT_MS = 21_000.0
KILL_GEM_AT_MS = 35_000.0
TWO_PERIODS_MS = 2 * CHAOS_EMR["period_ms"]
DAMPING = 0.85
TOL = 1e-3


class _RewireOnResurrect(RuntimeHooks):
    """Re-establishes post-construction wiring a resurrection loses.

    Constructor arguments survive resurrection; state installed *after*
    construction (PageRank peer maps, E-Store children lists) does not —
    that re-wiring is the application's recovery hook, exactly as the
    paper leaves non-constructor state to the host language runtime.
    """

    def __init__(self, wire):
        self.wire = wire
        self.resurrected = []

    def on_actor_resurrected(self, record):
        self.resurrected.append((record.ref, record.server))
        self.wire(record)


def _parallel_calls(bed, client, refs, function, *args):
    procs = [spawn(bed.sim,
                   client.reliable_call(ref, function, *args),
                   name=f"call/{function}/{i}")
             for i, ref in enumerate(refs)]
    results = []
    for proc in procs:
        results.append((yield proc))
    return results


def test_pagerank_converges_through_server_crash_and_gem_kill(report):
    bed = build_cluster(4, "m5.large", seed=7)
    graph = social_graph(800, 3, superhubs=4, hub_fraction=0.06,
                         rng=random.Random(2))
    deployment = build_pagerank(bed, graph, 8)
    workers = deployment.workers
    peer_map = {part: ref for part, ref in enumerate(workers)}

    policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        gem_count=2, **CHAOS_EMR))
    manager.start()
    tracer = ElasticityTracer(manager)
    tracer.attach()

    rewire = _RewireOnResurrect(
        lambda record: record.instance.set_peers(peer_map))
    bed.system.add_hooks(rewire)

    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=CRASH_AT_MS, server_index=1),
        KillGem(at_ms=KILL_GEM_AT_MS, gem_id=0),
    )), manager=manager)
    engine.start()

    meter = AvailabilityMeter(bed.sim, window_ms=5_000.0)
    client = Client(bed.system, name="chaos-driver", timeout_ms=3_000.0,
                    max_retries=8, backoff_base_ms=250.0,
                    backoff_cap_ms=2_000.0, meter=meter)

    history = []
    finished = []

    def driver():
        yield from _parallel_calls(bed, client, workers, "load_data")
        while True:
            dangling = yield from _parallel_calls(
                bed, client, workers, "compute_contribs", DAMPING)
            yield from _parallel_calls(bed, client, workers, "send_updates")
            yield Timeout(bed.sim, EXCHANGE_GRACE_MS)
            dangling_total = sum(d for d in dangling if d is not None)
            deltas = yield from _parallel_calls(
                bed, client, workers, "apply_update", DAMPING,
                dangling_total)
            complete = [d for d in deltas if d is not None]
            delta = sum(complete) if len(complete) == len(deltas) \
                else float("inf")
            history.append((bed.sim.now, delta))
            if bed.sim.now >= 55_000.0 and delta < TOL:
                break
            if len(history) >= 300:
                break
        finished.append(True)

    spawn(bed.sim, driver(), name="chaos-pagerank-driver")
    while not finished:
        if bed.sim.peek() is None:
            raise RuntimeError("driver stalled (empty event heap)")
        bed.sim.run(until=bed.sim.now + 10_000.0)
        assert bed.sim.now < 3_600_000.0, "driver did not finish in time"

    # 1. PageRank converged despite losing a quarter of the fleet.
    final_delta = history[-1][1]
    assert final_delta < TOL

    # 2. The crash was detected and every lost worker resurrected on a
    #    surviving server within two elasticity periods.
    [crashed] = tracer.of_kind("server-crashed")
    # The balance rule shuffles workers before the crash, so the exact
    # victim set varies — but someone must die, and everyone who died
    # must come back.
    assert crashed.detail["lost_actors"] >= 1
    assert tracer.of_kind("server-suspected")
    resurrections = tracer.of_kind("actor-resurrected")
    assert len(resurrections) == crashed.detail["lost_actors"]
    for event in resurrections:
        assert event.time_ms - crashed.time_ms <= TWO_PERIODS_MS
    for ref, server in rewire.resurrected:
        assert server.running
        record = bed.system.directory.lookup(ref.actor_id)
        assert record.server.running

    # 3. Availability dipped during the fault window, then returned to
    #    100% once the actors were back.
    during = meter.availability_between(CRASH_AT_MS, CRASH_AT_MS + 6_000.0)
    after = meter.availability_between(28_000.0, bed.sim.now)
    assert during < 1.0
    assert after == 1.0
    assert meter.recovery_time_ms() is not None
    assert client.dead_letters == []

    # 4. The GEM kill was injected and a survivor adopted its servers.
    [failover] = tracer.of_kind("gem-failover")
    assert failover.detail == {"failed_gem": 0, "adopter": 1,
                               "respawned": False}
    assert len(tracer.of_kind("fault-injected")) == 2

    windows = [(start, counts["success"], counts["failure"],
                counts["timeout"],
                meter.availability_between(start, start + 5_000.0))
               for start, counts in meter.per_window()]
    report.add(format_table(
        ["window(ms)", "ok", "fail", "timeout", "availability"],
        [[start, ok, fail, t_o, f"{100 * avail:.1f}%"]
         for start, ok, fail, t_o, avail in windows],
        title="Chaos recovery — PageRank availability per 5 s window "
              f"(server crash @ {CRASH_AT_MS:.0f} ms, "
              f"GEM kill @ {KILL_GEM_AT_MS:.0f} ms)"))
    report.add(f"iterations: {len(history)}, final delta: "
               f"{final_delta:.2e}")
    report.add(f"recovery span: {meter.recovery_time_ms():.0f} ms, "
               f"retries used: {client.retries_used}, "
               f"resurrected: {len(resurrections)} workers")
    fabric = bed.system.fabric
    report.add(f"fabric drops: {fabric.messages_dropped} total, "
               f"{fabric.partition_drops} charged to partition cuts")
    report.write("chaos_recovery_pagerank")


def test_estore_rebalances_through_mid_run_crash(report):
    bed = build_cluster(4, "m1.small", seed=13)
    setup = build_estore(bed, num_roots=12, children_per_root=2)
    kids_of = {root.actor_id: kids
               for root, kids in zip(setup.roots, setup.children)}

    policy = compile_source(ESTORE_POLICY, [Partition])
    manager = ElasticityManager(bed.system, policy, EmrConfig(**CHAOS_EMR))
    manager.start()
    tracer = ElasticityTracer(manager)
    tracer.attach()

    def rewire_children(record):
        kids = kids_of.get(record.ref.actor_id)
        if kids is not None:
            record.instance.children = list(kids)

    rewire = _RewireOnResurrect(rewire_children)
    bed.system.add_hooks(rewire)

    crash_at = 12_000.0
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=crash_at, server_index=2),)), manager=manager)
    engine.start()

    # Enough offered load that losing a quarter of the fleet leaves the
    # survivors imbalanced — the balance/reserve rules must actually
    # migrate partitions, not just absorb the crash.
    meter = AvailabilityMeter(bed.sim, window_ms=5_000.0)
    clients = [Client(bed.system, name=f"c{i}", timeout_ms=2_000.0,
                      max_retries=6, backoff_base_ms=200.0,
                      backoff_cap_ms=1_600.0, meter=meter)
               for i in range(20)]
    rng = bed.streams.stream("estore-key-pick")

    def client_loop(client):
        while bed.sim.now < 40_000.0:
            root = setup.picker.pick()
            yield from client.reliable_call(root, "read",
                                            rng.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for client in clients:
        spawn(bed.sim, client_loop(client))

    bed.run(until_ms=10_000.0)
    rounds_before = {sid: lem.rounds_run
                     for sid, lem in manager.lems.items()}
    bed.run(until_ms=40_000.0)

    # Every partition — roots and children — is alive again.
    for root, kids in zip(setup.roots, setup.children):
        for ref in [root] + kids:
            record = bed.system.directory.try_lookup(ref.actor_id)
            assert record is not None
            assert record.server.running

    [crashed] = tracer.of_kind("server-crashed")
    assert crashed.detail["lost_actors"] >= 1
    resurrections = tracer.of_kind("actor-resurrected")
    assert len(resurrections) == crashed.detail["lost_actors"]
    for event in resurrections:
        assert event.time_ms - crashed.time_ms <= TWO_PERIODS_MS

    # Service availability: a dip during the outage, clean afterwards.
    assert meter.availability_between(crash_at, crash_at + 6_000.0) < 1.0
    assert meter.availability_between(20_000.0, 40_000.0) == 1.0

    # The EMR kept running rounds on the survivors after the crash, and
    # its rules rebalanced the denser post-crash placement.
    for sid, lem in manager.lems.items():
        if lem.server.running:
            assert lem.rounds_run > rounds_before.get(sid, 0)
    assert manager.migrations_total() > 0

    report.add(format_table(
        ["window(ms)", "ok", "fail", "timeout"],
        [[start, counts["success"], counts["failure"], counts["timeout"]]
         for start, counts in meter.per_window()],
        title="Chaos recovery — E-Store outcomes per 5 s window "
              f"(server crash @ {crash_at:.0f} ms)"))
    report.add(f"availability during fault: "
               f"{100 * meter.availability_between(crash_at, crash_at + 6_000.0):.1f}%, "
               f"after recovery: "
               f"{100 * meter.availability_between(20_000.0, 40_000.0):.1f}%")
    report.add(f"migrations over the run: {manager.migrations_total()}, "
               f"resurrected partitions: {len(resurrections)}")
    report.write("chaos_recovery_estore")
