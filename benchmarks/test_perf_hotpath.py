"""Hot-path micro-benchmarks: EPR profiling, GEM evaluation, sim kernel.

Each benchmark times one layer of the elasticity hot path and records
the absolute numbers into ``BENCH_perf.json`` (repo root, or
``$BENCH_PERF_PATH``) as a trajectory.  There is one implementation of
each layer, so there is no in-process reference to take a ratio against:
the regression guard for these layers is the end-to-end benchmark
(``benchmarks/e2e``), and CI's benchmark-smoke job only holds
``sim_kernel.engine_events_per_sec`` to a floor against the committed
baseline.
"""

from repro.actors import Actor, Message
from repro.bench import build_cluster, record_metrics, time_ops
from repro.core import compile_source
from repro.core.emr.evaluate import (EvaluationScope, colocate_groups,
                                     evaluate_rule)
from repro.core.profiling import ActorStats, ProfilingRuntime
from repro.sim import Queue, Simulator, spawn

WINDOW_MS = 60_000.0
NUM_ACTORS = 128
CALL_KEYS = 6
# Many windows of history: the steady state a long-running cluster sits
# in, with every meter's ring full and evicting.
HISTORY_MS = 2_160_000.0
PUMP_STEP_MS = 500.0   # one event per bucket: steady-state meter density
STEP_MS = 2_000.0      # virtual time between profiling periods


class Shard(Actor):
    children: list
    state_size_mb = 2.0

    def __init__(self):
        self.children = []

    def read(self):
        yield self.compute(1.0)
        return 1


# ---------------------------------------------------------------------------
# shared scenario plumbing
# ---------------------------------------------------------------------------


def _build_bed():
    bed = build_cluster(2, "m5.large", seed=7)
    refs = []
    for index in range(NUM_ACTORS):
        server = bed.servers[index % 2]
        refs.append(bed.system.create_actor(Shard, server=server))
    # A few heavyweight shards: the selective `mem.perc > 50` atom binds
    # only these, which is what makes indexed candidate lookup matter.
    memory_mb = bed.servers[0].itype.memory_mb
    for ref in refs[:4]:
        bed.system.actor_instance(ref).state_size_mb = 0.6 * memory_mb
    # Ref joins: every shard holds the next one as a child.
    for left, right in zip(refs, refs[1:]):
        bed.system.actor_instance(left).children.append(right)
    return bed, refs


def _messages():
    """One reusable Message per call key (record_message only reads the
    caller fields, so reuse avoids timing dataclass construction)."""
    return {
        key: Message(target_id=0, function=f"fn{key}", args=(),
                     caller_kind="client", caller_id=None,
                     size_bytes=256.0, reply=None)
        for key in range(CALL_KEYS)}


def _profiled_bed():
    """A profiling runtime pumped with a long, half-idle history."""
    bed, refs = _build_bed()
    records = [bed.system.directory.lookup(ref.actor_id) for ref in refs]
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS)
    for record in records:
        profiler.on_actor_created(record)
    messages = _messages()
    active = NUM_ACTORS // 2  # the other half stays idle (cold actors)
    step = 0
    while bed.sim.now < HISTORY_MS:
        bed.sim.run(until=min(HISTORY_MS, bed.sim.now + PUMP_STEP_MS))
        message = messages[step % CALL_KEYS]
        for record in records[:active]:
            profiler.on_message_delivered(record, message)
            profiler.on_compute(record, 0.5)
            profiler.on_bytes_received(record, 128.0)
        step += 1
    return bed, records, profiler, messages, active


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def test_profiling_ingest_ops(report):
    """Per-event bookkeeping cost of the ring meters."""
    events = 50_000

    def ingest():
        # Self-contained per repeat: fresh meters, monotonic clock so
        # the rings rotate through many buckets.
        sim = Simulator()
        stats = ActorStats(sim, window_ms=WINDOW_MS)
        for index in range(events):
            if not index % 50:
                sim.run(until=index * 10.0)
            stats.record_message("client", None, "read", 256.0)
            stats.cpu.add(0.5)

    timing = time_ops(ingest, ops=2 * events, repeats=3)
    report.add(f"ingest: {timing.ops_per_sec:,.0f} ops/s")
    record_metrics("profiling_ingest", {
        "incremental_ops_per_sec": timing.ops_per_sec,
    })
    report.write("perf_profiling_ingest")
    assert timing.ops_per_sec > 100_000


def test_profiling_snapshot_cost(report):
    """Per-period snapshot cost over a long-history, half-idle fleet."""
    bed, records, profiler, messages, active = _profiled_bed()
    rounds = 3

    def snapshot_rounds():
        for _ in range(rounds):
            bed.sim.run(until=bed.sim.now + STEP_MS)
            for record in records[:active]:
                profiler.on_message_delivered(record, messages[0])
            for server in bed.servers:
                group = [r for r in records if r.server is server]
                profiler.snapshot_actors(group)

    timing = time_ops(snapshot_rounds, ops=rounds, repeats=3)
    report.add(f"snapshot: {timing.ms_per_op:.2f} ms/round  (cache hits: "
               f"{profiler.snapshot_cache_hits})")
    record_metrics("profiling_snapshot", {
        "incremental_ms_per_round": timing.ms_per_op,
    })
    report.write("perf_profiling_snapshot")
    assert profiler.snapshot_cache_hits > 0  # idle actors were reused
    assert timing.ms_per_op < 100.0


def test_gem_decision_latency(report):
    """Full decision pipeline per period: snapshot + rule evaluation."""
    bed, records, profiler, messages, active = _profiled_bed()
    policy = compile_source(
        """
        server.cpu.perc >= 0 and Shard(a).cpu.perc >= 0 and
        Shard(b).mem.perc > 50 => separate(a, b);
        Shard(c) in ref(Shard(p).children) => colocate(p, c);
        server.cpu.perc > 101 => balance({Shard}, cpu);
        """, [Shard])
    rules = list(policy.resource_rules) + list(policy.actor_rules)

    def decision_round():
        bed.sim.run(until=bed.sim.now + STEP_MS)
        for record in records[:active]:
            profiler.on_message_delivered(record, messages[0])
        snaps = []
        server_snaps = []
        for server in bed.servers:
            group = [r for r in records if r.server is server]
            snaps.extend(profiler.snapshot_actors(group))
            server_snaps.append(profiler.snapshot_server(server, group))
        by_id = {snap.actor_id: snap for snap in snaps}
        scope = EvaluationScope(
            servers=server_snaps, actors=snaps,
            resolve_ref=lambda ref: by_id.get(ref.actor_id))
        keys = []
        for rule in rules:
            keys.extend(match.key() for match in evaluate_rule(rule, scope))
        colocate_groups(policy.actor_rules, scope)
        return keys

    matches = len(decision_round())
    timing = time_ops(decision_round, ops=1, repeats=3)
    report.add(f"decision: {timing.ms_per_op:.2f} ms")
    report.add(f"matches per round: {matches}")
    record_metrics("gem_decision", {
        "incremental_ms_per_round": timing.ms_per_op,
    })
    report.write("perf_gem_decision")
    assert matches > 0
    assert timing.ms_per_op < 200.0


def test_sim_kernel_throughput(report):
    """Event-loop and mailbox throughput.

    The engine workload mirrors the runtime's real traffic mix: each
    future-dated event (a network delivery or timer) resumes a chain of
    zero-delay continuations — in the actor runtime every process resume
    and mailbox wakeup is a ``schedule(0.0, ...)``, so zero-delay events
    dominate a live cluster's queue by a wide margin.  The headline
    ``engine_events_per_sec`` is this mix (CI floors it); a future-only
    sub-metric tracks the pure priority-queue path where the zero-delay
    fast path cannot help.
    """
    chain = 7        # zero-delay continuations per future-dated root
    roots = 30_000
    events = roots * (chain + 1)

    def engine_mix():
        sim = Simulator()
        fired = [0]

        def resume(depth):
            fired[0] += 1
            if depth:
                sim.schedule(0.0, resume, depth - 1)

        for index in range(roots):
            sim.schedule(float(index % 64), resume, chain)
        sim.run()
        assert fired[0] == events

    engine = time_ops(engine_mix, ops=events, repeats=3)

    future_events = 100_000

    def run_future():
        sim = Simulator()
        sink = [].append
        for index in range(future_events):
            sim.schedule(float(index % 64), sink, index)
        sim.run()

    future = time_ops(run_future, ops=future_events, repeats=3)

    def run_queue():
        sim = Simulator()
        queue = Queue(sim)
        for index in range(future_events):
            queue.put(index)

        def drain():
            for _ in range(future_events):
                yield queue.get()

        spawn(sim, drain())
        sim.run()

    mailbox = time_ops(run_queue, ops=2 * future_events, repeats=3)
    report.add(f"engine: {engine.ops_per_sec:,.0f} events/s")
    report.add(f"future-only: {future.ops_per_sec:,.0f} events/s")
    report.add(f"queue:  {mailbox.ops_per_sec:,.0f} ops/s")
    record_metrics("sim_kernel", {
        "engine_events_per_sec": engine.ops_per_sec,
        "future_events_per_sec": future.ops_per_sec,
        "queue_ops_per_sec": mailbox.ops_per_sec,
    })
    report.write("perf_sim_kernel")
    # CI additionally holds the absolute number to a floor against the
    # committed baseline (see repro.bench.perf).
    assert engine.ops_per_sec > 200_000
