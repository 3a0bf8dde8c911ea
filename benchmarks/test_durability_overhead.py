"""Durability overhead and recovery — checkpointing's cost and payoff.

Not a paper figure: the durable-state subsystem is an extension on top
of the reproduction (the paper's §2.2 leaves state fault tolerance to
the host language runtime).  Two experiments, in the style the paper
uses for EPR overhead (Table 3) and E-Store recovery (Fig. 9):

1. the steady-state cost of checkpointing as a function of the
   checkpoint interval — client latency, throughput, and replication
   traffic, against a durability-off baseline;
2. an E-Store run through a mid-run server crash: recovery time, and
   the state-loss window — no acknowledged state older than one
   checkpoint interval may be lost.
"""

import statistics

from repro.actors import Actor, Client
from repro.apps.estore import ESTORE_POLICY, Partition, build_estore
from repro.bench import build_cluster, format_table
from repro.chaos import ChaosEngine, CrashServer, FaultPlan
from repro.cluster import AvailabilityMeter
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.tracing import ElasticityTracer
from repro.durability import DurabilityConfig
from repro.sim import Timeout, spawn

EMR = dict(period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0)


class Account(Actor):
    """A stateful worker with a non-trivial snapshot (1 MB)."""

    state_size_mb = 1.0

    def __init__(self):
        self.balance = 0

    def deposit(self, amount):
        yield self.compute(0.5)
        self.balance += amount
        return self.balance


ACCOUNT_POLICY = ("server.cpu.perc > 80 or server.cpu.perc < 60 "
                  "=> balance({Account}, cpu);")


# ----------------------------------------------------------------------
# 1. steady-state overhead vs checkpoint interval (Table-3 style)
# ----------------------------------------------------------------------


def run_steady_state(interval_ms, duration_ms=60_000.0):
    """8 accounts under closed-loop load; returns (completed requests,
    mean latency ms, durability totals)."""
    bed = build_cluster(3, "m5.large", seed=11)
    durability = None
    if interval_ms is not None:
        durability = DurabilityConfig(
            checkpoint_interval_ms=interval_ms, replication_factor=2)
    manager = ElasticityManager(
        bed.system, compile_source(ACCOUNT_POLICY, [Account]),
        EmrConfig(durability=durability, **EMR))
    manager.start()
    refs = [bed.system.create_actor(Account, server=bed.servers[i % 3])
            for i in range(8)]
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < duration_ms:
            yield from client.timed_call(ref, "deposit", 1)
            yield Timeout(bed.sim, 5.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=duration_ms)

    latencies = [lat for _t, lat in client.latencies.samples]
    totals = (manager.durability.summary()["totals"]
              if manager.durability is not None else {})
    return len(latencies), statistics.fmean(latencies), totals


def test_checkpoint_overhead_vs_interval(report):
    intervals = [None, 20_000.0, 10_000.0, 5_000.0, 2_000.0]
    rows = []
    results = {}
    for interval in intervals:
        completed, mean_lat, totals = run_steady_state(interval)
        results[interval] = (completed, mean_lat, totals)
    base_completed, base_lat, _ = results[None]
    for interval in intervals:
        completed, mean_lat, totals = results[interval]
        rows.append([
            "off" if interval is None else f"{interval / 1000:.0f} s",
            completed,
            f"{mean_lat:.3f}",
            f"{100 * (mean_lat / base_lat - 1):+.2f}%",
            totals.get("checkpoints_written", 0),
            totals.get("checkpoints_acked", 0),
            f"{totals.get('bytes_replicated', 0) / 2 ** 20:.0f}",
        ])

    report.add(format_table(
        ["interval", "requests", "mean lat (ms)", "lat overhead",
         "ckpt written", "ckpt acked", "MiB replicated"],
        rows,
        title="Durability overhead — 8×1 MB actors, 60 s, "
              "replication factor 2"))

    # Replication traffic scales with checkpoint frequency...
    replicated = [results[i][2].get("bytes_replicated", 0)
                  for i in intervals[1:]]
    assert replicated == sorted(replicated)
    assert results[2_000.0][2]["checkpoints_written"] > \
        results[20_000.0][2]["checkpoints_written"]
    # ...while the client-visible cost stays marginal (the paper's
    # sub-percent EPR overhead is the benchmark to beat; allow a little
    # more here since each write burns serialize CPU and NIC time).
    for interval in intervals[1:]:
        completed, mean_lat, _ = results[interval]
        assert mean_lat <= base_lat * 1.05
        assert completed >= base_completed * 0.95
    # Steady state without faults: every write is eventually acked.
    totals = results[2_000.0][2]
    assert totals["checkpoints_lost"] == 0
    assert totals["checkpoints_acked"] >= totals["checkpoints_written"] - 8
    report.write("durability_overhead")


# ----------------------------------------------------------------------
# 2. E-Store through a mid-run crash: recovery time + state-loss window
# ----------------------------------------------------------------------

CRASH_AT_MS = 12_000.0
CHECKPOINT_INTERVAL_MS = 2_000.0


def test_estore_recovery_preserves_acknowledged_state(report):
    bed = build_cluster(4, "m1.small", seed=13)
    setup = build_estore(bed, num_roots=12, children_per_root=2)

    manager = ElasticityManager(
        bed.system, compile_source(ESTORE_POLICY, [Partition]),
        EmrConfig(suspicion_timeout_ms=6_000.0,
                  durability=DurabilityConfig(
                      checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS),
                  **EMR))
    manager.start()
    tracer = ElasticityTracer(manager)
    tracer.attach()

    # Capture each partition's read counter the instant it is restored,
    # to compare against the pre-crash timeline sampled below.
    restored_reads = {}

    def on_event(kind, detail):
        if kind == "state-restored":
            record = bed.system.directory.lookup(detail["actor_id"])
            restored_reads[detail["actor_id"]] = \
                (detail["age_ms"], record.instance.reads)

    manager.add_listener(on_event)

    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        CrashServer(at_ms=CRASH_AT_MS, server_index=2),)), manager=manager)
    engine.start()

    meter = AvailabilityMeter(bed.sim, window_ms=5_000.0)
    clients = [Client(bed.system, name=f"c{i}", timeout_ms=2_000.0,
                      max_retries=6, backoff_base_ms=200.0,
                      backoff_cap_ms=1_600.0, meter=meter)
               for i in range(10)]
    rng = bed.streams.stream("estore-key-pick")

    def client_loop(client):
        while bed.sim.now < 40_000.0:
            root = setup.picker.pick()
            yield from client.reliable_call(root, "read",
                                            rng.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for client in clients:
        spawn(bed.sim, client_loop(client))

    # Sample every partition's applied-read count on a fine grid: the
    # acknowledged-state floor for each restore is read off this
    # timeline at (crash - checkpoint interval).
    samples = []
    all_refs = [ref for root, kids in zip(setup.roots, setup.children)
                for ref in [root] + kids]

    def monitor():
        while bed.sim.now < CRASH_AT_MS:
            row = {}
            for ref in all_refs:
                record = bed.system.directory.try_lookup(ref.actor_id)
                if record is not None:
                    row[ref.actor_id] = record.instance.reads
            samples.append((bed.sim.now, row))
            yield Timeout(bed.sim, 250.0)

    spawn(bed.sim, monitor(), name="reads-monitor")
    bed.run(until_ms=40_000.0)

    [crashed] = tracer.of_kind("server-crashed")
    lost = crashed.detail["lost_actors"]
    assert lost >= 1
    assert len(tracer.of_kind("actor-resurrected")) == lost
    # Every lost partition had an acknowledged checkpoint to come back
    # from (the baseline write at start() guarantees at least one).
    assert len(restored_reads) == lost
    assert manager.durability.restore_misses == 0

    # The acceptance bar: nothing acknowledged before
    # (crash - checkpoint interval) may be lost.  The newest sample at
    # or before that floor is a lower bound on what the restored state
    # must still contain.
    floor_time = CRASH_AT_MS - CHECKPOINT_INTERVAL_MS
    floor = {}
    for t, row in samples:               # newest sample at/before floor
        if t <= floor_time:
            floor = row
    last = samples[-1][1]                # newest pre-crash sample
    loss_rows = []
    for actor_id, (age_ms, reads_after) in sorted(restored_reads.items()):
        reads_floor = floor.get(actor_id, 0)
        reads_last = last.get(actor_id, 0)
        assert reads_after >= reads_floor, (
            f"actor {actor_id}: restored {reads_after} reads but "
            f"{reads_floor} were applied {CHECKPOINT_INTERVAL_MS} ms "
            f"before the crash")
        loss_rows.append([actor_id, reads_last, reads_after,
                          reads_last - reads_after, f"{age_ms:.0f}"])

    # Availability recovered fully after the outage.
    assert meter.availability_between(CRASH_AT_MS, CRASH_AT_MS + 6_000.0) \
        < 1.0
    assert meter.availability_between(25_000.0, 40_000.0) == 1.0
    for root, kids in zip(setup.roots, setup.children):
        for ref in [root] + kids:
            record = bed.system.directory.try_lookup(ref.actor_id)
            assert record is not None and record.server.running

    totals = manager.durability.summary()["totals"]
    report.add(format_table(
        ["partition", "reads @ crash", "reads restored", "lost",
         "checkpoint age (ms)"],
        loss_rows,
        title="E-Store mid-run crash — per-partition state-loss window "
              f"(crash @ {CRASH_AT_MS:.0f} ms, checkpoint interval "
              f"{CHECKPOINT_INTERVAL_MS:.0f} ms)"))
    report.add(f"partitions lost/restored: {lost}/{len(restored_reads)}, "
               f"restore misses: {totals['restore_misses']}")
    report.add(f"checkpoints written/acked/lost: "
               f"{totals['checkpoints_written']}/"
               f"{totals['checkpoints_acked']}/"
               f"{totals['checkpoints_lost']}, "
               f"replicated: {totals['bytes_replicated'] / 2 ** 20:.0f} MiB")
    report.add(f"availability during fault: "
               f"{100 * meter.availability_between(CRASH_AT_MS, CRASH_AT_MS + 6_000.0):.1f}%, "
               f"after recovery: "
               f"{100 * meter.availability_between(25_000.0, 40_000.0):.1f}%")
    report.write("durability_recovery_estore")
