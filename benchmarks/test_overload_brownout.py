"""Overload protection under an event storm — shed, brown out, recover.

Not a paper figure: this exercises the overload-protection layer added
on top of the reproduction.  An :class:`EventStorm` floods one server
with junk client calls at ~20x its CPU capacity.  The data plane sheds
the excess at bounded mailboxes (every drop accounted in the
disposition ledger), the control plane browns the server out (stretched
reporting, truncated REPORTs), the failure detector recognises the
silence as *drowning* rather than death, and when the storm passes the
server exits brownout with its actors exactly where they were — no
false resurrection, no actor loss.
"""

from repro.actors import Actor, Client
from repro.bench import build_cluster, format_table
from repro.chaos import ChaosEngine, EventStorm, FaultPlan
from repro.cluster import AvailabilityMeter
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.overload import DISPOSITIONS, OverloadConfig
from repro.sim import Timeout, spawn

STORM_AT_MS = 5_000.0
STORM_MS = 10_000.0
LOAD_UNTIL_MS = 25_000.0
RUN_MS = 30_000.0
CAPACITY = 16


class Keyed(Actor):
    def get(self, key):
        yield self.compute(2.0)
        return key


def test_storm_is_shed_browned_out_and_survived(report):
    bed = build_cluster(3, "m1.small", seed=5)
    refs = []
    for index in range(8):
        server = bed.servers[0 if index < 4 else 1 + index % 2]
        refs.append(bed.system.create_actor(Keyed, server=server))

    policy = compile_source(
        "server.mem.perc > 95 => balance({Keyed}, mem);", [Keyed])
    overload = OverloadConfig(
        mailbox_capacity=CAPACITY, policy="shed",
        brownout_enter_cpu_perc=60.0, brownout_exit_cpu_perc=20.0,
        brownout_enter_rounds=1, brownout_exit_rounds=2,
        brownout_stretch=3, brownout_top_k=2,
        stale_snapshot_ms=15_000.0)
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=1_000.0, gem_wait_ms=100.0,
        suspicion_timeout_ms=2_500.0, overload=overload))
    events = []
    manager.add_listener(lambda kind, detail:
                         events.append((bed.sim.now, kind, dict(detail))))
    manager.start()
    omanager = manager.overload

    # Background service traffic across the whole fleet: availability is
    # measured from the clients' point of view (one client per actor).
    meter = AvailabilityMeter(bed.sim, window_ms=1_000.0)
    clients = [Client(bed.system, name=f"svc{i}", timeout_ms=1_000.0,
                      max_retries=2, backoff_base_ms=100.0,
                      backoff_cap_ms=1_000.0, meter=meter)
               for i in range(len(refs))]

    def loop(client, ref):
        while bed.sim.now < LOAD_UNTIL_MS:
            yield from client.reliable_call(ref, "get", 1)
            yield Timeout(bed.sim, 200.0)

    for client, ref in zip(clients, refs):
        spawn(bed.sim, loop(client, ref))

    ChaosEngine(bed.system, FaultPlan(faults=(
        EventStorm(at_ms=STORM_AT_MS, duration_ms=STORM_MS,
                   rate_per_ms=1.0, cpu_ms=20.0, size_bytes=256.0,
                   server_index=0),)), manager=manager).start()

    bed.run(until_ms=RUN_MS)

    hot = bed.servers[0].name
    kinds = [(kind, detail) for _t, kind, detail in events]

    def names(kind):
        return [d.get("server") for k, d in kinds if k == kind]

    # -- data plane: bounded growth, every drop accounted ---------------
    assert omanager.peak_mailbox_depth <= CAPACITY
    assert omanager.total_shed() > 0
    balance = omanager.ledger.as_dict()
    assert balance["outstanding"] == 0
    assert balance["issued"] == sum(balance[kind]
                                    for kind in DISPOSITIONS)
    assert omanager.ledger.double_dispositions == []

    # -- control plane: brownout bracketed the storm --------------------
    assert hot in names("brownout-entered")
    assert hot in names("brownout-exited")
    entered_at = next(t for t, k, d in events
                      if k == "brownout-entered" and d["server"] == hot)
    exited_at = next(t for t, k, d in events
                     if k == "brownout-exited" and d["server"] == hot)
    assert STORM_AT_MS < entered_at < STORM_AT_MS + STORM_MS
    assert exited_at > STORM_AT_MS + STORM_MS
    assert any(d["server"] == hot
               for k, d in kinds if k == "report-truncated")

    # -- failure detection: drowning, never falsely dead ----------------
    assert hot in names("server-drowning")
    assert hot not in names("server-suspected")
    assert not any(k == "actor-lost" for k, _d in kinds)
    for ref in refs[:4]:
        record = bed.system.directory.try_lookup(ref.actor_id)
        assert record is not None and record.server is bed.servers[0]

    # -- availability: degraded during the storm, restored after --------
    during = meter.availability_between(STORM_AT_MS,
                                        STORM_AT_MS + STORM_MS)
    # The bounded backlog (16 msgs x 40ms real CPU x 4 actors on one
    # core) takes ~3s to drain; measure recovery after that.
    after = meter.availability_between(STORM_AT_MS + STORM_MS + 4_000.0,
                                       LOAD_UNTIL_MS)
    assert after > max(during, 0.95)
    assert sum(meter.totals.values()) \
        == sum(client.attempts for client in clients)

    rows = [["storm window", f"{STORM_AT_MS / 1000:.0f}-"
             f"{(STORM_AT_MS + STORM_MS) / 1000:.0f}s "
             f"@ 1 call/ms x 20ms CPU"],
            ["messages shed", omanager.total_shed()],
            ["peak mailbox depth", f"{omanager.peak_mailbox_depth} "
             f"(bound {CAPACITY})"],
            ["brownout episode", f"{entered_at / 1000:.1f}s - "
             f"{exited_at / 1000:.1f}s"],
            ["drowning announcements", names("server-drowning").count(hot)],
            ["false suspicions", names("server-suspected").count(hot)],
            ["availability during storm", f"{during:.3f}"],
            ["availability after storm", f"{after:.3f}"]]
    report.add(format_table(
        ["metric", "value"], rows,
        title="Overload & brownout — event storm on one m1.small"))
    report.write("overload_brownout")
