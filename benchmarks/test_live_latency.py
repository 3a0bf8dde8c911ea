"""Live-runtime tail latency across a forced migration and a scale-out.

This is the wall-clock counterpart of the Fig. 7/9 simulations: a real
asyncio actor system behind a real HTTP front door, hammered by the
open-loop generator at a fixed Poisson rate while (a) the hot chat room
is force-migrated mid-run and (b) a new server is added and a second
room moved onto it.  The EMR — the same LEM/GEM runtime the simulator
runs — is live throughout, so the run also exercises the full
profile→decide→migrate loop on the wall clock.  A second, directed case
switches the forced moves off and starts imbalanced, so every migration
in it is one the GEM decided from an EPL rule.

Reported: p50/p95/p99 per phase (before / during / after the forced
migration, phased by *scheduled* arrival so there is no coordinated
omission), plus the disposition ledger — which must balance to zero
lost or unaccounted requests across ≥ 10k real HTTP round trips.

Metrics land in BENCH_perf.json as absolute numbers (requests/s, phase
p99s).  They are trajectory data, not gated ratios: wall-clock latency
on shared CI boxes is too noisy to gate, but the series is worth
keeping.
"""

import asyncio
import random

from repro.bench import record_metrics
from repro.core import compile_source
from repro.live import (FrontDoor, LiveActorSystem, LiveChatRoom,
                        LiveChatUser, LiveElasticityManager, LiveEmrConfig,
                        LoadGenerator, build_live_app, live_loadtest,
                        poisson_arrivals)

RATE_PER_S = 2_600.0
DURATION_S = 4.5
MIGRATE_AT_S = 1.5
DURING_S = 1.0
SCALE_OUT_AT_S = 3.0
MIN_REQUESTS = 10_000


def test_live_latency_across_migration(report):
    result = live_loadtest(
        app_name="chatroom",
        rate_per_s=RATE_PER_S,
        duration_s=DURATION_S,
        servers=2,
        migrate_at_s=MIGRATE_AT_S,
        during_s=DURING_S,
        scale_out_at_s=SCALE_OUT_AT_S,
        emr=True,
        period_ms=250.0,
        connections=48,
        timeout_s=30.0,
        seed=42,
    )

    requests = result["requests"]
    phases = requests["phases"]
    ledger = result["ledger"]
    runtime = result["runtime"]

    report.add(f"live chatroom @ {RATE_PER_S:,.0f} req/s for "
               f"{DURATION_S}s  (forced migration at {MIGRATE_AT_S}s, "
               f"scale-out at {SCALE_OUT_AT_S}s)")
    report.add(f"sent {requests['sent']:,} requests, "
               f"{requests['rps']:,.0f} req/s achieved")
    for phase in sorted(phases):
        s = phases[phase]
        report.add(f"  {phase:9s} n={s['count']:6,}  "
                   f"p50={s['p50']:.2f}ms  p95={s['p95']:.2f}ms  "
                   f"p99={s['p99']:.2f}ms  max={s['max_ms']:.2f}ms")
    report.add(f"ledger: {ledger}")
    report.add(f"forced migrations: {result['migrations']['forced']}")
    report.add(f"scale-out: {result['migrations'].get('scale_out')}")
    report.add(f"emr rounds={result['emr']['rounds_run']}, "
               f"emr migrations={result['emr']['migrations_started']}")
    report.write("live_latency")

    # ≥ 10k real requests actually went through the HTTP stack.
    assert requests["sent"] >= MIN_REQUESTS
    assert requests["ok"] > 0

    # Conservation: both books balance — nothing lost, nothing
    # unaccounted, on either side of the socket.
    assert result["ledger_balanced"], ledger
    assert result["client_balanced"], requests
    assert ledger["issued"] == requests["sent"]
    assert requests["transport_errors"] == 0, requests
    assert requests["timeouts"] == 0, requests
    assert runtime["handler_errors"] == 0

    # The forced migration and the scale-out both actually happened.
    forced = result["migrations"]["forced"]
    assert len(forced) == 2 and all(m["moved"] for m in forced)
    assert "scale_out" in result["migrations"]
    assert runtime["migrations_completed"] >= 2

    # Every phase produced a full latency distribution.
    assert set(phases) == {"1-before", "2-during", "3-after"}
    for s in phases.values():
        assert s["count"] > 0 and s["p99"] is not None
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max_ms"]

    # The EMR observed the run (profiling hooks live on the wall clock).
    assert result["emr"]["rounds_run"] > 0

    record_metrics("live_latency", {
        "requests_per_sec": requests["rps"],
        "p50_before_ms": phases["1-before"]["p50"],
        "p99_before_ms": phases["1-before"]["p99"],
        "p99_during_ms": phases["2-during"]["p99"],
        "p99_after_ms": phases["3-after"]["p99"],
        "migration_wall_ms": max(m["wall_ms"] for m in forced),
    })


# -- directed: nothing forced, the EMR has to do the work -------------------

#: Far below the committed policy's 75 %: a packed server must count as
#: overloaded at a request rate the sandbox can sustain.
DIRECTED_POLICY = "server.cpu.perc > 10 => balance({LiveChatRoom}, cpu);"
DIRECTED_RATE_PER_S = 1_200.0
DIRECTED_DURATION_S = 3.0
ROOMS = 8


async def _emr_decided_run():
    system = LiveActorSystem()
    system.add_server()
    app = build_live_app("chatroom", system, rooms=ROOMS, users_per_room=8,
                         seed=7)
    await app.setup()  # imbalanced start: every actor on the one server
    for _ in range(2):
        system.add_server()
    front = FrontDoor(app.handle)
    await front.start()
    manager = LiveElasticityManager(
        system, policy=compile_source(DIRECTED_POLICY,
                                      [LiveChatRoom, LiveChatUser]),
        config=LiveEmrConfig(period_ms=250.0))
    manager.start()
    arrivals = poisson_arrivals(DIRECTED_RATE_PER_S, DIRECTED_DURATION_S,
                                random.Random(7))
    generator = LoadGenerator(
        front.host, front.port, arrivals,
        lambda index, rng: ("POST", f"/chat/{rng.randrange(ROOMS)}/post",
                            b'{"msg": "hi"}'),
        connections=32, timeout_s=30.0, seed=8)
    try:
        requests = await generator.run()
        await manager.stop()
    finally:
        await system.quiesce(timeout_s=5.0)
        await front.stop()
        await system.shutdown()
    return system, app, front, manager, requests


def test_live_emr_decides_migrations(report):
    system, app, front, manager, requests = asyncio.run(_emr_decided_run())
    log = manager.migration_log
    rooms = [len([ref for ref in app.rooms
                  if system.server_of(ref) is server])
             for server in system.servers]

    report.add(f"live chatroom @ {DIRECTED_RATE_PER_S:,.0f} req/s for "
               f"{DIRECTED_DURATION_S}s, all {ROOMS} rooms packed on one "
               f"of 3 servers, nothing forced")
    report.add(f"policy: {DIRECTED_POLICY}")
    report.add(f"sent {requests.sent:,} requests, {requests.ok:,} ok")
    report.add(f"ledger: {front.ledger.as_dict()}")
    report.add(f"emr rounds={manager.rounds_run}, "
               f"gem rounds={manager.emr.gems[0].rounds_processed}, "
               f"emr-decided migrations={len(log)} "
               f"(completed {system.migrations_completed})")
    for event in log:
        report.add(f"  {event.time_ms:8.1f}ms  {event.kind} {event.actor}  "
                   f"{event.src} -> {event.dst}  (rule line "
                   f"{event.rule_line})")
    report.add(f"rooms per server at the end: {rooms}")
    report.write("live_emr_decided")

    assert log and all(event.kind == "balance" and event.rule_line == 1
                       for event in log)
    assert system.migrations_completed == len(log)  # none forced
    assert min(rooms) >= 1
    assert front.ledger.balanced() and requests.balanced()
    assert front.ledger.issued == requests.sent == requests.ok
    assert system.handler_errors == 0
