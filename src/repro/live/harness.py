"""One-call live load test: boot app + front door + EMR, hammer, report.

Used by ``repro.cli loadtest`` (and the ``live-smoke`` CI job) and by
``benchmarks/test_live_latency.py`` so the two measure exactly the same
thing.  The run is phase-split around a *forced* migration: requests
scheduled before it report as ``1-before``, requests scheduled within
``during_s`` of it as ``2-during``, the rest as ``3-after`` — giving
p50/p95/p99 columns that show what a live migration costs the tail.

Everything runs in one process and one event loop (servers here are
placement domains, not machines), which is precisely what makes the
disposition ledger checkable: the front door accounts every request it
accepted, the load generator accounts every request it sent, and the
two books must balance to zero lost/unaccounted requests.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional

from .apps import build_live_app
from .emr import LiveElasticityManager, LiveEmrConfig
from .frontdoor import FrontDoor
from .loadgen import LoadGenerator, flash_crowd_arrivals, poisson_arrivals
from .system import LiveActorSystem

__all__ = ["run_live_loadtest", "live_loadtest"]


def _request_factory(app_name: str, app, rng_hot: float = 0.5):
    """Skewed request mix: half the traffic hits entity 0 (the hot one),
    the rest spreads uniformly — gives the EMR a real imbalance."""
    if app_name == "chatroom":
        count = len(app.rooms)

        def build(index: int, rng: random.Random):
            room = 0 if rng.random() < rng_hot else rng.randrange(count)
            if index % 50 == 49:  # occasional read in the mix
                return "GET", f"/chat/{room}/stats", b""
            return "POST", f"/chat/{room}/post", b'{"msg": "hi"}'
        return build

    count = len(app.folders)

    def build(index: int, rng: random.Random):
        folder = 0 if rng.random() < rng_hot else rng.randrange(count)
        if index % 50 == 49:
            return "GET", f"/meta/{folder}/stats", b""
        return "POST", f"/meta/{folder}/open", b""
    return build


async def run_live_loadtest(app_name: str = "chatroom",
                            rate_per_s: float = 2_000.0,
                            duration_s: float = 4.0,
                            servers: int = 2,
                            migrate_at_s: Optional[float] = None,
                            scale_out_at_s: Optional[float] = None,
                            during_s: float = 1.0,
                            emr: bool = True,
                            period_ms: float = 250.0,
                            mailbox_capacity: Optional[int] = None,
                            connections: int = 32,
                            flash_crowd: bool = False,
                            timeout_s: float = 30.0,
                            seed: int = 42,
                            app_kwargs: Optional[Dict[str, Any]] = None,
                            ) -> Dict[str, Any]:
    """Boot a live app behind the front door, load it, return the books.

    ``migrate_at_s`` forces a migration of the hot entity's actor to the
    least-loaded other server at that offset; ``scale_out_at_s`` adds a
    server and force-migrates the second entity onto it.  Both are
    *forced* (they bypass the EMR) so the phase split is deterministic
    even with the EMR disabled.
    """
    system = LiveActorSystem(mailbox_capacity=mailbox_capacity)
    for _ in range(max(1, servers)):
        system.add_server()
    app = build_live_app(app_name, system, **(app_kwargs or {}))
    await app.setup()

    front = FrontDoor(app.handle)
    await front.start()

    manager = None
    if emr:
        manager = LiveElasticityManager(
            system, policy=app.policy(),
            config=LiveEmrConfig(period_ms=period_ms))
        manager.start()

    rng = random.Random(seed)
    arrivals = poisson_arrivals(rate_per_s, duration_s, rng)
    if flash_crowd:
        arrivals += flash_crowd_arrivals(
            int(rate_per_s * 0.5), duration_s * 0.5, 0.25, rng)
        arrivals.sort()

    def phase_of(at_s: float) -> str:
        if migrate_at_s is None:
            return "all"
        if at_s < migrate_at_s:
            return "1-before"
        if at_s < migrate_at_s + during_s:
            return "2-during"
        return "3-after"

    migrations: Dict[str, Any] = {"forced": []}

    async def force_migration(at_s: float, entity_index: int) -> None:
        await asyncio.sleep(at_s)
        refs = app.rooms if app_name == "chatroom" else app.folders
        ref = refs[entity_index % len(refs)]
        source = system.server_of(ref)
        others = [s for s in system.running_servers() if s is not source]
        if not others:
            others = [system.add_server()]
        target = min(others, key=lambda s: (system.directory.count_on(s),
                                            s.server_id))
        started = system.clock.now
        moved = await system.migrate_actor(ref, target, force=True)
        migrations["forced"].append({
            "entity": entity_index, "actor": ref.actor_id,
            "from": source.name, "to": target.name, "moved": moved,
            "at_ms": started,
            "wall_ms": round(system.last_migration_wall_ms, 3)})

    async def force_scale_out(at_s: float) -> None:
        await asyncio.sleep(at_s)
        server = system.add_server()
        migrations["scale_out"] = {"server": server.name,
                                   "at_ms": system.clock.now}
        await force_migration(0.0, 1)

    side_tasks = []
    if migrate_at_s is not None:
        side_tasks.append(asyncio.ensure_future(
            force_migration(migrate_at_s, 0)))
    if scale_out_at_s is not None:
        side_tasks.append(asyncio.ensure_future(
            force_scale_out(scale_out_at_s)))

    generator = LoadGenerator(
        front.host, front.port, arrivals,
        _request_factory(app_name, app),
        phase_of=phase_of, connections=connections,
        timeout_s=timeout_s, seed=seed + 1)
    report = await generator.run()

    if side_tasks:
        await asyncio.gather(*side_tasks)
    try:
        if manager is not None:
            await manager.stop()  # raises what a control callback raised
    finally:
        await system.quiesce(timeout_s=5.0)
        await front.stop()
        await system.shutdown()

    result: Dict[str, Any] = {
        "app": app_name,
        "requests": report.as_dict(),
        "ledger": front.ledger.as_dict(),
        "ledger_balanced": front.ledger.balanced(),
        "client_balanced": report.balanced(),
        "server_latency": front.recorder.summary(),
        "migrations": migrations,
        "runtime": {
            "messages_delivered": system.messages_delivered,
            "messages_shed": system.messages_shed,
            "handler_errors": system.handler_errors,
            "migrations_completed": system.migrations_completed,
            "migrations_refused": system.migrations_refused,
            "servers": [
                {"name": s.name, "running": s.running,
                 "actors": system.directory.count_on(s),
                 "cpu_perc": round(s.cpu_percent(2_000.0), 2),
                 "mem_mb": round(s.memory_used_mb, 2)}
                for s in system.servers],
        },
    }
    if manager is not None:
        result["emr"] = {
            "rounds_run": manager.rounds_run,
            "migrations_started": manager.migrations_started,
            "migration_log": [
                {"at_ms": round(e.time_ms, 1), "actor": e.actor.actor_id,
                 "kind": e.kind, "src": e.src, "dst": e.dst,
                 "rule_line": e.rule_line}
                for e in manager.migration_log],
        }
    return result


def live_loadtest(**kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper: ``asyncio.run`` the loadtest."""
    return asyncio.run(run_live_loadtest(**kwargs))
