"""``live_chatroom``: the wall-clock backend under an open-loop load.

The driver assembles ``LiveActorSystem`` + ``build_live_app`` +
``FrontDoor`` + ``LiveElasticityManager`` itself (not through
``repro.live.harness``), plays a seeded Poisson schedule through the
benchmark's own client, and force-migrates the hot room at absolute
offsets, so every migration finds the same traffic around it.

Everything shares one process and one event loop, client included: the
sandbox has two cores and the sim workloads are single-threaded, so this
keeps the five workloads comparable and ``cpu_us_per_op`` honest (it is
all the CPU one request costs, generator included; ``loadgen.self_share``
says how much of it is the generator).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List

from repro.live import (FrontDoor, LiveActorSystem, LiveElasticityManager,
                        LiveEmrConfig, build_live_app)

from .loadgen import OpenLoopClient, chat_schedule
from .sim_workloads import Outcome, make_config
from .trace import percentile

__all__ = ["LiveChatroom"]

_clock = time.perf_counter

#: A request scheduled this long after a migration's start can be held by
#: it (gate + drain + 20 ms transfer + rebind).
STALL_WINDOW_S = 0.030
#: Requests scheduled within this window of a migration's start are not
#: "steady": the stall plus the backlog it leaves behind.
EXCLUDE_WINDOW_S = 0.060
#: The run is invalid if the generator's *median* release is later than
#: this: it would no longer be playing the schedule named here.  The tail
#: cannot be the gate: generator and server share one event loop, and an
#: EMR round blocks that loop for 5-14 ms every 250 ms, which shows up as
#: a 5-20 ms 99th percentile (reported as ``loadgen.late_ms_p99``).
MAX_LATE_MS_P50 = 2.0
#: Lead before the first arrival, so connection set-up is not measured.
START_LEAD_S = 0.05
#: Process CPU per answered request is taken over windows this long and
#: reported as their lower quartile: the sandbox only ever adds time (slow
#: bursts), so the quiet windows are the ones that describe the code.
CPU_WINDOW_S = 0.5


class LiveChatroom:
    name = "live_chatroom"
    op = "HTTP request"
    SCALES = {
        "full": dict(rate_per_s=400.0, migrate_every_s=0.5, boots=5),
        "tiny": dict(rate_per_s=200.0, migrate_every_s=0.25, boots=2),
    }
    SERVERS = 3
    ROOMS = 8
    USERS_PER_ROOM = 8
    EMR_PERIOD_MS = 250.0

    # -- boot / teardown (setup_s) ----------------------------------------

    async def boot(self, seed: int, seconds: float, scale: str,
                   tracer: Any) -> Dict[str, Any]:
        p = self.SCALES[scale]
        system = LiveActorSystem()
        for _ in range(self.SERVERS):
            system.add_server()
        app = build_live_app("chatroom", system, rooms=self.ROOMS,
                             users_per_room=self.USERS_PER_ROOM, seed=seed)
        await app.setup()
        handle = app.handle
        if tracer.active:
            handle = tracer.async_wrapper("live.handle", handle)
        front = FrontDoor(handle)
        await front.start()
        with tracer.span("epl.compile"):
            policy = app.policy()
        manager = LiveElasticityManager(
            system, policy=policy,
            config=make_config(LiveEmrConfig, period_ms=self.EMR_PERIOD_MS))
        manager.start()
        schedule = chat_schedule(seed, p["rate_per_s"], seconds, self.ROOMS)
        client = OpenLoopClient(front.host, front.port, schedule,
                                connections=os.cpu_count() or 1)
        return dict(p, system=system, app=app, front=front, manager=manager,
                    client=client, seconds=seconds)

    async def teardown(self, env: Dict[str, Any]) -> None:
        await env["manager"].stop()
        await env["system"].quiesce(timeout_s=5.0)
        await env["front"].stop()
        await env["system"].shutdown()

    # -- the measured session ------------------------------------------------

    async def play(self, env: Dict[str, Any]) -> None:
        client: OpenLoopClient = env["client"]
        system = env["system"]
        hot = env["app"].rooms[0]
        migrations: List[Dict[str, Any]] = []
        windows: List[float] = []
        env.update(migrations=migrations, cpu_us_windows=windows)
        await client.connect()
        origin = _clock() + START_LEAD_S
        run = asyncio.ensure_future(client.play(origin))

        async def migrate() -> None:
            offset = env["migrate_every_s"]
            while offset < env["seconds"] - STALL_WINDOW_S:
                delay = origin + offset - _clock()
                if delay > 0.0:
                    await asyncio.sleep(delay)
                servers = system.running_servers()
                source = system.server_of(hot)
                target = servers[(servers.index(source) + 1) % len(servers)]
                started = _clock() - origin
                moved = await system.migrate_actor(hot, target, force=True)
                migrations.append({"start_s": started, "moved": moved})
                offset += env["migrate_every_s"]

        async def meter_cpu() -> None:
            cpu, answered = time.process_time(), client.answered
            while not run.done():
                await asyncio.sleep(CPU_WINDOW_S)
                cpu_now, answered_now = time.process_time(), client.answered
                if answered_now > answered:
                    windows.append(1e6 * (cpu_now - cpu)
                                   / (answered_now - answered))
                cpu, answered = cpu_now, answered_now

        side = [asyncio.ensure_future(migrate()),
                asyncio.ensure_future(meter_cpu())]
        try:
            await run
        finally:
            for task in side:
                task.cancel()
            await asyncio.gather(*side, return_exceptions=True)
            await client.close()

    def outcome(self, env: Dict[str, Any]) -> Outcome:
        client: OpenLoopClient = env["client"]
        system = env["system"]
        ledger = env["front"].ledger
        due = [item[0] for item in client.schedule]
        starts = [m["start_s"] for m in env["migrations"] if m["moved"]]
        steady, stalls = [], []
        for start in starts:
            held = [lat for lat in client.latency_ms[
                bisect_left(due, start):
                bisect_right(due, start + STALL_WINDOW_S)]
                if lat is not None]
            if held:
                stalls.append(max(held))
        for index, latency in enumerate(client.latency_ms):
            if latency is None:
                continue
            near = bisect_right(starts, due[index]) - 1
            if near >= 0 and due[index] - starts[near] < EXCLUDE_WINDOW_S:
                continue
            steady.append(latency)
        failed = sum(1 for status in client.status
                     if status is None or not 200 <= status < 300)
        late_p99 = percentile(client.late_ms, 0.99) or 0.0
        outcome = Outcome(
            attempted=len(client.schedule), failed=failed,
            model_ms=None,
            counts={"requests": len(client.schedule),
                    "migrations": len(starts)},
            layer_extra={
                "live.migrations": system.migrations_completed,
                "live.emr_rounds": env["manager"].rounds_run,
                "live.shed": system.messages_shed,
                "live.p99_ms": percentile(steady, 0.99) or 0.0,
                "loadgen.late_ms_p99": late_p99},
            measured={
                "wall_s": client.finished - client.origin,
                "p50_ms": statistics.median(steady) if steady else 0.0,
                "mig_stall_ms": statistics.median(stalls) if stalls else 0.0,
                "cpu_us_per_op": percentile(env["cpu_us_windows"],
                                            0.25) or 0.0,
                "steady_requests": len(steady),
                "stall_samples": len(stalls),
                "cpu_windows": len(env["cpu_us_windows"])})
        if failed:
            outcome.problems.append(f"{failed} request(s) not answered 2xx")
        if not ledger.balanced() or ledger.answered != client.answered:
            outcome.problems.append(
                f"front-door ledger does not balance: {ledger.as_dict()} "
                f"vs {client.answered} answered at the client")
        if system.handler_errors:
            outcome.problems.append(
                f"{system.handler_errors} handler error(s)")
        if len(starts) < 1 or not stalls:
            outcome.problems.append("vacuous: no forced migration completed "
                                    "with traffic around it")
        late_p50 = statistics.median(client.late_ms)
        if late_p50 > MAX_LATE_MS_P50:
            outcome.problems.append(
                f"invalid: load generator ran {late_p50:.2f} ms late "
                f"(median), limit {MAX_LATE_MS_P50} ms")
        return outcome
