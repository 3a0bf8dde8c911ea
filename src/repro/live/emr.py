"""Live elasticity manager: the EMR control loop on a wall clock.

This is deliberately a *small* EMR — one periodic asyncio task playing
the roles of LEM and GEM for a single-process fleet — but it is built
from the same parts as the simulated control plane:

* the **profiling runtime** is literally
  :class:`repro.core.profiling.ProfilingRuntime` (the EPR), subscribed
  through ``system.backend.add_hooks`` and fed by the live runtime's
  hook calls;
* **policies** are compiled EPL (:func:`repro.core.compile_source`):
  ``pin`` actor rules are evaluated with the shared snapshot-based
  :func:`~repro.core.emr.evaluate.evaluate_rule`, and ``balance``
  resource rules supply the (lower, upper) CPU bounds through the
  shared :func:`~repro.core.emr.evaluate.extract_bounds`;
* **actuation** goes exclusively through the
  :class:`~repro.runtime.RuntimeBackend` surface (``actors_on``,
  ``mailbox_depth``, ``pin``, ``migrate_actor``), so this manager never
  reaches into live-runtime internals.

Balancing is the paper's greedy shape: when some server exceeds the
upper bound while another sits below the lower bound, move the hottest
movable actor from the hottest server to the coldest; when *every*
server is hot, scale out by adding a server first.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.emr.evaluate import EvaluationScope, evaluate_rule, extract_bounds
from ..core.epl.ast import Balance, Pin
from ..core.epl.compiler import CompiledPolicy
from ..core.profiling import ProfilingRuntime
from .system import LiveActorSystem

__all__ = ["LiveEmrConfig", "LiveElasticityManager"]


@dataclass
class LiveEmrConfig:
    """Knobs for the live control loop (all times wall-clock ms)."""

    period_ms: float = 250.0
    window_ms: float = 2_000.0
    #: Fallback CPU bounds when the policy has no balance rule.
    lower_cpu_perc: float = 30.0
    upper_cpu_perc: float = 75.0
    #: An actor placed more recently than this is not moved again.
    stability_window_ms: float = 1_000.0
    #: Scale out (add a server) when every running server is hot.
    scale_out: bool = True
    max_servers: int = 8


@dataclass
class LiveEmrEvent:
    """One control decision, for observability and tests."""

    at_ms: float
    kind: str  # "migrate" | "scale-out" | "pin"
    detail: Dict[str, Any] = field(default_factory=dict)


class LiveElasticityManager:
    """Periodic elasticity control for a :class:`LiveActorSystem`."""

    def __init__(self, system: LiveActorSystem,
                 policy: Optional[CompiledPolicy] = None,
                 config: Optional[LiveEmrConfig] = None) -> None:
        self.system = system
        self.backend = system.backend
        self.policy = policy
        self.config = config or LiveEmrConfig()
        self.profiler = ProfilingRuntime(
            system.clock, window_ms=self.config.window_ms)
        self.running = False
        self.rounds_run = 0
        self.migrations_started = 0
        self.events: List[LiveEmrEvent] = []
        self._task: Optional[asyncio.Task] = None
        self._migration_tasks: List[asyncio.Task] = []

        lower = self.config.lower_cpu_perc
        upper = self.config.upper_cpu_perc
        self._balance_types: Optional[frozenset] = None
        if policy is not None:
            for rule in policy.resource_rules:
                for behavior in rule.behaviors:
                    if isinstance(behavior, Balance):
                        lower, upper = extract_bounds(
                            rule, behavior.resource,
                            default_lower=lower, default_upper=upper)
                        self._balance_types = frozenset(behavior.actor_types)
        self.lower_cpu = lower
        self.upper_cpu = upper

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.backend.add_hooks(self.profiler)
        self._task = self.backend.spawn(self._run(), name="live-emr")

    async def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for task in self._migration_tasks:
            if not task.done():
                await task
        if self.profiler in self.system.hooks:
            self.backend.remove_hooks(self.profiler)

    async def _run(self) -> None:
        while self.running:
            await asyncio.sleep(self.config.period_ms / 1000.0)
            try:
                self.run_round()
            except Exception:  # control loop must not die silently
                self.running = False
                raise

    # -- one control round ---------------------------------------------

    def run_round(self) -> None:
        """Snapshot the fleet, apply pin rules, then balance."""
        self.rounds_run += 1
        now = self.backend.now
        fleet = []
        all_actor_snaps = []
        for server in self.system.running_servers():
            records = self.backend.actors_on(server)
            actor_snaps = self.profiler.snapshot_actors(records)
            server_snap = self.profiler.snapshot_server(server, records)
            server_snap.mailbox_backlog = sum(
                self.backend.mailbox_depth(record.ref.actor_id)
                for record in records)
            fleet.append((server, server_snap, actor_snaps))
            all_actor_snaps.extend(actor_snaps)

        self._apply_pin_rules(fleet)
        self._balance(fleet, now)

    def _apply_pin_rules(self, fleet) -> None:
        if self.policy is None:
            return
        resolver = self._resolve_ref(fleet)
        for _server, server_snap, actor_snaps in fleet:
            scope = EvaluationScope(servers=[server_snap],
                                    actors=actor_snaps,
                                    resolve_ref=resolver)
            for rule in self.policy.actor_rules:
                pins = [b for b in rule.behaviors if isinstance(b, Pin)]
                if not pins:
                    continue
                for match in evaluate_rule(rule, scope):
                    for behavior in pins:
                        snap = match.bindings.get(behavior.target.var)
                        if snap is None or snap.pinned:
                            continue
                        self.backend.pin(snap.ref, True)
                        snap.pinned = True
                        self.events.append(LiveEmrEvent(
                            self.backend.now, "pin",
                            {"actor": snap.actor_id}))

    @staticmethod
    def _resolve_ref(fleet):
        by_id = {}
        for _server, _server_snap, actor_snaps in fleet:
            for snap in actor_snaps:
                by_id[snap.actor_id] = snap

        def resolve(ref):
            return by_id.get(ref.actor_id)
        return resolve

    def _balance(self, fleet, now: float) -> None:
        if len(fleet) == 0:
            return
        fleet = sorted(fleet, key=lambda item: item[1].cpu_perc)
        coldest_server, coldest_snap, _ = fleet[0]
        hottest_server, hottest_snap, hottest_actors = fleet[-1]
        if hottest_snap.cpu_perc <= self.upper_cpu:
            return

        if coldest_snap.cpu_perc >= self.lower_cpu:
            # Nobody has headroom: scale out, then move onto the new
            # server next round (its meters need a beat of uptime).
            if (self.config.scale_out
                    and len(self.system.servers) < self.config.max_servers):
                server = self.system.add_server()
                self.events.append(LiveEmrEvent(
                    now, "scale-out", {"server": server.name}))
            return

        candidates = [
            snap for snap in hottest_actors
            if not snap.pinned and not snap.migrating
            and now - snap.last_placed_at >= self.config.stability_window_ms
            and (self._balance_types is None
                 or snap.type_name in self._balance_types)]
        if not candidates:
            return
        mover = max(candidates, key=lambda snap: snap.cpu_perc)
        task = self.backend.migrate_actor(mover.ref, coldest_server)
        self._migration_tasks.append(task)
        self.migrations_started += 1
        self.events.append(LiveEmrEvent(
            now, "migrate",
            {"actor": mover.actor_id, "src": hottest_server.name,
             "dst": coldest_server.name, "cpu_perc": mover.cpu_perc}))
