"""The chaos engine: executes a :class:`FaultPlan` against a live system.

The engine is a simulation process.  It walks the plan in time order,
injects each fault through the public runtime surfaces (``crash_server``,
``GEM.fail``, ``RootGem.fail``, ``NetworkFabric.degrade``,
``NetworkFabric.partition``, ``Server.set_speed_factor``,
``ActorSystem.client_call`` for load storms) and
schedules the matching heal when the fault declares one.  Every injection
and heal is appended to :attr:`ChaosEngine.log` and — when an elasticity
manager is attached — emitted on its event bus as ``fault-injected`` /
``fault-healed`` events, so a tracer timeline interleaves faults with the
runtime's reactions to them.

Determinism: message-drop decisions draw from a dedicated named random
stream (``chaos-drops`` by default), so attaching the engine never
perturbs the placement or shuffling streams, and the same seed plus the
same plan replays the same run exactly.

Faults that cannot be applied (a server index beyond the starting fleet,
a crash target that is already down, a GEM id that does not exist) are
skipped and logged as ``fault-skipped`` rather than raising: a chaos run
should report what it could not do, not die halfway through the plan.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..actors import ActorSystem
from ..cluster import Server
from ..sim import Timeout, spawn
from .plan import (CrashServer, DegradeNetwork, EventStorm, Fault, FaultPlan,
                   HotKeyFlood, KillGem, KillRoot, PartitionNetwork,
                   SlowServer)

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Executes a :class:`FaultPlan` as a simulation process.

    Parameters
    ----------
    system:
        The actor system to torment.
    plan:
        The faults to inject.
    manager:
        Optional :class:`~repro.core.emr.ElasticityManager`; needed for
        :class:`KillGem` / :class:`KillRoot` faults and for emitting
        fault events on the EMR event bus (so tracers see them).
    rng:
        Random source for message-drop decisions.  Defaults to the
        system's dedicated ``chaos-drops`` stream.
    """

    def __init__(self, system: ActorSystem, plan: FaultPlan,
                 manager=None, rng: Optional[random.Random] = None) -> None:
        self.system = system
        self.plan = plan
        self.manager = manager
        self.rng = rng if rng is not None \
            else system.streams.stream("chaos-drops")
        self.log: List[Tuple[float, str, Dict[str, Any]]] = []
        self.faults_injected = 0
        self.faults_skipped = 0
        self._fleet: List[Server] = []
        self._process = None

    def start(self):
        """Snapshot the fleet and start executing the plan."""
        if self._process is not None:
            raise RuntimeError("chaos engine already started")
        self._fleet = list(self.system.provisioner.servers)
        self._process = spawn(self.system.sim, self._run(), name="chaos")
        return self._process

    # ------------------------------------------------------------------

    def _run(self):
        sim = self.system.sim
        for fault in self.plan.ordered():
            delay = fault.at_ms - sim.now
            if delay > 0:
                yield Timeout(sim, delay)
            self._inject(fault)

    def _inject(self, fault: Fault) -> None:
        if isinstance(fault, CrashServer):
            self._crash_server(fault)
        elif isinstance(fault, KillGem):
            self._kill_gem(fault)
        elif isinstance(fault, KillRoot):
            self._kill_root(fault)
        elif isinstance(fault, DegradeNetwork):
            self._degrade_network(fault)
        elif isinstance(fault, SlowServer):
            self._slow_server(fault)
        elif isinstance(fault, PartitionNetwork):
            self._partition_network(fault)
        elif isinstance(fault, EventStorm):
            self._event_storm(fault)
        elif isinstance(fault, HotKeyFlood):
            self._hot_key_flood(fault)

    # -- fault handlers --------------------------------------------------

    def _target_server(self, index: int, fault_name: str) -> Optional[Server]:
        if index >= len(self._fleet):
            self._skip(fault_name, reason="no-such-server", index=index)
            return None
        server = self._fleet[index]
        if not server.running:
            self._skip(fault_name, reason="server-already-down",
                       server=server.name)
            return None
        return server

    def _crash_server(self, fault: CrashServer) -> None:
        server = self._target_server(fault.server_index, "crash-server")
        if server is None:
            return
        lost = self.system.crash_server(server)
        self.faults_injected += 1
        self._emit("fault-injected", fault="crash-server",
                   server=server.name, lost_actors=len(lost))
        if fault.replace_after_ms is not None:
            self.system.sim.schedule(fault.replace_after_ms,
                                     self._boot_replacement, server)

    def _boot_replacement(self, crashed: Server) -> None:
        done = self.system.provisioner.boot_server(crashed.itype.name,
                                                   immediate=True)

        def booted(server: Optional[Server]) -> None:
            if server is None:
                self._skip("crash-server", reason="fleet-cap-reached",
                           replacing=crashed.name)
                return
            self._emit("fault-healed", fault="crash-server",
                       crashed=crashed.name, replacement=server.name)

        done._subscribe(booted)

    def _kill_gem(self, fault: KillGem) -> None:
        # A GEM's id is its index in the append-only ``manager.gems``.
        if (self.manager is None
                or fault.gem_id >= len(self.manager.gems)):
            self._skip("kill-gem", reason="no-such-gem", gem_id=fault.gem_id)
            return
        gem = self.manager.gems[fault.gem_id]
        if gem.failed:
            self._skip("kill-gem", reason="gem-already-failed",
                       gem_id=fault.gem_id)
            return
        gem.fail()
        self.faults_injected += 1
        self._emit("fault-injected", fault="kill-gem", gem_id=gem.gem_id)
        if fault.recover_after_ms is not None:
            self.system.sim.schedule(fault.recover_after_ms,
                                     self._recover_gem, gem)

    def _recover_gem(self, gem) -> None:
        gem.recover()
        self._emit("fault-healed", fault="kill-gem", gem_id=gem.gem_id)

    def _kill_root(self, fault: KillRoot) -> None:
        if self.manager is None:
            self._skip("kill-root", reason="no-manager")
            return
        root = self.manager.hierarchy.root
        if root.failed:
            self._skip("kill-root", reason="root-already-failed")
            return
        root.fail()
        self.faults_injected += 1
        self._emit("fault-injected", fault="kill-root",
                   generation=root.generation)
        if fault.recover_after_ms is not None:
            self.system.sim.schedule(fault.recover_after_ms,
                                     self._recover_root, root,
                                     root.generation)

    def _recover_root(self, root, generation: int) -> None:
        if root.generation != generation or not root.failed:
            # A leaf was promoted (or the detector respawned the root)
            # while this incarnation was down: it stays retired — a
            # superseded root must not regain authority.
            self._emit("fault-healed", fault="kill-root", superseded=True,
                       generation=root.generation)
            return
        root.recover()
        self._emit("fault-healed", fault="kill-root", superseded=False,
                   generation=root.generation)

    def _degrade_network(self, fault: DegradeNetwork) -> None:
        fabric = self.system.fabric
        token = fabric.degrade(
            latency_multiplier=fault.latency_multiplier,
            drop_probability=fault.drop_probability,
            rng=self.rng if fault.drop_probability > 0 else None)
        self.faults_injected += 1
        self._emit("fault-injected", fault="degrade-network",
                   latency_multiplier=fault.latency_multiplier,
                   drop_probability=fault.drop_probability,
                   duration_ms=fault.duration_ms)
        self.system.sim.schedule(fault.duration_ms, self._heal_network,
                                 token, fabric.messages_dropped)

    def _heal_network(self, token: int, drops_before: int) -> None:
        # Each degradation heals by its own token, so overlapping
        # DegradeNetwork windows compose (max latency multiplier,
        # independent drop draws) instead of clobbering each other.
        fabric = self.system.fabric
        fabric.heal(token)
        self._emit("fault-healed", fault="degrade-network",
                   messages_dropped=fabric.messages_dropped - drops_before)

    def _partition_network(self, fault: PartitionNetwork) -> None:
        fabric = self.system.fabric
        servers = []
        for index in fault.group:
            if index >= len(self._fleet):
                continue
            server = self._fleet[index]
            if server.running:
                servers.append(server)
        if not servers:
            self._skip("partition-network", reason="no-live-group-servers",
                       group=list(fault.group))
            return
        gem_ids = tuple(
            gem_id for gem_id in fault.gems
            if self.manager is not None and gem_id < len(self.manager.gems))
        server_ids = frozenset(server.server_id for server in servers)
        token = fabric.partition(
            server_ids, symmetric=fault.symmetric, loss=fault.loss,
            rng=self.rng if fault.loss < 1.0 else None)
        self.faults_injected += 1
        self._emit("fault-injected", fault="partition-network",
                   partition_id=token,
                   group=tuple(server.name for server in servers),
                   gems=gem_ids, symmetric=fault.symmetric, loss=fault.loss,
                   duration_ms=fault.duration_ms)
        if self.manager is not None:
            self.manager.note_partition(token, server_ids,
                                        frozenset(gem_ids), fault.symmetric)
        self.system.sim.schedule(fault.duration_ms, self._heal_partition,
                                 token, servers, fabric.partition_drops)

    def _heal_partition(self, token: int, servers: List[Server],
                        drops_before: int) -> None:
        fabric = self.system.fabric
        fabric.heal_partition(token)
        self._emit("fault-healed", fault="partition-network",
                   partition_id=token,
                   group=tuple(server.name for server in servers),
                   partition_drops=fabric.partition_drops - drops_before,
                   messages_dropped=fabric.messages_dropped)
        if self.manager is not None:
            self.manager.note_partition_healed(token)

    def _event_storm(self, fault: EventStorm) -> None:
        server = None
        if fault.server_index is not None:
            server = self._target_server(fault.server_index, "event-storm")
            if server is None:
                return
        self.faults_injected += 1
        self._emit("fault-injected", fault="event-storm",
                   rate_per_ms=fault.rate_per_ms, cpu_ms=fault.cpu_ms,
                   duration_ms=fault.duration_ms,
                   server=server.name if server is not None else None)
        spawn(self.system.sim,
              self._storm(fault, lambda: self._storm_target(server)),
              name="chaos-event-storm")

    def _hot_key_flood(self, fault: HotKeyFlood) -> None:
        victim = self._ranked_actor(fault.actor_rank)
        if victim is None:
            self._skip("hot-key-flood", reason="no-live-actors")
            return
        self.faults_injected += 1
        self._emit("fault-injected", fault="hot-key-flood",
                   rate_per_ms=fault.rate_per_ms, cpu_ms=fault.cpu_ms,
                   duration_ms=fault.duration_ms, victim=victim.actor_id)

        def target():
            # Re-pick by the same rank rule if the victim dies (crash or
            # scale-in) mid-flood, so the hot key stays hot.
            nonlocal victim
            if self.system.directory.try_lookup(victim.actor_id) is None:
                victim = self._ranked_actor(fault.actor_rank) or victim
            return victim

        spawn(self.system.sim, self._storm(fault, target),
              name="chaos-hot-key-flood")

    def _ranked_actor(self, rank: int):
        records = sorted(self.system.directory.records(),
                         key=lambda record: record.ref.actor_id)
        if not records:
            return None
        return records[rank % len(records)].ref

    def _storm_target(self, server: Optional[Server]):
        records = self.system.directory.on_server(server) \
            if server is not None else list(self.system.directory.records())
        if not records:
            return None
        records.sort(key=lambda record: record.ref.actor_id)
        return self.rng.choice(records).ref

    def _storm(self, fault, target):
        """Shared flood loop: fire ``storm_tick`` calls at ``rate_per_ms``
        until the window closes.  Replies are fire-and-forget; shed or
        rejected storm calls land in the overload ledger like any other
        client traffic."""
        sim = self.system.sim
        end = sim.now + fault.duration_ms
        interval = 1.0 / fault.rate_per_ms
        calls_sent = 0
        while sim.now < end:
            ref = target()
            if ref is not None:
                self.system.client_call(ref, "storm_tick", fault.cpu_ms,
                                        size_bytes=fault.size_bytes)
                calls_sent += 1
            yield Timeout(sim, interval)
        self._emit("fault-healed",
                   fault="event-storm" if isinstance(fault, EventStorm)
                   else "hot-key-flood",
                   calls_sent=calls_sent)

    def _slow_server(self, fault: SlowServer) -> None:
        server = self._target_server(fault.server_index, "slow-server")
        if server is None:
            return
        server.set_speed_factor(fault.speed_factor)
        self.faults_injected += 1
        self._emit("fault-injected", fault="slow-server", server=server.name,
                   speed_factor=fault.speed_factor,
                   duration_ms=fault.duration_ms)
        self.system.sim.schedule(fault.duration_ms,
                                 self._restore_speed, server)

    def _restore_speed(self, server: Server) -> None:
        if not server.running:
            return  # crashed while limping; nothing to restore
        server.set_speed_factor(1.0)
        self._emit("fault-healed", fault="slow-server", server=server.name)

    # -- bookkeeping -----------------------------------------------------

    def _emit(self, kind: str, **detail: Any) -> None:
        self.log.append((self.system.sim.now, kind, detail))
        if self.manager is not None:
            self.manager.emit(kind, **detail)

    def _skip(self, fault_name: str, **detail: Any) -> None:
        self.faults_skipped += 1
        self._emit("fault-skipped", fault=fault_name, **detail)
