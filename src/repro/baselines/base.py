"""Shared machinery for baseline elasticity managers.

Baselines replicate competitor policies (Orleans, the "default rule", the
in-app E-Store controller) against the same actor substrate PLASMA runs
on.  Each attaches its own profiling (they are allowed to watch the same
runtime signals) and runs a periodic decision loop.
"""

from __future__ import annotations

from typing import List, Optional

from ..actors import ActorRecord, ActorSystem
from ..cluster import Server
from ..cluster.server import check_period_ms
from ..core.profiling import ProfilingRuntime
from ..sim import Timeout, spawn

__all__ = ["PeriodicBalancer"]


class PeriodicBalancer:
    """Base class: a manager that wakes every ``period_ms`` and calls
    :meth:`decide`.  Subclasses implement the policy."""

    def __init__(self, system: ActorSystem, period_ms: float = 60_000.0,
                 profile: bool = True) -> None:
        check_period_ms(period_ms)
        self.system = system
        self.period_ms = period_ms
        self.running = False
        self.migrations = 0
        self.rounds = 0
        self.profiler: Optional[ProfilingRuntime] = None
        if profile:
            self.profiler = ProfilingRuntime(system.sim,
                                             window_ms=period_ms)

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.profiler is not None:
            self.system.add_hooks(self.profiler)
        spawn(self.system.sim, self._loop(),
              name=f"{type(self).__name__}")

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self.profiler is not None:
            self.system.remove_hooks(self.profiler)

    def migrations_total(self) -> int:
        return self.migrations

    def _loop(self):
        sim = self.system.sim
        while self.running:
            yield Timeout(sim, self.period_ms)
            if not self.running:
                return
            self.rounds += 1
            self.decide()

    # -- helpers for subclasses -------------------------------------------------

    def servers(self) -> List[Server]:
        return [s for s in self.system.provisioner.servers if s.running]

    def actors_on(self, server: Server) -> List[ActorRecord]:
        return self.system.actors_on(server)

    def migrate(self, record: ActorRecord, target: Server) -> None:
        if record.server is target:
            return
        self.system.migrate_actor(record.ref, target)
        self.migrations += 1

    def decide(self) -> None:
        raise NotImplementedError

    def colocate_frequent_pairs(self, min_pair_rate_per_min: float = 1.0,
                                max_moves: int = 8) -> int:
        """Frequency-affinity colocation: move the caller of each hot
        remote (caller → callee) pair next to its callee, hottest pairs
        first.  Shared by the Orleans and default-rule baselines."""
        if self.profiler is None:
            return 0
        pairs = []
        for server in self.servers():
            records = self.actors_on(server)
            if not records:
                continue
            for snap in self.profiler.snapshot_actors(records):
                for (caller_id, _function), rate in \
                        snap.pair_count_per_min.items():
                    if rate < min_pair_rate_per_min:
                        continue
                    caller = self.system.directory.try_lookup(caller_id)
                    if caller is None or caller.server is snap.server:
                        continue
                    pairs.append((rate, caller_id, snap.actor_id))
        pairs.sort(reverse=True)
        done = 0
        for _rate, caller_id, callee_id in pairs:
            if done >= max_moves:
                break
            caller = self.system.directory.try_lookup(caller_id)
            callee = self.system.directory.try_lookup(callee_id)
            if caller is None or callee is None:
                continue
            if caller.server is callee.server:
                continue
            mover, anchor = caller, callee
            if mover.pinned or mover.migrating:
                mover, anchor = callee, caller
                if mover.pinned or mover.migrating:
                    continue
            self.migrate(mover, anchor.server)
            done += 1
        return done
