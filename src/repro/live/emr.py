"""The EMR on a wall clock: a lifecycle adapter, not a second manager.

The elasticity manager that runs here *is*
:class:`repro.core.emr.ElasticityManager` — the same LEM rounds, GEM
REPORT/RREPLY protocol, conflict resolution, admission control,
stability window and explainable ``migration_log`` as under the
simulator — driving :class:`~repro.live.LiveActorSystem` through the
same :class:`~repro.actors.base.ActorSystemBase` contract as the
simulated runtime.  :class:`LiveElasticityManager` adds the two things a
wall clock needs:

* **one period timer.**  Every logical server shares this process, so
  instead of one self-timed LEM per server a single timer calls
  :meth:`~LiveElasticityManager.run_round`, which runs every LEM's round
  head (heartbeat, snapshots, actor rules, REPORT) synchronously; the
  tails (await the RREPLY, resolve, QUERY, migrate) continue as
  processes on the runtime's clock.
* **an asyncio lifecycle.**  ``start()`` / ``await stop()``; ``stop``
  cancels pending control timers, waits out in-flight migrations and
  re-raises anything a control callback raised.

The protocol timers are fixed fractions of ``period_ms``, not knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.emr import LEM, ElasticityManager, EmrConfig, MigrationEvent
from ..core.epl.compiler import CompiledPolicy
from ..sim import spawn
from .system import LiveActorSystem

__all__ = ["LiveEmrConfig", "LiveElasticityManager"]

#: How long a GEM collects REPORTs, as a fraction of the period.  All
#: LEM heads run in one call, so this only has to outlast loop jitter.
GEM_WAIT_FRACTION = 0.1
#: How long a LEM waits for its RREPLY, as a fraction of the period:
#: well past the GEM wait, and over before the next round starts.
GEM_REPLY_TIMEOUT_FRACTION = 0.5


@dataclass
class LiveEmrConfig:
    """The live control loop's one knob (wall-clock ms)."""

    period_ms: float = 250.0


class _SharedTimerManager(ElasticityManager):
    """LEMs here do not time themselves; the adapter's timer does."""

    def _start_lem(self, lem: LEM) -> None:
        pass


class LiveElasticityManager:
    """Runs the real EMR against a :class:`LiveActorSystem`."""

    def __init__(self, system: LiveActorSystem, policy: CompiledPolicy,
                 config: Optional[LiveEmrConfig] = None) -> None:
        self.system = system
        self.config = config or LiveEmrConfig()
        period = self.config.period_ms
        #: The elasticity manager proper (LEMs, GEMs, ``migration_log``,
        #: ``add_listener`` ...).
        self.emr = _SharedTimerManager(system, policy, EmrConfig(
            period_ms=period,
            gem_wait_ms=period * GEM_WAIT_FRACTION,
            gem_reply_timeout_ms=period * GEM_REPLY_TIMEOUT_FRACTION))
        self.rounds_run = 0

    @property
    def running(self) -> bool:
        return self.emr.running

    @property
    def migration_log(self) -> List[MigrationEvent]:
        return self.emr.migration_log

    @property
    def migrations_started(self) -> int:
        return len(self.emr.migration_log)

    def start(self) -> None:
        if self.running:
            return
        self.emr.start()
        self.system.schedule(self.config.period_ms, self._tick)

    async def stop(self) -> None:
        """Stop the control loop; raises what a control callback raised."""
        self.emr.stop()
        await self.system.drain()

    def _tick(self) -> None:
        if not self.running:
            return
        self.run_round()
        # Re-armed only after a clean round: a round that raises ends
        # the loop, and stop() reports why.
        self.system.schedule(self.config.period_ms, self._tick)

    def run_round(self) -> None:
        """One control period, now: every LEM's synchronous round head;
        the tails carry on by themselves on the runtime's clock."""
        self.rounds_run += 1
        for lem in self.emr.lems.values():
            if lem.server.running:
                spawn(self.system, lem.finish_round(*lem.begin_round()),
                      name=f"lem/{lem.server.name}")
