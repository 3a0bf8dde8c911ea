"""Structured elasticity event tracing.

The elasticity runtime's decisions are spread across LEM rounds, GEM
rounds, admission checks and the fleet.  :class:`ElasticityTracer`
collects them into one ordered, structured event log — the first thing
to read when a policy does something surprising.

Usage::

    tracer = ElasticityTracer(manager)
    tracer.attach()
    ... run ...
    for event in tracer.events:
        print(event)
    print(tracer.summary())

The tracer is pure observation: it subscribes to the runtime's hooks
and the manager's event bus, and detaching unsubscribes it from both.
It reads the runtime only through the
:class:`~repro.actors.base.ActorSystemBase` contract, so it attaches to
either runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..actors import ActorRecord, RuntimeHooks
from ..cluster import Server

__all__ = ["TraceEvent", "ElasticityTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One elasticity decision or lifecycle event."""

    time_ms: float
    kind: str          # migration | actor-created | actor-destroyed |
                       # server-joined | server-retired | gem-round |
                       # scale-out | scale-in | pin | server-crashed |
                       # server-suspected | server-draining |
                       # actor-resurrected | migration-aborted |
                       # migration-started | gem-failover |
                       # fault-injected | fault-healed | fault-skipped |
                       # and, with durability enabled:
                       # checkpoint-written | checkpoint-replicated |
                       # state-restored | journal-replayed |
                       # and, with manager.debug_events on:
                       # lem-round | actions-resolved | gem-vote
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{key}={value}"
                         for key, value in self.detail.items())
        return f"[{self.time_ms / 1000.0:9.3f}s] {self.kind:<15s} {parts}"


class ElasticityTracer(RuntimeHooks):
    """Collects a structured event log from a running elasticity manager."""

    def __init__(self, manager, max_events: int = 100_000) -> None:
        self.manager = manager
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._attached = False

    # -- lifecycle -------------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the runtime and the EMR; if either refuses,
        nothing stays subscribed."""
        if self._attached:
            return
        system = self.manager.system
        system.add_hooks(self)
        try:
            self.manager.add_listener(self._on_emr_event)
        except BaseException:
            system.remove_hooks(self)
            raise
        self._attached = True

    def detach(self) -> None:
        """Undo :meth:`attach`."""
        if not self._attached:
            return
        self._attached = False
        self.manager.system.remove_hooks(self)
        self.manager.remove_listener(self._on_emr_event)

    # -- event intake -------------------------------------------------------------

    def on_actor_created(self, record: ActorRecord) -> None:
        """Record an ``actor-created`` event."""
        self._record("actor-created", actor=str(record.ref),
                     server=record.server.name)

    def on_actor_destroyed(self, record: ActorRecord) -> None:
        """Record an ``actor-destroyed`` event."""
        self._record("actor-destroyed", actor=str(record.ref),
                     server=record.server.name)

    def on_actor_migrated(self, record: ActorRecord, old_server: Server,
                          new_server: Server) -> None:
        """Record a ``migration`` event."""
        self._record("migration", actor=str(record.ref),
                     src=old_server.name, dst=new_server.name)

    def on_migration_aborted(self, record: ActorRecord, source: Server,
                             target: Server, reason: str) -> None:
        """Record a ``migration-aborted`` event."""
        self._record("migration-aborted", actor=str(record.ref),
                     src=source.name, dst=target.name, reason=reason)

    def on_server_crashed(self, server: Server, lost) -> None:
        """Record a ``server-crashed`` event."""
        self._record("server-crashed", server=server.name,
                     lost_actors=len(lost))

    def on_actor_resurrected(self, record: ActorRecord) -> None:
        """Record an ``actor-resurrected`` event."""
        self._record("actor-resurrected", actor=str(record.ref),
                     server=record.server.name)

    def _record(self, kind: str, **detail: Any) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(
            time_ms=self.manager.system.now, kind=kind, detail=detail))

    def on_server_joined(self, server: Server) -> None:
        """Record a ``server-joined`` event."""
        self._record("server-joined", server=server.name,
                     type=server.itype.name)

    def on_server_retired(self, server: Server) -> None:
        """Record a ``server-retired`` event."""
        self._record("server-retired", server=server.name)

    def _on_emr_event(self, kind: str, detail: Dict[str, Any]) -> None:
        """EMR event-bus intake (server-suspected, gem-failover, faults)."""
        self._record(kind, **detail)

    # -- queries -------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """The events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def tail(self, count: int = 20) -> List[TraceEvent]:
        """The most recent ``count`` events — the context an invariant
        violation report attaches so a repro is readable on its own."""
        return self.events[-count:]

    def summary(self) -> Dict[str, int]:
        """Event counts by kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def timeline(self, bucket_ms: float = 60_000.0) -> Dict[int, Dict[str, int]]:
        """Events per time bucket per kind — a coarse activity picture."""
        buckets: Dict[int, Dict[str, int]] = {}
        for event in self.events:
            bucket = int(event.time_ms // bucket_ms)
            counts = buckets.setdefault(bucket, {})
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return buckets
