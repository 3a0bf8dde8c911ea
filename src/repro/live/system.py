"""Asyncio actor runtime: real mailboxes, wall-clock time, live migration.

This is the live counterpart of :class:`repro.actors.ActorSystem`.  It
shares the sim runtime's data model — :class:`ActorRef`,
:class:`ActorRecord` with its :class:`ActorCell`, :class:`Directory`,
:class:`Message`, the :class:`RuntimeHooks` profiling feed — and its
lifecycle bookkeeping (:class:`~repro.actors.base.ActorSystemBase`:
spawn, retire, migration refusal and commit, the directory queries).
What it replaces is what the wall clock makes different: fewest-actors
placement, per-actor deque mailboxes drained by a cooperative task that
exists only while its mailbox has work (classic actor semantics: one
message at a time, no locks; an idle actor holds no task), and a
migration that waits on events and sleeps.

Live migration is the same two-phase protocol as the simulator,
expressed in asyncio:

1. **prepare** — flag the record ``migrating`` and close a *gate*: the
   dispatch task finishes the in-flight handler and then parks before
   touching the next message.  New sends keep queueing; nothing is lost.
2. **transfer** — sleep proportionally to the actor's ``state_size_mb``
   (``transfer_ms_per_mb``), modelling state copy time on the wall
   clock.
3. **commit** — in one synchronous (and therefore, on an event loop,
   atomic) block: move the memory ledger, flip the directory record,
   and open the gate; messages queued during the transfer are served
   next, in order, from the same mailbox.

The ``LiveActor`` base subclasses the sim ``Actor`` so one class
hierarchy serves both runtimes: ``describe_actor_class`` (EPL schema
extraction), ``property_refs`` (``in ref(...)`` conditions), and
``snapshot_state`` all work unchanged; only the handler-side primitives
(``compute``/``call``/``sleep``) become coroutines.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
from collections import deque
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Set, Type

from ..actors.actor import Actor
from ..actors.base import ActorSystemBase
from ..actors.directory import ActorCell, ActorRecord, Directory
from ..actors.message import (CLIENT_KIND, DEFAULT_REPLY_BYTES, Message,
                              Overloaded)
from ..actors.refs import ActorRef
from ..cluster import INSTANCE_TYPES
from ..runtime import RuntimeBackend
from ..sim import RandomStreams
from .clock import LiveClock
from .servers import LiveServer

__all__ = ["LiveActor", "LiveActorSystem", "LiveBackend", "ActorGone"]

#: Instance type of a server added without naming one.
DEFAULT_INSTANCE_TYPE = "m5.large"


class ActorGone(LookupError):
    """The target actor does not exist (never created, or destroyed)."""


class LiveActor(Actor):
    """Base class for actors hosted by :class:`LiveActorSystem`.

    Handlers are regular methods or coroutines.  The primitives return
    awaitables instead of sim waitables; ``tell`` stays synchronous
    (fire-and-forget enqueues immediately).
    """

    async def compute(self, cpu_ms: float) -> None:  # type: ignore[override]
        """Model ``cpu_ms`` of service time: charged to the hosting
        server's meter and to this actor's CPU profile, then slept on
        the wall clock."""
        await self._system._actor_compute(self, cpu_ms)

    async def call(self, ref: ActorRef, function: str,  # type: ignore[override]
                   *args: Any, size_bytes: Optional[float] = None) -> Any:
        return await self._system._actor_call(
            self, ref, function, args,
            size_bytes if size_bytes is not None else self.message_bytes)

    def tell(self, ref: ActorRef, function: str, *args: Any,
             size_bytes: Optional[float] = None) -> None:
        self._system._actor_tell(
            self, ref, function, args,
            size_bytes if size_bytes is not None else self.message_bytes)

    async def sleep(self, delay_ms: float) -> None:  # type: ignore[override]
        await asyncio.sleep(delay_ms / 1000.0)


class LiveActorSystem(ActorSystemBase):
    """Hosts actors on logical servers sharing one asyncio event loop.

    Construct (and use) inside a running event loop: an actor's
    mailbox is drained by a task started when a message arrives to find
    no task draining it.
    """

    def __init__(self, mailbox_capacity: Optional[int] = None,
                 transfer_ms_per_mb: float = 5.0) -> None:
        super().__init__(LiveClock(), Directory(), itertools.count(1))
        self.servers: List[LiveServer] = []
        self._join_listeners: List[Callable[[LiveServer], None]] = []
        #: Bounded-mailbox overload protection: client sends beyond this
        #: depth are shed with a retriable ``Overloaded`` NACK (``None``
        #: disables).  Actor-to-actor sends are never shed, matching the
        #: sim runtime's disposition rules.
        self.mailbox_capacity = mailbox_capacity
        #: Wall-clock cost of the migration transfer phase per MB of
        #: actor state.
        self.transfer_ms_per_mb = transfer_ms_per_mb

        self._server_ids = itertools.count(1)

        self.messages_delivered = 0
        self.messages_shed = 0
        self.handler_errors = 0
        self.migrations_completed = 0
        self.migrations_refused = 0

        self.backend = LiveBackend(self)

    # -- servers -------------------------------------------------------

    def add_server(self, instance_type: Optional[str] = None,
                   name: Optional[str] = None) -> LiveServer:
        itype = INSTANCE_TYPES[instance_type or DEFAULT_INSTANCE_TYPE]
        server_id = next(self._server_ids)
        server = LiveServer(self.clock, itype, server_id,
                            name or f"live-{itype.name}-{server_id}")
        self.servers.append(server)
        for listener in self._join_listeners:
            listener(server)
        return server

    def running_servers(self) -> List[LiveServer]:
        return [s for s in self.servers if s.running]

    # -- actor lifecycle -----------------------------------------------

    def create_actor(self, cls: Type[LiveActor], *args: Any,
                     server: Optional[LiveServer] = None,
                     **kwargs: Any) -> ActorRef:
        """Place and start a new actor; returns its ref.

        Placement: the explicit ``server`` wins; then an installed
        :attr:`placement_policy` (it may abstain); otherwise the running
        server currently hosting the fewest actors (ties broken by
        server id, so placement is reproducible for a fixed call
        order).
        """
        if server is None:
            candidates = self.running_servers()
            if not candidates:
                raise RuntimeError("no running servers to place on")
            if self.placement_policy is not None:
                server = self.placement_policy(cls, candidates, None)
            if server is None:
                server = min(
                    candidates,
                    key=lambda s: (self.directory.count_on(s),
                                   s.server_id))
        elif not server.running:
            raise RuntimeError(f"server {server.name} is not running")

        record = self._spawn(cls, server, args, kwargs)
        for hooks in self.hooks:
            hooks.on_actor_created(record)
        return record.ref

    def _start_dispatch(self, record: ActorRecord) -> None:
        record.cell = ActorCell(deque())

    def _stop_dispatch(self, record: ActorRecord, cell: ActorCell) -> None:
        # A drain task finds the emptied mailbox once any in-flight
        # handler has returned, and ends by itself.
        self._fail_queued(cell.mailbox)

    @staticmethod
    def _fail_queued(mailbox: "deque[Any]") -> None:
        """Fail every message still queued."""
        while mailbox:
            message, reply = mailbox.popleft()
            if reply is not None and not reply.done():
                reply.set_exception(ActorGone(
                    f"actor #{message.target_id} destroyed"))

    # -- sending -------------------------------------------------------

    def client_call(self, ref: ActorRef, function: str, *args: Any,
                    size_bytes: float = 512.0) -> "asyncio.Future[Any]":
        """External request: returns a future resolved with the reply.

        Overload shedding resolves the future with an
        :class:`Overloaded` value (not an exception) — same retriable
        NACK contract as the sim runtime.  A missing target fails the
        future with :class:`ActorGone`.
        """
        message = Message(
            target_id=ref.actor_id, function=function, args=args,
            caller_kind=CLIENT_KIND, caller_id=None,
            size_bytes=size_bytes, reply=None,
            reply_bytes=DEFAULT_REPLY_BYTES, sent_at=self.clock.now)
        return self._send(message, want_reply=True, src_record=None)

    async def _actor_call(self, actor: Actor, ref: ActorRef, function: str,
                          args: tuple, size_bytes: float) -> Any:
        return await self._send_from_actor(actor, ref, function, args,
                                           size_bytes, want_reply=True)

    def _actor_tell(self, actor: Actor, ref: ActorRef, function: str,
                    args: tuple, size_bytes: float) -> None:
        self._send_from_actor(actor, ref, function, args, size_bytes,
                              want_reply=False)

    def _send_from_actor(self, actor: Actor, ref: ActorRef, function: str,
                         args: tuple, size_bytes: float, want_reply: bool,
                         ) -> Optional["asyncio.Future[Any]"]:
        message = Message(
            target_id=ref.actor_id, function=function, args=args,
            caller_kind=actor.type_name, caller_id=actor.actor_id,
            size_bytes=size_bytes, reply=None, sent_at=self.clock.now)
        # A dead incarnation's send has no source server to leave from.
        record = actor._record
        return self._send(message, want_reply,
                          record if record.cell is not None else None)

    def _send(self, message: Message, want_reply: bool,
              src_record: Optional[ActorRecord],
              ) -> Optional["asyncio.Future[Any]"]:
        loop = asyncio.get_running_loop()
        reply: Optional[asyncio.Future] = (loop.create_future()
                                           if want_reply else None)
        record = self.directory.try_lookup(message.target_id)
        if record is None:
            if reply is not None:
                reply.set_exception(ActorGone(
                    f"no actor #{message.target_id}"))
            return reply
        cell = record.cell
        if (self.mailbox_capacity is not None
                and message.caller_kind == CLIENT_KIND
                and len(cell.mailbox) >= self.mailbox_capacity):
            self.messages_shed += 1
            for hooks in self.hooks:
                hooks.on_message_shed(record, message, "shed")
            if reply is not None:
                reply.set_result(Overloaded("shed"))
            return reply

        # Network accounting: bytes cross a "link" only between distinct
        # logical servers (or from an external client).
        if src_record is None or src_record.server is not record.server:
            if src_record is not None:
                src_record.server.note_net(message.size_bytes)
                for hooks in self.hooks:
                    hooks.on_bytes_sent(src_record, message.size_bytes)
            record.server.note_net(message.size_bytes)
            for hooks in self.hooks:
                hooks.on_bytes_received(record, message.size_bytes)

        self.messages_delivered += 1
        for hooks in self.hooks:
            hooks.on_message_delivered(record, message)
        cell.mailbox.append((message, reply))
        if cell.task is None:
            cell.task = asyncio.get_running_loop().create_task(
                self._drain(record, cell),
                name=f"live-actor-{record.ref.actor_id}")
        return reply

    # -- dispatch ------------------------------------------------------

    async def _drain(self, record: ActorRecord, cell: ActorCell) -> None:
        """Serve the mailbox, one message at a time, until it is empty."""
        mailbox = cell.mailbox
        try:
            while mailbox:
                message, reply = mailbox.popleft()
                if cell.gate is not None:
                    await cell.gate.wait()
                cell.busy = True
                try:
                    await self._invoke(record, message, reply)
                finally:
                    cell.busy = False
                    idle, cell.idle = cell.idle, None
                    if idle is not None:
                        idle.set()
        finally:
            cell.task = None

    async def _invoke(self, record: ActorRecord, message: Message,
                      reply: Optional["asyncio.Future[Any]"]) -> None:
        try:
            handler = getattr(record.instance, message.function)
            result = handler(*message.args)
            if inspect.isawaitable(result):
                result = await result
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.handler_errors += 1
            if reply is not None and not reply.done():
                reply.set_exception(exc)
            return
        if reply is not None and not reply.done():
            reply.set_result(result)

    async def _actor_compute(self, actor: Actor, cpu_ms: float) -> None:
        if cpu_ms < 0:
            raise ValueError(f"negative compute: {cpu_ms!r}")
        record = actor._record
        if record.cell is not None:  # a dead incarnation charges no one
            record.server.note_busy(cpu_ms)
            for hooks in self.hooks:
                hooks.on_compute(record, cpu_ms)
        if cpu_ms > 0.0:
            await asyncio.sleep(cpu_ms / 1000.0)

    # -- migration -----------------------------------------------------

    async def migrate_actor(self, ref: ActorRef, target: LiveServer,
                            force: bool = False) -> bool:
        """Two-phase live migration; returns True when committed.

        Refusals (unknown actor, already migrating, pinned without
        ``force``, target not running, no-op move) return False without
        touching the actor.
        """
        record = self._begin_migration(ref, target, force)
        if record is None:
            self.migrations_refused += 1
            return False
        cell = record.cell
        gate = cell.gate = asyncio.Event()  # closed until commit
        started = perf_counter()
        try:
            # PREPARE: wait out the in-flight handler (new messages keep
            # queueing behind the closed gate).
            while cell.busy:
                if cell.idle is None:
                    cell.idle = asyncio.Event()
                await cell.idle.wait()
            if record.cell is None:
                return False  # destroyed while we waited
            # TRANSFER: state copy, charged on the wall clock.
            transfer_ms = (record.instance.state_size_mb
                           * self.transfer_ms_per_mb)
            if transfer_ms > 0.0:
                await asyncio.sleep(transfer_ms / 1000.0)
            if record.cell is None:
                return False
            if not target.running:
                return False  # target died mid-transfer: abort, stay put
            # COMMIT: no awaits below — atomic on the event loop.
            self._commit_migration(record, target)
            self.migrations_completed += 1
            return True
        finally:
            record.migrating = False
            cell.gate = None
            gate.set()
            self.last_migration_wall_ms = (perf_counter() - started) * 1e3

    #: Wall-clock duration of the most recent migration attempt.
    last_migration_wall_ms: float = 0.0

    async def quiesce(self, timeout_s: float = 5.0) -> bool:
        """Wait until no actor has a drain task: every mailbox is empty
        and no handler is running or waiting on a migration gate."""
        deadline = perf_counter() + timeout_s
        while perf_counter() < deadline:
            if all(record.cell.task is None
                   for record in self.directory.records()):
                return True
            await asyncio.sleep(0.005)
        return False

    async def shutdown(self) -> None:
        """Stop every drain task; queued messages fail with
        :class:`ActorGone`."""
        cells = [record.cell for record in self.directory.records()]
        tasks = [cell.task for cell in cells if cell.task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for cell in cells:
            self._fail_queued(cell.mailbox)
        for server in self.servers:
            server.shutdown()


class LiveBackend(RuntimeBackend):
    """The :class:`RuntimeBackend` face of :class:`LiveActorSystem`.

    Control callbacks run as event-loop timers and migrations as tasks;
    the backend keeps hold of both, so an EMR can be stopped cleanly
    (:meth:`drain`) and an exception in a callback is never lost.
    """

    def __init__(self, system: LiveActorSystem) -> None:
        self.system = system
        self.clock = system.clock
        self._streams = RandomStreams()
        self._timers: Set[asyncio.TimerHandle] = set()
        self._migrations: Set["asyncio.Task[bool]"] = set()
        #: First exception raised by a scheduled callback or a migration
        #: task since the last :meth:`drain`.
        self.failure: Optional[BaseException] = None

    # -- clock ---------------------------------------------------------

    def schedule(self, delay_ms: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        def fire() -> None:
            self._timers.discard(handle)
            try:
                callback(*args)
            except Exception as exc:
                # Re-raised into the loop's exception handler (which logs
                # it now) and kept for drain() to hand to the owner.
                if self.failure is None:
                    self.failure = exc
                raise

        handle = asyncio.get_running_loop().call_later(
            delay_ms / 1000.0, fire)
        self._timers.add(handle)

    def rng_stream(self, name: str) -> Any:
        return self._streams.stream(name)

    async def drain(self) -> None:
        """Cancel every pending scheduled callback, wait out the
        migrations this backend started, and re-raise the first failure
        among them — a control loop must not die silently."""
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        await asyncio.gather(*self._migrations, return_exceptions=True)
        failure, self.failure = self.failure, None
        if failure is not None:
            raise failure

    # -- control surface -----------------------------------------------

    def migrate_actor(self, ref: ActorRef, target: LiveServer,
                      force: bool = False) -> "asyncio.Task[bool]":
        task = asyncio.get_running_loop().create_task(
            self.system.migrate_actor(ref, target, force=force),
            name=f"live-migrate-{ref.actor_id}")
        self._migrations.add(task)
        task.add_done_callback(self._migration_done)
        return task

    def _migration_done(self, task: "asyncio.Task[bool]") -> None:
        self._migrations.discard(task)
        if (not task.cancelled() and task.exception() is not None
                and self.failure is None):
            self.failure = task.exception()

    def resurrect_actor(self, tombstone: ActorRecord,
                        server: Optional[LiveServer] = None) -> None:
        raise NotImplementedError(
            "live backend has no crash/resurrect surface yet; "
            "see docs/live-runtime.md")

    def install(self, placement_policy: Any,
                epoch_source: Callable[[], int],
                overload: Optional[Any]) -> None:
        # Epochs only advance on partition events and overload
        # protection lives in the simulated data plane; the live runtime
        # has neither yet (docs/live-runtime.md).
        if overload is not None:
            raise NotImplementedError(
                "overload protection is sim-only; see docs/live-runtime.md")
        self.system.placement_policy = placement_policy

    def uninstall(self, placement_policy: Any,
                  overload: Optional[Any]) -> None:
        if self.system.placement_policy is placement_policy:
            self.system.placement_policy = None

    # -- fleet verbs ---------------------------------------------------

    def servers(self) -> Sequence[LiveServer]:
        return self.system.running_servers()

    def boot_server(self, type_name: Optional[str] = None) -> None:
        self.system.add_server(type_name)

    def retire_server(self, server: LiveServer) -> None:
        server.shutdown()

    def pending_boots(self) -> int:
        return 0  # a logical server joins the moment it is added

    def add_join_listener(
            self, listener: Callable[[LiveServer], None]) -> None:
        self.system._join_listeners.append(listener)
