"""The actor system: creation, messaging, dispatch, and live migration.

This module is the AEON-runtime stand-in on simulated time.  What it
records about an actor — directory record, hooks, spawn/retire/commit
bookkeeping — is :class:`~repro.actors.base.ActorSystemBase`, shared
with the asyncio runtime; an incarnation's runtime state is the
:class:`~repro.actors.directory.ActorCell` on its record.  What lives
here is what simulated time makes different: placement from the
``actor-placement`` RNG stream, delivery through the network fabric, the
dispatcher (a callback state machine on each actor's cell), overload
admission, and the partition-aware live-migration protocol.  The
elasticity runtime drives it exclusively through
:meth:`ActorSystem.migrate_actor`, :meth:`ActorSystem.create_actor`'s
placement hook, and the :class:`~repro.actors.hooks.RuntimeHooks`
observation interface — the same narrow surface PLASMA requires of its
host language runtime.

Semantics reproduced from the paper's substrate:

- actors process messages sequentially; handlers may await CPU, replies
  from other actors, or sleeps;
- messages to a migrating actor queue up and are processed after the
  migration (live migration: no loss, added delay only);
- messages routed to an actor's old server after it moved are forwarded,
  paying an extra network hop (the cost ``colocate``/placement rules
  exist to avoid);
- an actor's memory footprint moves with it and its state size determines
  migration transfer time.

An idle actor holds no process: its dispatcher is the ``armed`` and
``handed`` fields of its cell, moved by callbacks that make the
``schedule`` calls a dispatcher process did (kept as the oracle in
``tests/actors/dispatch_oracle.py``).  Only a generator handler gets a
:class:`~repro.sim.Driver`, for its own lifetime.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, List, Optional, Sized, Tuple, Type

from ..cluster import NetworkFabric, Provisioner, Server
from ..runtime import SimBackend
from ..sim import (Driver, Interrupted, RandomStreams, Signal, Simulator,
                   Timeout, Waitable, spawn)
from .actor import Actor
from .base import ActorSystemBase
from .directory import ActorCell, ActorRecord, Directory
from .message import CLIENT_KIND, DEFAULT_REPLY_BYTES, Message, Overloaded
from .refs import ActorRef

__all__ = ["ActorSystem", "PlacementPolicy"]

#: Signature of a pluggable new-actor placement policy: given the actor
#: class, the candidate servers, and an optional *related* actor ref
#: (application hint, e.g. "this Player belongs to that Session"),
#: return the chosen server (or ``None`` for uniform-random placement).
PlacementPolicy = Callable[[Type[Actor], List[Server], Optional[ActorRef]],
                           Optional[Server]]

_actor_ids = itertools.count(1)

_STOP = object()
_MAX_FORWARDS = 8
#: A mailbox no message has had to wait in yet: empty, sized, shared.
#: The first message that must wait replaces it with a deque.
_NO_MAIL: Tuple[()] = ()


class ActorSystem(ActorSystemBase):
    """Hosts actors on a fleet of simulated servers."""

    def __init__(self, sim: Simulator, provisioner: Provisioner,
                 fabric: Optional[NetworkFabric] = None,
                 streams: Optional[RandomStreams] = None,
                 directory: Optional[Directory] = None) -> None:
        #: ``directory`` lets a caller install a
        #: :class:`~repro.actors.sharded_directory.ShardedDirectory`;
        #: the default flat map reproduces the paper's single
        #: authoritative view.
        super().__init__(sim, directory if directory is not None
                         else Directory(), _actor_ids)
        self.sim = sim
        self.provisioner = provisioner
        self.fabric = fabric or NetworkFabric(sim)
        self.streams = streams or RandomStreams()
        #: The :class:`~repro.runtime.RuntimeBackend` view of this
        #: system: the narrow clock + migrate/pin/place + fleet +
        #: profiling surface the elasticity layer drives.  Pure
        #: delegation — the module-level name is looked up (not bound)
        #: so tests can substitute a call-counting subclass.
        self.backend = SimBackend(self)
        self._placement_rng = self.streams.stream("actor-placement")
        #: How long each phase of the migration protocol waits for an ack
        #: that cannot arrive (severed link) before rolling back.
        self.migration_phase_timeout_ms = 2_000.0
        #: Migrations rolled back by a partition or phase timeout.
        self.migrations_rolled_back = 0
        #: Durable-state subsystem (``repro.durability``), attached by an
        #: enabled ``DurabilityManager``; ``None`` keeps every durability
        #: call site in this module a single attribute check.
        self.durability = None
        #: Overload-protection subsystem (``repro.overload``), attached
        #: by the elasticity manager when its config enables it; ``None``
        #: keeps every overload call site a single attribute check and
        #: the delivery path byte-identical to an unprotected run.
        self.overload = None
        #: True only inside :meth:`crash_server`'s destroy loop, so the
        #: disposition ledger can tell "lost with its server" apart from
        #: "target destroyed under it".
        self._crashing = False
        #: The open delivery batch: ``[due, server, stamp, msg, ...]`` —
        #: back-to-back local sends that land at the same instant on the
        #: same server ride one engine event (see :meth:`_route`).
        #: Never cleared — a stale batch can never match again because
        #: any later send's due time is strictly greater (delay > 0).
        self._local_batch: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # actor lifecycle
    # ------------------------------------------------------------------

    def create_actor(self, cls: Type[Actor], *args: Any,
                     server: Optional[Server] = None,
                     related: Optional[ActorRef] = None,
                     **kwargs: Any) -> ActorRef:
        """Instantiate ``cls`` and place it on a server.

        Placement precedence: explicit ``server`` argument, then the
        installed :attr:`placement_policy` (PLASMA's rule-aware new-actor
        placement), then uniform random — the default behaviour the paper
        ascribes to a GEM with no applicable rule.  ``related`` is an
        optional hint naming an existing actor this one belongs with
        (e.g. the Session a new Player joins); rule-aware placement uses
        it to honour colocate rules from the very first placement.
        """
        if server is None:
            candidates = list(self.provisioner.servers)
            if not candidates:
                raise RuntimeError("cannot create an actor with no servers")
            server = self._choose_server(cls, candidates, related)
        record = self._spawn(cls, server, args, kwargs)
        for hooks in self.hooks:
            hooks.on_actor_created(record)
        return record.ref

    def _choose_server(self, cls: Type[Actor], candidates: List[Server],
                       related: Optional[ActorRef]) -> Optional[Server]:
        """The placement policy's pick, else uniform random; ``None``
        only when there is nothing to pick from."""
        chosen = None
        if self.placement_policy is not None:
            chosen = self.placement_policy(cls, candidates, related)
        if chosen is None and candidates:
            chosen = self._placement_rng.choice(candidates)
        return chosen

    def _start_dispatch(self, record: ActorRecord) -> None:
        cell = record.cell = ActorCell(_NO_MAIL)
        self.sim.schedule(0.0, self._arm, record, cell)

    def _stop_dispatch(self, record: ActorRecord, cell: ActorCell) -> None:
        """Queued messages are dropped; their callers and the in-flight
        one receive ``None`` replies."""
        dropped = list(cell.mailbox)
        handed = cell.handed
        if handed is not None:
            # Reclaim the hand-over in flight ahead of the backlog: its
            # pending _run finds it gone, and the dispatcher waits again.
            cell.handed = None
            cell.armed = True
            dropped.insert(0, handed)
        if cell.mailbox:
            # Emptied, not dropped: _STOP may be queued in it next.
            cell.mailbox.clear()
        for message in dropped:
            if self.overload is not None:
                if self._crashing:
                    self.overload.note_crashed(message)
                else:
                    self.overload.note_dead_target(message)
            if message.reply is not None:
                message.reply.trigger(None)
        self._put(record, cell, _STOP)
        # Fail the in-flight request too (its handler dies with the
        # actor; Signal.trigger is once-only, so a handler that was
        # already about to reply cannot double-deliver).
        inflight = cell.current
        if inflight is not None and inflight.reply is not None:
            inflight.reply.trigger(None)
        # A migration proc draining the in-flight handler blocks on this
        # signal; trigger it so the proc wakes, sees the incarnation is
        # gone, and runs its abort path — otherwise it leaks forever
        # with the tombstone still flagged migrating.
        if cell.idle is not None:
            cell.idle.trigger()

    def crash_server(self, server: Server) -> List[ActorRef]:
        """Fail a server: its actors are lost, callers get None replies.

        Models an instance failure.  Fault tolerance for the lost
        *application state* is the host language runtime's job (paper
        §2.2 — PLASMA inherits it); what this exercises is that the
        elasticity runtime and surviving actors keep operating.  Returns
        the refs of the actors that were lost.

        Subscribed hooks receive ``on_server_crashed(server, lost)`` with
        the dead records as tombstones; the elasticity runtime uses them
        to cancel the server's LEM immediately (the LEM process dies with
        its host) and, once its failure detector confirms the silence, to
        resurrect the lost actors via :meth:`resurrect_actor`.
        """
        lost_records = list(self.directory.on_server(server))
        lost = [record.ref for record in lost_records]
        self._crashing = True
        try:
            for ref in lost:
                self.destroy_actor(ref)
        finally:
            self._crashing = False
        if self.overload is not None:
            self.overload.note_server_crashed(server.name)
        if server in self.provisioner.servers:
            self.provisioner.retire_server(server)
        else:
            server.shutdown()
        for hooks in self.hooks:
            hooks.on_server_crashed(server, lost_records)
        return lost

    def resurrect_actor(self, tombstone: ActorRecord,
                        server: Optional[Server] = None) -> Optional[ActorRef]:
        """Re-create an actor lost to a server crash.

        The new instance is built from the tombstone's recorded
        constructor arguments — application state carried in ``__init__``
        args survives; everything mutated afterwards is lost, matching
        the paper's §2.2 division of labour (durable-state recovery
        belongs to the host language runtime).  The original
        :class:`ActorRef` is reused so held refs, client handles, and
        EPL ref-joins keep working; placement goes through the installed
        placement policy (PLASMA's rule-aware path) unless ``server`` is
        given.  Returns ``None`` when the ref is already live again or no
        running server exists.
        """
        ref = tombstone.ref
        if self.directory.try_lookup(ref.actor_id) is not None:
            return None
        cls = type(tombstone.instance)
        chosen = server
        if chosen is None:
            chosen = self._choose_server(
                cls, [s for s in self.provisioner.servers if s.running], None)
            if chosen is None:
                return None

        # The new instance consumes its own deep copy of the recorded
        # constructor arguments (and _spawn stores another on the new
        # record).  Without it, mutable arg elements would be aliased
        # between the instance and every earlier generation's tombstone
        # — a later in-place mutation would silently rewrite
        # "spawn-time" state across generations.
        record = self._spawn(cls, chosen,
                             copy.deepcopy(tombstone.spawn_args),
                             copy.deepcopy(tombstone.spawn_kwargs), ref=ref)
        if self.durability is not None:
            # State-preserving recovery: overwrite the fresh spawn-time
            # state with the last acknowledged checkpoint (if any replica
            # of one is readable from here) before anyone can observe or
            # message the actor — nothing interleaves inside this call.
            self.durability.on_restore(record)
        for hooks in self.hooks:
            hooks.on_actor_resurrected(record)
        return ref

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def client_call(self, ref: ActorRef, function: str, *args: Any,
                    size_bytes: float = 512.0,
                    reply_bytes: float = DEFAULT_REPLY_BYTES,
                    deadline_ms: Optional[float] = None) -> Signal:
        """Invoke ``function`` on ``ref`` from an external client.

        Returns the reply signal; yield it from a client process.
        ``deadline_ms`` (absolute sim time) lets the ``deadline``
        shedding policy drop the message if it arrives too late.
        """
        reply = Signal(self.sim)
        message = Message(
            target_id=ref.actor_id, function=function, args=tuple(args),
            caller_kind=CLIENT_KIND, caller_id=None, size_bytes=size_bytes,
            reply=reply, reply_bytes=reply_bytes, sent_at=self.sim.now,
            deadline_ms=deadline_ms)
        if self.overload is not None:
            self.overload.note_issued(message)
        self._route(None, message)
        return reply

    def _actor_call(self, actor: Actor, ref: ActorRef, function: str,
                    args: Tuple[Any, ...], size_bytes: float) -> Signal:
        reply = Signal(self.sim)
        self._send_from_actor(actor, ref, function, args, size_bytes, reply)
        return reply

    def _actor_tell(self, actor: Actor, ref: ActorRef, function: str,
                    args: Tuple[Any, ...], size_bytes: float) -> None:
        self._send_from_actor(actor, ref, function, args, size_bytes, None)

    def _send_from_actor(self, actor: Actor, ref: ActorRef, function: str,
                         args: Tuple[Any, ...], size_bytes: float,
                         reply: Optional[Signal]) -> None:
        message = Message(
            target_id=ref.actor_id, function=function, args=tuple(args),
            caller_kind=actor.type_name, caller_id=actor.actor_id,
            size_bytes=size_bytes, reply=reply, sent_at=self.sim.now)
        # A dead incarnation's send has no source server to leave from.
        record = actor._record
        self._route(record if record.cell is not None else None, message)

    def _actor_sleep(self, delay_ms: float) -> Waitable:
        return Timeout(self.sim, delay_ms)

    def _actor_compute(self, actor: Actor, cpu_ms: float) -> Waitable:
        record = actor._record
        if record.cell is None:
            # This incarnation died (server crash) while its handler was
            # mid flight — e.g. between two chunks of a chunked compute.
            # Its caller already received a None reply from
            # destroy_actor, so park the orphaned handler on a signal
            # that never fires.
            return Signal(self.sim)
        job_done = record.server.execute(cpu_ms, owner=record)
        wrapped = Signal(self.sim)

        def charge(busy_ms: float) -> None:
            for hooks in self.hooks:
                hooks.on_compute(record, busy_ms)
            wrapped.trigger(busy_ms)

        job_done._subscribe(charge)
        return wrapped

    # -- routing -----------------------------------------------------------

    def _route(self, src_record: Optional[ActorRecord],
               message: Message) -> None:
        """First-hop routing from the sender's current server."""
        target = self.directory.try_lookup(message.target_id)
        if target is None:
            if self.overload is not None:
                self.overload.note_no_target(message)
            if message.reply is not None:
                message.reply.trigger(None)
            return
        src_server = src_record.server if src_record is not None else None
        message.remote = src_server is not target.server
        if message.remote and self.fabric.drop_message(src_server,
                                                       target.server):
            # Lost in transit (chaos fault): the message never arrives
            # and no reply fires — recovery is the caller's timeout/retry.
            if self.overload is not None:
                self.overload.note_fabric_lost(message)
            return
        delay = self.fabric.delivery_delay(
            src_server, target.server, message.size_bytes)
        if src_record is not None and message.remote:
            for hooks in self.hooks:
                hooks.on_bytes_sent(src_record, message.size_bytes)
        if message.remote or delay <= 0.0:
            self.sim.schedule(delay, self._deliver, message, target.server)
            return
        # Local fast path: co-located sends due at the same instant on
        # the same server ride one engine event.  Coalescing is valid
        # only while the scheduler's admission stamp is unchanged since
        # the batch was scheduled: the batched messages then hold
        # consecutive sequence numbers with nothing between them, so
        # delivering in append order at `due` is bit-identical to the
        # unbatched event order.  Any other schedule() closes the batch
        # (conservatively — correctness never depends on coalescing).
        due = self.sim.now + delay
        batch = self._local_batch
        if (batch is not None and batch[0] == due
                and batch[1] is target.server
                and batch[2] == self.sim.schedule_seq):
            batch.append(message)
            return
        batch = [due, target.server, 0, message]
        self.sim.schedule(delay, self._deliver_batch, batch)
        batch[2] = self.sim.schedule_seq
        self._local_batch = batch

    def _deliver_batch(self, batch: List[Any]) -> None:
        """Deliver a coalesced run of local messages in send order."""
        server = batch[1]
        for index in range(3, len(batch)):
            self._deliver(batch[index], server)

    def _deliver(self, message: Message, arrived_at: Server) -> None:
        """Message arrival at a server; forwards if the actor moved."""
        target = self.directory.try_lookup(message.target_id)
        if target is None:
            if self.overload is not None:
                self.overload.note_dead_target(message)
            if message.reply is not None:
                message.reply.trigger(None)
            return
        if target.server is not arrived_at and message.forwards < _MAX_FORWARDS:
            # The actor moved while the message was in flight: the old
            # host forwards it, paying one more network hop (which a
            # degraded or partitioned fabric may also lose).
            if self.fabric.drop_message(arrived_at, target.server):
                if self.overload is not None:
                    self.overload.note_fabric_lost(message)
                return
            message.forwards += 1
            delay = self.fabric.delivery_delay(
                arrived_at, target.server, message.size_bytes)
            self.sim.schedule(delay, self._deliver, message, target.server)
            return
        cell = target.cell
        if self.overload is not None and not self._admit(
                message, target, cell.mailbox, arrived_at):
            return
        for hooks in self.hooks:
            hooks.on_message_delivered(target, message)
            if message.remote or message.forwards:
                hooks.on_bytes_received(target, message.size_bytes)
        self._put(target, cell, message)
        if self.overload is not None:
            self.overload.note_mailbox_depth(len(cell.mailbox))

    def _admit(self, message: Message, target: ActorRecord, mailbox: Sized,
               arrived_at: Server) -> bool:
        """Overload-protection checkpoint at the mailbox door.

        Returns True when the message may enter the mailbox; otherwise
        the message's fate (NACK, drop, or backpressured retry) has
        already been settled here.  Ordering matters: expired work is
        waste regardless of queue depth, admission control protects the
        whole server, and the mailbox bound protects the one actor.
        """
        overload = self.overload
        config = overload.config
        now = self.sim.now
        if (config.policy == "deadline" and message.deadline_ms is not None
                and now >= message.deadline_ms):
            overload.note_shed(message, target.server.name,
                               target.ref.actor_id, reason="deadline")
            for hooks in self.hooks:
                hooks.on_message_shed(target, message, "deadline")
            if message.reply is not None:
                # The caller's timeout already fired; this trigger is a
                # no-op kept for symmetry with the shed path.
                message.reply.trigger(Overloaded("deadline"))
            return False
        if message.is_client_call() and (
                (config.admission_queue_depth
                 and len(mailbox) >= config.admission_queue_depth)
                or (config.admission_cpu_perc
                    and target.server.cpu_percent(
                        config.admission_cpu_window_ms)
                    >= config.admission_cpu_perc)):
            overload.note_rejected(message)
            for hooks in self.hooks:
                hooks.on_request_rejected(target, message)
            if message.reply is not None:
                message.reply.trigger(Overloaded("admission"))
            return False
        capacity = config.mailbox_capacity
        if capacity and len(mailbox) >= capacity:
            if config.policy == "block":
                # Credit-based backpressure: the message stays the
                # sender's problem until the receiver drains a slot.
                overload.note_backpressure(message)
                self.sim.schedule(config.block_retry_ms, self._deliver,
                                  message, arrived_at)
                return False
            # shed / deadline policies: deterministic drop-newest.
            overload.note_shed(message, target.server.name,
                               target.ref.actor_id)
            for hooks in self.hooks:
                hooks.on_message_shed(target, message, "shed")
            if message.reply is not None:
                message.reply.trigger(
                    Overloaded("shed") if message.is_client_call()
                    else None)
            return False
        return True

    # -- dispatch -------------------------------------------------------------

    def _put(self, record: ActorRecord, cell: ActorCell, item: Any) -> None:
        """Hand ``item`` to an armed dispatcher (its :meth:`_run` is one
        zero-delay hop away), or queue it."""
        if cell.armed:
            cell.armed = False
            cell.handed = item
            self.sim.schedule(0.0, self._run, record, cell, item)
            return
        mailbox = cell.mailbox
        if mailbox is _NO_MAIL:
            mailbox = cell.mailbox = deque()
        mailbox.append(item)

    def _arm(self, record: ActorRecord, cell: ActorCell) -> None:
        """The dispatcher is ready: take the next queued item, or wait."""
        mailbox = cell.mailbox
        if mailbox:
            item = cell.handed = mailbox.popleft()
            self.sim.schedule(0.0, self._run, record, cell, item)
        else:
            cell.armed = True

    def _run(self, record: ActorRecord, cell: ActorCell, item: Any) -> None:
        if cell.handed is not item:
            return  # reclaimed by _stop_dispatch
        cell.handed = None
        if item is _STOP:
            return
        if self.overload is not None:
            self.overload.note_consumed(item)
        if cell.gate is not None:
            # Migration in progress: serve once the gate opens.
            cell.gate._subscribe(partial(self._serve, record, cell, item))
            return
        self._serve(record, cell, item)

    def _serve(self, record: ActorRecord, cell: ActorCell, message: Message,
               _opened: Any = None) -> None:
        cell.busy = True
        cell.current = message
        try:
            handler = getattr(record.instance, message.function, None)
            if handler is None:
                raise AttributeError(
                    f"{record.ref} has no function {message.function!r}")
            result = handler(*message.args)
        except Interrupted:  # ends the dispatcher silently, as in a Driver
            self._served(record, cell, message, None, failed=True)
            return
        except BaseException:
            self._served(record, cell, message, None, failed=True)
            raise
        if hasattr(result, "send"):  # generator handler
            _HandlerRun(self, record, cell, message, result)._step(None, None)
        else:
            self._served(record, cell, message, result, failed=False)

    def _served(self, record: ActorRecord, cell: ActorCell, message: Message,
                result: Any, failed: bool) -> None:
        """The handler ended.  A failed one leaves the dispatcher
        disarmed for good: its error ends the run, as it always has."""
        cell.busy = False
        cell.current = None
        idle, cell.idle = cell.idle, None
        if idle is not None:
            idle.trigger()
        if failed:
            return
        if message.reply is not None:
            self._send_reply(record, message, result)
        self._arm(record, cell)

    def _send_reply(self, record: ActorRecord, message: Message,
                    result: Any) -> None:
        if message.caller_id is not None:
            caller = self.directory.try_lookup(message.caller_id)
            caller_server = caller.server if caller is not None else None
        else:
            caller_server = None  # external client
        delay = self.fabric.delivery_delay(
            record.server, caller_server, message.reply_bytes) \
            if caller_server is not None else \
            self.fabric.delivery_delay(None, record.server, message.reply_bytes)
        if caller_server is not None and caller_server is not record.server:
            for hooks in self.hooks:
                hooks.on_bytes_sent(record, message.reply_bytes)
        self.sim.schedule(delay, message.reply.trigger, result)

    # ------------------------------------------------------------------
    # live migration
    # ------------------------------------------------------------------

    def migrate_actor(self, ref: ActorRef, target: Server,
                      force: bool = False) -> Signal:
        """Live-migrate ``ref`` to ``target`` (prepare/transfer/commit).

        Returns a signal fired with ``True`` when the migration completed,
        or ``False`` if it was skipped (actor gone, already migrating,
        pinned, or already on ``target``) or rolled back.  The actor
        finishes its current message, its mailbox is gated, the
        destination prepares a landing record, state is transferred
        (delay grows with ``state_size_mb``), then the commit flips the
        directory record and processing resumes on the target.

        Each protocol phase tolerates a severed link: when the prepare or
        commit ack cannot cross a partition, the source waits one
        :attr:`migration_phase_timeout_ms`, re-probes, and on failure
        rolls back — the actor stays live on the source and the
        destination discards its prepared copy, so exactly one live copy
        exists under any partition schedule.  With no partition active
        the protocol's timing is identical to the fire-and-forget path
        (the prepare/commit round trip is the RTT already inside
        :meth:`NetworkFabric.transfer_delay`).

        ``force`` moves the actor even if pinned — used by elasticity
        behaviors that explicitly name the actor (``reserve`` outranks
        ``pin`` in PLASMA's priority order).
        """
        done = Signal(self.sim)
        record = self._begin_migration(ref, target, force)
        if record is None:
            done.trigger(False)
            return done
        gate = record.cell.gate = Signal(self.sim)
        spawn(self.sim, self._migration_proc(record, target, gate, done),
              name=f"migrate/{ref}")
        return done

    def _link_severed(self, src: Server, dst: Server) -> bool:
        """A migration phase needs a request *and* its ack to cross, so
        the link counts as severed when either direction is blocked."""
        return (self.fabric.link_blocked(src, dst)
                or self.fabric.link_blocked(dst, src))

    def _abort_lost(self, record: ActorRecord, gate: Signal, done: Signal,
                    source: Server, target: Server) -> None:
        # The actor died mid-protocol (its source server crashed):
        # destroy_actor already settled memory and dropped the cell,
        # prepared-copy note included.  What is left is the tombstone's
        # in-progress flag, which nothing else would ever clear.
        record.migrating = False
        gate.trigger()
        done.trigger(False)
        for hooks in self.hooks:
            hooks.on_migration_aborted(record, source, target, "actor-lost")

    def _rollback(self, record: ActorRecord, gate: Signal, done: Signal,
                  source: Server, target: Server, reason: str) -> None:
        # Source keeps the live actor; the destination discards its
        # prepared copy (nothing was ever allocated there).
        cell = record.cell
        cell.prepared_on = None
        self.migrations_rolled_back += 1
        record.migrating = False
        cell.gate = None
        gate.trigger()
        done.trigger(False)
        for hooks in self.hooks:
            hooks.on_migration_aborted(record, source, target, reason)

    def _migration_proc(self, record: ActorRecord, target: Server,
                        gate: Signal, done: Signal):
        cell = record.cell
        # Wait for the in-flight handler (if any) to finish.
        if cell is not None and cell.busy:
            if cell.idle is None:
                cell.idle = Signal(self.sim)
            yield cell.idle
        if record.cell is None:
            # The actor died before this proc's first step, or
            # destroy_actor woke us while we drained its handler.
            self._abort_lost(record, gate, done, record.server, target)
            return
        source = record.server
        if not target.running:
            # The destination died while we drained the in-flight
            # handler.  This is a rollback like any other: hooks (the
            # invariant checker's single-flight tracking, durability's
            # journal, availability accounting) must see the abort, not
            # a migration that silently vanishes mid-protocol.
            self._rollback(record, gate, done, source, target,
                           "target-crashed")
            return
        # PREPARE: ask the destination to set up a landing record.  On a
        # severed link the ack never comes; wait one phase timeout for a
        # heal, then roll back with no bytes transferred.
        if self._link_severed(source, target):
            yield Timeout(self.sim, self.migration_phase_timeout_ms)
            if record.cell is None:
                self._abort_lost(record, gate, done, source, target)
                return
            if not target.running or self._link_severed(source, target):
                self._rollback(record, gate, done, source, target,
                               "prepare-timeout")
                return
        # Purely logical: memory is allocated only at commit, so a
        # rollback leaves no trace on the destination.
        cell.prepared_on = target
        if self.durability is not None:
            self.durability.on_migration_prepared(record, source, target)
        # TRANSFER: full state over the slower NIC (plus the protocol's
        # control RTT, already part of transfer_delay).  With durability
        # on, the transfer ships a checkpoint whose sole replica is the
        # target: commit acknowledges it, rollback restores from it.
        if self.durability is not None:
            self.durability.on_migration_transfer(record, source, target)
        state_bytes = record.instance.state_size_mb * 1024.0 * 1024.0
        delay = self.fabric.transfer_delay(source, target, state_bytes)
        yield Timeout(self.sim, delay)
        if record.cell is None:
            self._abort_lost(record, gate, done, source, target)
            return
        if not target.running:
            # The destination died mid-transfer: the actor stays live on
            # its source with nothing allocated on the target.
            self._rollback(record, gate, done, source, target,
                           "target-crashed")
            return
        # COMMIT: a partition that opened mid-transfer blocks the commit
        # ack.  Hold the prepared copy for one phase timeout in case the
        # partition heals (the migration then commits late); otherwise
        # roll back — never commit blind across a cut.
        if self._link_severed(source, target):
            yield Timeout(self.sim, self.migration_phase_timeout_ms)
            if record.cell is None:
                self._abort_lost(record, gate, done, source, target)
                return
            if not target.running:
                self._rollback(record, gate, done, source, target,
                               "target-crashed")
                return
            if self._link_severed(source, target):
                self._rollback(record, gate, done, source, target,
                               "commit-timeout")
                return
        cell.prepared_on = None
        cell.gate = None
        # The dispatcher parked on the gate resumes at the next kernel
        # step, by which time the record below has flipped.
        gate.trigger()
        self._commit_migration(record, target)
        done.trigger(True)


class _HandlerRun(Driver):
    """Steps one generator handler for that handler's lifetime; the
    first step runs synchronously inside :meth:`ActorSystem._serve`."""

    __slots__ = ("_system", "_record", "_cell", "_message")

    def __init__(self, system: ActorSystem, record: ActorRecord,
                 cell: ActorCell, message: Message, handler: Any) -> None:
        super().__init__(system.sim, handler)
        self._system = system
        self._record = record
        self._cell = cell
        self._message = message

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dispatch/{self._record.ref}"

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        self._finished = True
        self._system._served(self._record, self._cell, self._message, result,
                             failed=exception is not None)
