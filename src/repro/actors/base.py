"""Lifecycle bookkeeping both actor runtimes share.

:class:`~repro.actors.system.ActorSystem` (simulated time) and
:class:`~repro.live.LiveActorSystem` (asyncio, wall clock) differ in how
a message moves and how a migration waits.  What they *record* about an
actor is the same, and lives here once: the hooks list, the spawn path
(instance wiring, the :class:`ActorRecord`, directory registration, the
memory ledger), destruction, the migration refusal test and commit block,
and the directory queries.

Each runtime supplies :meth:`ActorSystemBase._start_dispatch` — build
the incarnation's :class:`ActorCell` around its own mailbox and ready
its own dispatcher — and the mirror ``_stop_dispatch``, and keeps
everything that differs in kind (server choice, delivery, the migration
protocol's waits).  Nothing here knows which runtime it serves.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterator, List, Optional, Type

from .actor import Actor
from .directory import NO_KWARGS, ActorCell, ActorRecord, Directory
from .hooks import RuntimeHooks
from .refs import ActorRef

__all__ = ["ActorSystemBase"]


class ActorSystemBase:
    """Directory, hooks and per-incarnation bookkeeping of a runtime."""

    def __init__(self, clock: Any, directory: Directory,
                 actor_ids: Iterator[int]) -> None:
        #: Anything with a ``now`` in milliseconds (the simulator, or a
        #: :class:`~repro.live.LiveClock`).
        self.clock = clock
        self.directory = directory
        self.hooks: List[RuntimeHooks] = []
        #: Rule-aware placement of new actors, installed by a running
        #: EMR; may abstain by returning ``None``.
        self.placement_policy: Optional[Callable[..., Any]] = None
        #: Supplies the control-plane epoch stamped onto placement
        #: decisions (set by the elasticity manager; ``None`` stamps 0).
        self.epoch_source: Optional[Callable[[], int]] = None
        self._actor_ids = actor_ids

    # -- hooks ---------------------------------------------------------

    def add_hooks(self, hooks: RuntimeHooks) -> None:
        """Subscribe an observer (typically the profiling runtime)."""
        self.hooks.append(hooks)

    def remove_hooks(self, hooks: RuntimeHooks) -> None:
        """Unsubscribe a previously added observer."""
        self.hooks.remove(hooks)

    # -- incarnations --------------------------------------------------

    def _current_epoch(self) -> int:
        return self.epoch_source() if self.epoch_source is not None else 0

    def _start_dispatch(self, record: ActorRecord) -> None:
        """Set ``record.cell`` and ready the incarnation's dispatcher."""
        raise NotImplementedError

    def _spawn(self, cls: Type[Actor], server: Any, args: tuple,
               kwargs: dict, ref: Optional[ActorRef] = None) -> ActorRecord:
        """Start one incarnation of ``cls`` on ``server``.

        A fresh actor gets the next id; a resurrection passes the
        ``ref`` it revives.  The record keeps its own deep copy of the
        constructor arguments, taken before the constructor can touch
        them, so later in-place mutation by the caller or the instance
        never rewrites what a resurrection will replay.  No keywords
        store the shared, read-only :data:`NO_KWARGS`.
        """
        spawn_args = copy.deepcopy(tuple(args))
        spawn_kwargs = copy.deepcopy(dict(kwargs)) if kwargs else NO_KWARGS
        instance = cls(*args, **kwargs)
        if ref is None:
            ref = ActorRef(actor_id=next(self._actor_ids),
                           type_name=cls.__name__)
        instance.actor_id = ref.actor_id
        instance.ref = ref
        instance._system = self
        now = self.clock.now
        record = ActorRecord(
            instance=instance, ref=ref, server=server,
            created_at=now, last_placed_at=now,
            spawn_args=spawn_args, spawn_kwargs=spawn_kwargs,
            placement_epoch=self._current_epoch())
        # Handler primitives act for this incarnation, not for whoever
        # is registered under its id when they run.
        instance._record = record
        self.directory.register(record)
        server.allocate_memory(instance.state_size_mb)
        self._start_dispatch(record)
        instance.on_start()
        return record

    def _stop_dispatch(self, record: ActorRecord, cell: ActorCell) -> None:
        """End a destroyed incarnation's dispatcher: fail what was
        queued or in flight, wake what was waiting on it."""
        raise NotImplementedError

    def destroy_actor(self, ref: ActorRef) -> None:
        """Remove an actor (no-op if it is already gone).  Its record
        leaves the directory and the memory ledger and drops its cell;
        queued messages are dropped and their callers failed the
        runtime's way."""
        record = self.directory.try_lookup(ref.actor_id)
        if record is None:
            return
        record.server.free_memory(record.instance.state_size_mb)
        self.directory.unregister(ref.actor_id)
        cell, record.cell = record.cell, None
        self._stop_dispatch(record, cell)
        for hooks in self.hooks:
            hooks.on_actor_destroyed(record)

    # -- migration bookkeeping -----------------------------------------

    def _begin_migration(self, ref: ActorRef, target: Any,
                         force: bool) -> Optional[ActorRecord]:
        """Flag ``ref`` as migrating and return its record, or ``None``
        when the move is refused: actor gone, already migrating, pinned
        without ``force``, already on ``target``, or target down."""
        record = self.directory.try_lookup(ref.actor_id)
        if (record is None or record.migrating
                or (record.pinned and not force)
                or record.server is target or not target.running):
            return None
        record.migrating = True
        return record

    def _commit_migration(self, record: ActorRecord, target: Any) -> None:
        """Flip ``record`` to ``target``: memory ledger, placement
        stamps, then the ``on_migrated`` / ``on_actor_migrated``
        notifications."""
        source = record.server
        size_mb = record.instance.state_size_mb
        source.free_memory(size_mb)
        target.allocate_memory(size_mb)
        self.directory.place(record, target)
        record.last_placed_at = self.clock.now
        record.placement_epoch = self._current_epoch()
        record.migrations += 1
        record.migrating = False
        # Epoch-fenced cache invalidation: a sharded directory drops
        # every cached entry for this actor at the commit point (no-op
        # on the flat map).
        self.directory.note_commit(record.ref.actor_id,
                                   record.placement_epoch)
        record.instance.on_migrated(source, target)
        for hooks in self.hooks:
            hooks.on_actor_migrated(record, source, target)

    def pin(self, ref: ActorRef, pinned: bool = True) -> None:
        """Mark an actor immovable (EPL ``pin`` behaviour)."""
        self.directory.lookup(ref.actor_id).pinned = pinned

    # -- queries used by elasticity management and tests ---------------

    def actor_instance(self, ref: ActorRef) -> Actor:
        """The live instance behind ``ref`` (profiling/testing use)."""
        return self.directory.lookup(ref.actor_id).instance

    def server_of(self, ref: ActorRef) -> Any:
        """The server currently hosting ``ref``."""
        return self.directory.lookup(ref.actor_id).server

    def actors_on(self, server: Any) -> List[ActorRecord]:
        """Directory records of all actors hosted on ``server``."""
        return self.directory.on_server(server)

    def mailbox_depth(self, actor_id: int) -> int:
        """Messages currently queued for ``actor_id`` (0 if gone)."""
        record = self.directory.try_lookup(actor_id)
        return len(record.cell.mailbox) if record is not None else 0
