"""What both actor runtimes share: the contract the EMR drives, and the
lifecycle bookkeeping.

:class:`~repro.actors.system.ActorSystem` (simulated time) and
:class:`~repro.live.LiveActorSystem` (asyncio, wall clock) differ in how
a message moves and how a migration waits.  What they *record* about an
actor is the same, and lives here once: the hook subscribers and the
per-message hook tables built from them, the spawn path
(instance wiring, the :class:`ActorRecord`, directory registration, the
memory ledger), destruction, the migration refusal test and commit block,
and the directory queries.  So does the part of the elasticity contract
(see :class:`ActorSystemBase`) that does not depend on the clock.

Each runtime supplies :meth:`ActorSystemBase._start_dispatch` — build
the incarnation's :class:`ActorCell` around its own mailbox and ready
its own dispatcher — and the mirror ``_stop_dispatch``, the contract
verbs that do depend on the clock or the fleet, and everything else that
differs in kind (server choice, delivery, the migration protocol's
waits).  Nothing here knows which runtime it serves.
"""

from __future__ import annotations

import copy
from itertools import count
from typing import Any, Callable, List, Optional, Tuple, Type

from ..sim import RandomStreams
from .actor import Actor
from .directory import NO_KWARGS, ActorCell, ActorRecord, Directory
from .hooks import RuntimeHooks
from .refs import ActorRef

__all__ = ["ActorSystemBase"]


class ActorSystemBase:
    """The surface an elasticity runtime needs from an actor runtime.

    PLASMA's EMR is decoupled from the actor runtime (paper §2): LEMs
    and GEMs consume profiling snapshots and drive a narrow
    migrate/pin/place API.  Both runtimes inherit this class and the
    :class:`~repro.core.emr.ElasticityManager` drives either one through
    the same members, reading nothing else off it but ``clock`` and
    ``directory`` (an AST gate in ``tests/integration/test_api_quality.py``
    holds it to that list):

    * **clock** — :attr:`now` in milliseconds (virtual or wall) and
      ``schedule(delay_ms, callback, *args)``.  That pair is all
      :class:`repro.sim.Process`, :class:`~repro.sim.Timeout` and
      :class:`~repro.sim.Signal` need, so the LEM/GEM generator protocol
      runs over either runtime unchanged; :meth:`rng_stream` hands out
      the named random streams the control plane draws from;
    * **control surface** — ``start_migration`` / :meth:`pin` /
      ``resurrect_actor``, plus :meth:`install` / :meth:`uninstall` for
      what a running EMR plugs into the data plane (rule-aware placement
      of new actors, the epoch source, overload protection).
      ``start_migration`` returns the runtime's completion handle — a
      :class:`~repro.sim.Signal` under the simulator, an
      :class:`asyncio.Task` under the live runtime — which a
      fire-and-continue caller may ignore;
    * **fleet verbs** — ``running_servers`` / ``boot_server`` /
      ``retire_server`` / ``pending_boots``, how GEMs scale the fleet;
    * **observation surface** — :meth:`actors_on` / :meth:`mailbox_depth`
      plus hook registration: subscribers hear of actors, messages and
      servers joining, retiring or crashing through
      :class:`~repro.actors.hooks.RuntimeHooks`.

    Time is always milliseconds as float, so meters, windows and policy
    periods carry over unchanged between runtimes.
    """

    def __init__(self, clock: Any, directory: Directory,
                 streams: Optional[RandomStreams] = None) -> None:
        #: Anything with a ``now`` in milliseconds (the simulator, or a
        #: :class:`~repro.live.LiveClock`).  Meters read ``clock.now``
        #: once per profiled message, so they are handed this directly.
        self.clock = clock
        self.directory = directory
        self.streams = streams or RandomStreams()
        #: Subscribers in subscription order; read-only, so a change
        #: goes through :meth:`add_hooks` / :meth:`remove_hooks`, which
        #: keep the hot-hook tables in step with it.
        self.hooks: Tuple[RuntimeHooks, ...] = ()
        self._rebuild_hook_tables()
        #: Rule-aware placement of new actors, installed by a running
        #: EMR; may abstain by returning ``None``.
        self.placement_policy: Optional[Callable[..., Any]] = None
        #: Supplies the control-plane epoch stamped onto placement
        #: decisions (set by the elasticity manager; ``None`` stamps 0).
        self.epoch_source: Optional[Callable[[], int]] = None
        #: Overload-protection subsystem (``repro.overload``), installed
        #: by the elasticity manager when its config enables it; ``None``
        #: keeps every overload call site a single attribute check and
        #: the delivery path byte-identical to an unprotected run.
        self.overload: Any = None
        #: This runtime's actor and message ids, each counted from 1.
        self._actor_ids = count(1)
        self._message_ids = count(1)

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time in milliseconds since the runtime epoch."""
        return self.clock.now

    def rng_stream(self, name: str) -> Any:
        """The runtime's named ``random.Random`` stream (cached by name)."""
        return self.streams.stream(name)

    # -- what a running EMR plugs into the data plane -------------------

    def install(self, placement_policy: Any,
                epoch_source: Callable[[], int],
                overload: Optional[Any]) -> None:
        """Plug a starting EMR into the data plane: rule-aware placement
        of new actors, the control-plane epoch stamped on placements,
        and (when configured) the shared overload-protection state."""
        self.placement_policy = placement_policy
        self.epoch_source = epoch_source
        if overload is not None:
            self.overload = overload

    def uninstall(self, placement_policy: Any,
                  overload: Optional[Any]) -> None:
        """Undo :meth:`install` (only what is still this EMR's)."""
        if overload is not None and self.overload is overload:
            self.overload = None
        if self.placement_policy is placement_policy:
            self.placement_policy = None
        self.epoch_source = None

    # -- hooks ---------------------------------------------------------

    def add_hooks(self, hooks: RuntimeHooks) -> None:
        """Subscribe an observer (typically the profiling runtime)."""
        self.hooks += (hooks,)
        self._rebuild_hook_tables()

    def remove_hooks(self, hooks: RuntimeHooks) -> None:
        """Unsubscribe an observer (no-op if it is not subscribed)."""
        if hooks in self.hooks:
            index = self.hooks.index(hooks)
            self.hooks = self.hooks[:index] + self.hooks[index + 1:]
            self._rebuild_hook_tables()

    def _rebuild_hook_tables(self) -> None:
        """Rebuild the tables of the hooks every message or compute
        calls: the bound methods of the subscribers whose class
        overrides that hook, in subscription order.  A method is bound
        here, when the subscribers change, so a table holds the one the
        class has then."""
        def table(name: str) -> Tuple[Callable[..., None], ...]:
            noop = getattr(RuntimeHooks, name)
            return tuple(getattr(hooks, name) for hooks in self.hooks
                         if getattr(type(hooks), name) is not noop)

        self._on_message_delivered = table("on_message_delivered")
        self._on_bytes_received = table("on_bytes_received")
        self._on_bytes_sent = table("on_bytes_sent")
        self._on_compute = table("on_compute")

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
