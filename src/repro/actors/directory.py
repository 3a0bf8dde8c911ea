"""Actor directory: the location service, and the one record per actor.

Maps actor ids to the :class:`ActorRecord` of the incarnation currently
registered under that id.  The record carries everything either runtime
knows about the incarnation: where it is placed and the bookkeeping the
elasticity runtime needs (pinned flag, last migration time for the
placement-stability window, migration-in-progress state), and — on
:attr:`ActorRecord.cell` — its runtime state (mailbox, gate, busy flag,
in-flight message).  There are no tables beside the directory: a
resurrected actor reuses its id but gets a *new* record and cell, so a
handler left over from the dead incarnation can only ever touch its own.

Beside the id map the directory keeps one index, ``server → records
hosted there``, so that "who lives on this server?" — the question every
LEM round opens with — costs what that server holds, not what the fleet
holds.  ``register``, ``unregister`` and :meth:`Directory.place` maintain
it, and ``place`` is the only code that writes
:attr:`ActorRecord.server`; the whole-map scan it replaced survives as
the oracle in ``tests/actors/test_directory_index.py``.
In the paper this is part of AEON's distributed runtime; a single
authoritative map reproduces its observable behaviour (lookups may be
stale only during a migration, which we model with message forwarding at
the old host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, TYPE_CHECKING

from .refs import ActorRef

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Server
    from .actor import Actor

__all__ = ["ActorCell", "ActorRecord", "Directory"]


class ActorCell:
    """Runtime state of one actor incarnation, owned by its record.

    Each runtime fills the slots with its own kinds of object (a sim
    ``Signal`` or an asyncio ``Event``); the shared lifecycle code only
    creates, hands over and drops the cell.
    """

    __slots__ = ("mailbox", "gate", "busy", "current", "idle", "task",
                 "prepared_on", "armed", "handed")

    def __init__(self, mailbox: Any) -> None:
        #: Messages waiting for the dispatcher; ``len()`` is the depth.
        self.mailbox = mailbox
        #: Closed while a migration holds the actor; ``None`` otherwise.
        self.gate: Any = None
        #: A handler is running.
        self.busy = False
        #: The message that handler is serving.
        self.current: Any = None
        #: What a migration draining the in-flight handler waits on.
        self.idle: Any = None
        #: The live runtime's drain task, while the mailbox has work.
        self.task: Any = None
        #: Destination holding a prepared, not yet committed, copy.
        self.prepared_on: Any = None
        #: Sim dispatcher: waiting for the next message.
        self.armed = False
        #: Sim dispatcher: the item handed over, its run one hop away.
        self.handed: Any = None


@dataclass
class ActorRecord:
    """Directory entry for one actor incarnation."""

    instance: "Actor"
    ref: ActorRef
    server: "Server"
    created_at: float
    pinned: bool = False
    migrating: bool = False
    last_placed_at: float = 0.0
    migrations: int = 0
    #: Control-plane epoch of the decision that last placed this actor
    #: (0 before any partition has ever bumped the epoch).  Anti-entropy
    #: after a partition heal reconciles placement views by this stamp:
    #: the highest epoch wins, so a stale minority-side view can never
    #: overwrite a newer placement.
    placement_epoch: int = 0
    #: Constructor arguments the actor was created with, kept so a crash
    #: tombstone can resurrect the actor (fresh state; §2.2 leaves state
    #: recovery to the host language runtime).
    spawn_args: tuple = ()
    spawn_kwargs: dict = field(default_factory=dict)
    #: Runtime state while the incarnation lives; ``None`` once it is
    #: destroyed, so a tombstone holds no mailbox, gate or handler state.
    cell: Optional[ActorCell] = None
    #: Registration rank, stamped by :meth:`Directory.register`: the
    #: order ``records()`` iterates in, which ``on_server`` reproduces.
    rank: int = 0

    @property
    def type_name(self) -> str:
        return self.ref.type_name


class Directory:
    """Authoritative actor → server map."""

    def __init__(self) -> None:
        self._records: Dict[int, ActorRecord] = {}
        #: server -> {registration rank: record} for the registered
        #: records placed there.  A server hosting nothing has no entry,
        #: so a retired or crashed server is not kept alive from here.
        self._by_server: Dict[Any, Dict[int, ActorRecord]] = {}
        self._next_rank = 0

    def register(self, record: ActorRecord) -> None:
        if record.ref.actor_id in self._records:
            raise ValueError(f"actor {record.ref} already registered")
        self._records[record.ref.actor_id] = record
        record.rank = self._next_rank
        self._next_rank += 1
        self._by_server.setdefault(record.server, {})[record.rank] = record

    def unregister(self, actor_id: int) -> None:
        record = self._records.pop(actor_id, None)
        if record is not None:
            self._unindex(record)

    def place(self, record: ActorRecord, server: "Server") -> None:
        """Move ``record`` to ``server`` — the only writer of
        :attr:`ActorRecord.server`.  A tombstone (a record no longer
        registered) moves without touching the index."""
        if self._records.get(record.ref.actor_id) is record:
            self._unindex(record)
            self._by_server.setdefault(server, {})[record.rank] = record
        record.server = server

    def _unindex(self, record: ActorRecord) -> None:
        hosted = self._by_server[record.server]
        del hosted[record.rank]
        if not hosted:
            del self._by_server[record.server]

    def lookup(self, actor_id: int) -> ActorRecord:
        try:
            return self._records[actor_id]
        except KeyError:
            raise KeyError(f"no live actor with id {actor_id}")

    def try_lookup(self, actor_id: int) -> Optional[ActorRecord]:
        return self._records.get(actor_id)

    def note_commit(self, actor_id: int, epoch: int = 0) -> None:
        """A migration of ``actor_id`` committed.  The flat map has no
        caches to fence, so this is a no-op; the sharded directory
        overrides it with epoch-fenced cache invalidation."""

    def records(self) -> Iterable[ActorRecord]:
        return self._records.values()

    def on_server(self, server: "Server") -> List[ActorRecord]:
        """All actors currently hosted on ``server``, in registration
        order (the order ``records()`` yields them), in time
        proportional to their number.  The list is the caller's own:
        sorting, clearing or walking it while actors die is safe."""
        hosted = self._by_server.get(server)
        if hosted is None:
            return []
        return [hosted[rank] for rank in sorted(hosted)]

    def count_on(self, server: "Server") -> int:
        """How many actors ``server`` hosts, in O(1)."""
        return len(self._by_server.get(server, ()))

    def stale_records(self, epoch: int) -> List[ActorRecord]:
        """Records whose placement predates ``epoch`` — the candidates a
        post-heal anti-entropy pass re-examines (highest epoch wins)."""
        return [rec for rec in self._records.values()
                if rec.placement_epoch < epoch]

    def count(self) -> int:
        return len(self._records)
