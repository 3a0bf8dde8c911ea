"""In-memory replicated state store.

The store is the bookkeeping half of the durability subsystem: it holds
checkpoints (with their replica sets), hands out per-actor sequence
numbers, and keeps the write-ahead journal.  It is deliberately passive
— all timing, cost charging, and replica placement lives in
``DurabilityManager``; the store never touches the simulation clock.

A checkpoint's replica set is a tuple of live ``Server`` objects.  When
a server crashes the manager calls :meth:`StateStore.discard_replicas_on`
and every copy hosted there is gone — a checkpoint whose replica set
empties out is unrecoverable, which is exactly the state-loss the
replication factor exists to buy down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.server import Server

__all__ = ["Checkpoint", "JournalEntry", "StateStore", "state_digest"]

#: Journal retention cap; entries are trimmed from the front beyond it.
#: Sequence numbers are global and survive trimming, so replay marks
#: stay valid.
_JOURNAL_CAP = 50_000

#: Checkpoint retention per actor: acknowledged checkpoints older than
#: the newest this many are pruned.
MAX_CHECKPOINTS_PER_ACTOR = 4


def state_digest(state: Dict[str, Any]) -> str:
    """Deterministic content digest of a snapshot payload.

    Stable within a run (and across identical runs): the payload is a
    plain dict of deep-copied state fields whose reprs are themselves
    deterministic under the simulator's determinism contract.
    """
    text = repr(sorted(state.items(), key=lambda kv: kv[0]))
    return hashlib.sha1(text.encode("utf-8", "backslashreplace")).hexdigest()[:16]


@dataclass
class Checkpoint:
    """One acknowledged-or-in-flight snapshot of one actor's state."""

    actor_id: int
    type_name: str
    seq: int
    taken_at: float
    state: Dict[str, Any]
    size_bytes: float
    trigger: str                      # "create"|"periodic"|"dirty"|"resurrect"|"transfer"
    journal_mark: int                 # global journal seq at snapshot time
    digest: str
    replicas: Tuple["Server", ...] = ()
    acked_at: Optional[float] = None
    aborted: bool = False

    @property
    def acked(self) -> bool:
        return self.acked_at is not None

    @property
    def replica_names(self) -> Tuple[str, ...]:
        return tuple(server.name for server in self.replicas)


@dataclass(frozen=True)
class JournalEntry:
    """One write-ahead record of a directory or migration transition."""

    seq: int
    time_ms: float
    kind: str
    actor_id: int
    detail: Dict[str, Any] = field(default_factory=dict)


class StateStore:
    """Checkpoints plus write-ahead journal, indexed by actor id."""

    def __init__(self) -> None:
        self.journal: List[JournalEntry] = []
        self._checkpoints: Dict[int, List[Checkpoint]] = {}
        self._seq: Dict[int, int] = {}
        self._journal_seq = 0
        self._journal_trimmed = 0
        # Counters (monotonic; surfaced through summary()).
        self.checkpoints_written = 0
        self.checkpoints_acked = 0
        self.checkpoints_lost = 0     # aborted mid-write or all replicas dead at ack
        self.bytes_replicated = 0.0
        self.replicas_discarded = 0

    # ------------------------------------------------------------------
    # checkpoints

    def next_seq(self, actor_id: int) -> int:
        seq = self._seq.get(actor_id, 0) + 1
        self._seq[actor_id] = seq
        return seq

    def add(self, checkpoint: Checkpoint) -> None:
        history = self._checkpoints.setdefault(checkpoint.actor_id, [])
        if history and checkpoint.seq <= history[-1].seq:
            raise ValueError(
                f"checkpoint seq regression for actor {checkpoint.actor_id}: "
                f"{checkpoint.seq} after {history[-1].seq}")
        history.append(checkpoint)
        self.checkpoints_written += 1

    def ack(self, checkpoint: Checkpoint, now: float) -> None:
        checkpoint.acked_at = now
        self.checkpoints_acked += 1
        self.bytes_replicated += checkpoint.size_bytes * len(checkpoint.replicas)
        self._prune(checkpoint.actor_id)

    def latest_acked(self, actor_id: int,
                     usable: Optional[Callable[["Server"], bool]] = None
                     ) -> Optional[Checkpoint]:
        """Newest acknowledged checkpoint with at least one usable replica.

        ``usable`` filters replicas (running, reachable, quorate —
        policy belongs to the caller); without it any surviving replica
        qualifies.
        """
        for checkpoint in reversed(self._checkpoints.get(actor_id, ())):
            if not checkpoint.acked or checkpoint.aborted:
                continue
            replicas = checkpoint.replicas
            if usable is not None:
                replicas = tuple(s for s in replicas if usable(s))
            if replicas:
                return checkpoint
        return None

    def readable_replicas(self, checkpoint: Checkpoint,
                          usable: Optional[Callable[["Server"], bool]] = None
                          ) -> Tuple["Server", ...]:
        if usable is None:
            return checkpoint.replicas
        return tuple(s for s in checkpoint.replicas if usable(s))

    def checkpoints(self, actor_id: int) -> Tuple[Checkpoint, ...]:
        return tuple(self._checkpoints.get(actor_id, ()))

    def discard_replicas_on(self, server: "Server") -> int:
        """A server crashed: every checkpoint copy it hosted is gone."""
        discarded = 0
        for history in self._checkpoints.values():
            for checkpoint in history:
                if server in checkpoint.replicas:
                    checkpoint.replicas = tuple(
                        s for s in checkpoint.replicas if s is not server)
                    discarded += 1
        self.replicas_discarded += discarded
        return discarded

    def _prune(self, actor_id: int) -> None:
        history = self._checkpoints.get(actor_id)
        if history is None:
            return
        acked = [cp for cp in history if cp.acked]
        if len(acked) <= MAX_CHECKPOINTS_PER_ACTOR:
            return
        drop = set(id(cp) for cp in acked[:-MAX_CHECKPOINTS_PER_ACTOR])
        self._checkpoints[actor_id] = [
            cp for cp in history if id(cp) not in drop]

    # ------------------------------------------------------------------
    # journal

    def append_journal(self, kind: str, actor_id: int, time_ms: float,
                       **detail: Any) -> JournalEntry:
        self._journal_seq += 1
        entry = JournalEntry(seq=self._journal_seq, time_ms=time_ms,
                             kind=kind, actor_id=actor_id, detail=detail)
        self.journal.append(entry)
        if len(self.journal) > _JOURNAL_CAP:
            trim = len(self.journal) - _JOURNAL_CAP
            del self.journal[:trim]
            self._journal_trimmed += trim
        return entry

    @property
    def journal_mark(self) -> int:
        """Current global journal sequence (snapshot position marker)."""
        return self._journal_seq

    def journal_since(self, actor_id: int, mark: int) -> List[JournalEntry]:
        """Entries for ``actor_id`` written after journal position ``mark``."""
        return [entry for entry in self.journal
                if entry.actor_id == actor_id and entry.seq > mark]

    # ------------------------------------------------------------------
    # inspection

    def summary(self) -> Dict[str, Any]:
        """JSON-able view for the CLI ``store`` command and tests."""
        actors = []
        for actor_id in sorted(self._checkpoints):
            history = self._checkpoints[actor_id]
            last_acked = None
            for checkpoint in reversed(history):
                if checkpoint.acked and not checkpoint.aborted:
                    last_acked = checkpoint
                    break
            actors.append({
                "actor_id": actor_id,
                "type": history[-1].type_name if history else "?",
                "written": self._seq.get(actor_id, 0),
                "kept": len(history),
                "acked_seq": last_acked.seq if last_acked else None,
                "acked_at_ms": last_acked.acked_at if last_acked else None,
                "size_bytes": last_acked.size_bytes if last_acked else 0.0,
                "replicas": list(last_acked.replica_names) if last_acked else [],
            })
        journal_kinds: Dict[str, int] = {}
        for entry in self.journal:
            journal_kinds[entry.kind] = journal_kinds.get(entry.kind, 0) + 1
        return {
            "actors": actors,
            "journal": {
                "entries": len(self.journal),
                "trimmed": self._journal_trimmed,
                "kinds": dict(sorted(journal_kinds.items())),
            },
            "totals": {
                "checkpoints_written": self.checkpoints_written,
                "checkpoints_acked": self.checkpoints_acked,
                "checkpoints_lost": self.checkpoints_lost,
                "bytes_replicated": self.bytes_replicated,
                "replicas_discarded": self.replicas_discarded,
            },
        }
