"""The durability runtime: checkpoint protocol and state-preserving recovery.

``DurabilityManager`` attaches to the actor runtime through the same
:class:`~repro.actors.hooks.RuntimeHooks` observation interface the
profiler uses, plus two explicit call sites inside the migration
protocol (prepare and transfer — there is no hook at those points).  It
owns a :class:`~repro.durability.store.StateStore` and drives the
checkpoint protocol:

* every actor gets a checkpoint at creation (and a baseline one at
  subsystem start, for actors deployed earlier);
* a periodic sweep checkpoints every actor that processed at least one
  message since its last checkpoint ("dirty"), in actor-id order;
* optionally, an actor crossing ``dirty_message_threshold`` messages is
  checkpointed immediately;
* the two-phase migration transfer ships a checkpoint whose sole replica
  is the target: commit acknowledges it, rollback restores the source
  instance from it.

Each write snapshots the instance synchronously (charging serialize CPU
to the host through ``Server.execute``, like EPR overhead), then
replicates asynchronously: the payload travels to ``replication_factor``
deterministically chosen peers over the network fabric's transfer-cost
model (NIC meters are charged, so durability traffic is visible to
``net`` rules), and the checkpoint is **acknowledged** only when the
slowest copy lands.  A host crash before the ack aborts the write —
that un-acknowledged tail is the state-loss window the checkpoint
interval bounds.

Recovery: ``ActorSystem.resurrect_actor`` calls :meth:`on_restore`
(through ``system.durability``) after constructing the fresh instance.
The newest *acknowledged* checkpoint with a readable replica — running,
not quorum-less, link to the new host not severed — is deep-copied into
the instance via ``restore_state``, and the write-ahead journal entries
recorded after that snapshot are replayed (surfaced as the
``journal-replayed`` event; the entries record directory/migration
transitions, which the runtime has already re-derived, so replay is
accounting rather than mutation).

Determinism: the subsystem draws no randomness anywhere — replica
placement is a deterministic function of server ids, and all timing
comes from the fabric's cost model.  When disabled it attaches no hooks
and schedules nothing, so fault-free golden traces are bit-identical.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..actors import ActorRecord, RuntimeHooks
from ..cluster import Server
from ..sim import Timeout, spawn
from .config import DurabilityConfig
from .store import Checkpoint, StateStore, state_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..actors.message import Message
    from ..core.emr.manager import ElasticityManager

__all__ = ["DurabilityManager"]

_BYTES_PER_MB = 1024.0 * 1024.0


class _DurabilityHooks(RuntimeHooks):
    """Runtime-hook adapter feeding the durability manager."""

    def __init__(self, manager: "DurabilityManager") -> None:
        self.manager = manager

    def on_actor_created(self, record: ActorRecord) -> None:
        self.manager._on_created(record)

    def on_actor_destroyed(self, record: ActorRecord) -> None:
        self.manager._on_destroyed(record)

    def on_message_delivered(self, record: ActorRecord,
                             message: "Message") -> None:
        self.manager._on_message(record)

    def on_actor_migrated(self, record: ActorRecord, src: Server,
                          dst: Server) -> None:
        self.manager._on_migrated(record, src, dst)

    def on_migration_aborted(self, record: ActorRecord, src: Server,
                             dst: Server, reason: str) -> None:
        self.manager._on_migration_aborted(record, src, dst, reason)

    def on_server_crashed(self, server: Server,
                          lost: List[ActorRecord]) -> None:
        self.manager._on_server_crashed(server, lost)

    def on_actor_resurrected(self, record: ActorRecord) -> None:
        self.manager._on_resurrected(record)


class DurabilityManager:
    """Checkpointing, replication, journaling, and restore."""

    def __init__(self, emr: "ElasticityManager") -> None:
        self.emr = emr
        self.system = emr.system
        config = emr.config.durability
        if config is None or not config.enabled:
            raise ValueError("DurabilityManager requires an enabled "
                             "DurabilityConfig")
        self.config: DurabilityConfig = config
        self.store = StateStore(
            max_per_actor=config.max_checkpoints_per_actor)
        self.running = False
        self.restores = 0
        self.restore_misses = 0
        self.journal_replays = 0
        self._hooks = _DurabilityHooks(self)
        self._dirty: Dict[int, int] = {}
        self._writing: set = set()
        #: In-flight (snapshotted, not yet acknowledged) writes by source
        #: server id — a source crash aborts them: the copies never all
        #: landed, so the checkpoint must never become restorable.
        self._inflight: Dict[int, List[Checkpoint]] = {}
        #: Checkpoint shipped by an in-progress migration transfer, by
        #: actor id; acknowledged at commit, restored from on rollback.
        self._transfer_cps: Dict[int, Checkpoint] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.system.add_hooks(self._hooks)
        self.system.durability = self
        # Baseline: actors deployed before the subsystem started still
        # need a durable copy of their spawn-time state.
        for record in self._sorted_records():
            self._write_checkpoint(record, "baseline")
        spawn(self.system.sim, self._checkpoint_loop(),
              name="durability/checkpointer")

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self._hooks in self.system.hooks:
            self.system.remove_hooks(self._hooks)
        if self.system.durability is self:
            self.system.durability = None

    def _sorted_records(self) -> List[ActorRecord]:
        return sorted(self.system.directory.records(),
                      key=lambda r: r.ref.actor_id)

    # ------------------------------------------------------------------
    # checkpoint protocol

    def _checkpoint_loop(self):
        sim = self.system.sim
        while self.running:
            yield Timeout(sim, self.config.checkpoint_interval_ms)
            if not self.running:
                return
            for record in self._sorted_records():
                if self._dirty.get(record.ref.actor_id, 0) > 0:
                    self._write_checkpoint(record, "periodic")

    def _write_checkpoint(self, record: ActorRecord,
                          trigger: str) -> Optional[Checkpoint]:
        """Snapshot ``record`` and replicate the payload asynchronously."""
        actor_id = record.ref.actor_id
        if (not self.running or record.migrating
                or actor_id in self._writing
                or self.system.directory.try_lookup(actor_id) is not record):
            return None
        sim = self.system.sim
        host = record.server
        state = record.instance.snapshot_state()
        size_bytes = (record.instance.state_size_mb
                      * self.config.snapshot_fraction * _BYTES_PER_MB)
        replicas = self._choose_replicas(host)
        checkpoint = Checkpoint(
            actor_id=actor_id, type_name=record.ref.type_name,
            seq=self.store.next_seq(actor_id), taken_at=sim.now,
            state=state, size_bytes=size_bytes, trigger=trigger,
            journal_mark=self.store.journal_mark,
            digest=state_digest(state), replicas=replicas)
        self.store.add(checkpoint)
        self._dirty[actor_id] = 0
        self._writing.add(actor_id)
        self._inflight.setdefault(host.server_id, []).append(checkpoint)
        if self.config.serialize_cpu_ms > 0.0:
            host.execute(self.config.serialize_cpu_ms, owner=record)
        self.emr.emit("checkpoint-written", actor=str(record.ref),
                      actor_id=actor_id, seq=checkpoint.seq,
                      trigger=trigger, size_bytes=size_bytes,
                      replicas=checkpoint.replica_names,
                      digest=checkpoint.digest)
        spawn(sim, self._replicate(checkpoint, host),
              name=f"durability/write/{record.ref}#{checkpoint.seq}")
        return checkpoint

    def _choose_replicas(self, host: Server) -> Tuple[Server, ...]:
        """Deterministic, partition-side-aware replica placement.

        Running peers whose links to/from the host are not severed,
        sorted by server id; the start offset spreads different hosts'
        copies across the fleet without randomness.  With no reachable
        peer the write degrades to a host-local copy.
        """
        fabric = self.system.fabric
        peers = [s for s in self.system.provisioner.servers
                 if s.running and s is not host
                 and not fabric.link_blocked(host, s)
                 and not fabric.link_blocked(s, host)]
        if not peers:
            return (host,)
        peers.sort(key=lambda s: s.server_id)
        count = min(self.config.replication_factor, len(peers))
        start = host.server_id % len(peers)
        return tuple(peers[(start + i) % len(peers)] for i in range(count))

    def _replicate(self, checkpoint: Checkpoint, host: Server):
        """Ship one checkpoint to its replicas; ack when the slowest
        copy lands.  ``transfer_delay`` charges both NIC meters, so the
        durability traffic shows up in ``net`` rules and percentages."""
        sim = self.system.sim
        fabric = self.system.fabric
        delay = max(fabric.transfer_delay(host, replica,
                                          checkpoint.size_bytes)
                    for replica in checkpoint.replicas)
        yield Timeout(sim, delay)
        self._writing.discard(checkpoint.actor_id)
        inflight = self._inflight.get(host.server_id)
        if inflight is not None and checkpoint in inflight:
            inflight.remove(checkpoint)
        if checkpoint.aborted or not self.running:
            return
        survivors = tuple(s for s in checkpoint.replicas if s.running)
        if not survivors:
            checkpoint.aborted = True
            self.store.checkpoints_lost += 1
            return
        checkpoint.replicas = survivors
        self.store.ack(checkpoint, sim.now)
        self.emr.emit("checkpoint-replicated", actor_id=checkpoint.actor_id,
                      actor=f"<{checkpoint.type_name}#{checkpoint.actor_id}>",
                      seq=checkpoint.seq, trigger=checkpoint.trigger,
                      replicas=checkpoint.replica_names,
                      digest=checkpoint.digest, latency_ms=delay)

    # ------------------------------------------------------------------
    # recovery

    def on_restore(self, record: ActorRecord) -> bool:
        """Restore a resurrected actor from its newest readable
        acknowledged checkpoint.  Called by ``resurrect_actor`` after the
        fresh instance is built and started.  Returns whether any state
        was restored."""
        if not self.running:
            return False
        sim = self.system.sim
        fabric = self.system.fabric
        host = record.server
        actor_id = record.ref.actor_id

        def usable(server: Server) -> bool:
            return (server.running
                    and not self.emr.server_quorumless(server)
                    and not fabric.link_blocked(host, server)
                    and not fabric.link_blocked(server, host))

        checkpoint = self.store.latest_acked(actor_id, usable)
        if checkpoint is None:
            self.restore_misses += 1
            return False
        source = self.store.readable_replicas(checkpoint, usable)[0]
        record.instance.restore_state(copy.deepcopy(checkpoint.state))
        self.restores += 1
        replayed = self.store.journal_since(actor_id, checkpoint.journal_mark)
        self.emr.emit("state-restored", actor=str(record.ref),
                      actor_id=actor_id, seq=checkpoint.seq,
                      digest=state_digest(record.instance.snapshot_state()),
                      replica=source.name, server=host.name,
                      age_ms=sim.now - checkpoint.taken_at,
                      journal_entries=len(replayed))
        if replayed:
            kinds: Dict[str, int] = {}
            for entry in replayed:
                kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
            self.journal_replays += 1
            self.emr.emit("journal-replayed", actor=str(record.ref),
                          actor_id=actor_id, entries=len(replayed),
                          kinds=dict(sorted(kinds.items())))
        return True

    # ------------------------------------------------------------------
    # migration protocol call sites (no hooks exist at these points)

    def on_migration_prepared(self, record: ActorRecord, source: Server,
                              target: Server) -> None:
        self._journal("migration-prepare", record.ref.actor_id,
                      src=source.name, dst=target.name)

    def on_migration_transfer(self, record: ActorRecord, source: Server,
                              target: Server) -> None:
        """Transfer phase starts: ship a checkpoint with the payload.

        Its sole replica is the migration target — the bytes ride the
        migration transfer itself, so no extra cost is charged here.
        The commit acknowledges it; a rollback restores the source
        instance from it; a source crash abandons it un-acknowledged.
        """
        actor_id = record.ref.actor_id
        self._journal("migration-transfer", actor_id,
                      src=source.name, dst=target.name)
        if not self.config.ship_transfer_checkpoint:
            return
        state = record.instance.snapshot_state()
        checkpoint = Checkpoint(
            actor_id=actor_id, type_name=record.ref.type_name,
            seq=self.store.next_seq(actor_id),
            taken_at=self.system.sim.now, state=state,
            size_bytes=record.instance.state_size_mb * _BYTES_PER_MB,
            trigger="transfer", journal_mark=self.store.journal_mark,
            digest=state_digest(state), replicas=(target,))
        self.store.add(checkpoint)
        self._dirty[actor_id] = 0
        self._transfer_cps[actor_id] = checkpoint
        self.emr.emit("checkpoint-written", actor=str(record.ref),
                      actor_id=actor_id, seq=checkpoint.seq,
                      trigger="transfer", size_bytes=checkpoint.size_bytes,
                      replicas=checkpoint.replica_names,
                      digest=checkpoint.digest)

    # ------------------------------------------------------------------
    # hook reactions

    def _on_created(self, record: ActorRecord) -> None:
        self._journal("actor-created", record.ref.actor_id,
                      server=record.server.name)
        self._write_checkpoint(record, "create")

    def _on_destroyed(self, record: ActorRecord) -> None:
        self._dirty.pop(record.ref.actor_id, None)
        self._journal("actor-destroyed", record.ref.actor_id,
                      server=record.server.name)

    def _on_message(self, record: ActorRecord) -> None:
        if record.migrating:
            return
        actor_id = record.ref.actor_id
        dirty = self._dirty.get(actor_id, 0) + 1
        self._dirty[actor_id] = dirty
        threshold = self.config.dirty_message_threshold
        if (threshold is not None and dirty >= threshold
                and actor_id not in self._writing):
            self._write_checkpoint(record, "dirty")

    def _on_migrated(self, record: ActorRecord, src: Server,
                     dst: Server) -> None:
        self._journal("migration-commit", record.ref.actor_id,
                      src=src.name, dst=dst.name)
        checkpoint = self._transfer_cps.pop(record.ref.actor_id, None)
        if checkpoint is None or not dst.running:
            return
        self.store.ack(checkpoint, self.system.sim.now)
        self.emr.emit("checkpoint-replicated", actor=str(record.ref),
                      actor_id=record.ref.actor_id, seq=checkpoint.seq,
                      trigger="transfer", replicas=checkpoint.replica_names,
                      digest=checkpoint.digest,
                      latency_ms=self.system.sim.now - checkpoint.taken_at)

    def _on_migration_aborted(self, record: ActorRecord, src: Server,
                              dst: Server, reason: str) -> None:
        self._journal("migration-rollback", record.ref.actor_id,
                      src=src.name, dst=dst.name, reason=reason)
        checkpoint = self._transfer_cps.pop(record.ref.actor_id, None)
        if checkpoint is None:
            return
        checkpoint.aborted = True
        if reason == "actor-lost":
            # The source died mid-protocol; the prepared copy is
            # discarded with the rollback.  Recovery goes through the
            # last acknowledged checkpoint instead.
            return
        # The actor stays live on the source: restore it from the
        # checkpoint the transfer shipped, as the protocol promises.
        record.instance.restore_state(copy.deepcopy(checkpoint.state))

    def _on_server_crashed(self, server: Server,
                           lost: List[ActorRecord]) -> None:
        discarded = self.store.discard_replicas_on(server)
        aborted = self._inflight.pop(server.server_id, [])
        for checkpoint in aborted:
            checkpoint.aborted = True
            self._writing.discard(checkpoint.actor_id)
            self.store.checkpoints_lost += 1
        self._journal("server-crashed", -1, server=server.name,
                      lost_actors=len(lost), replicas_discarded=discarded,
                      writes_aborted=len(aborted))

    def _on_resurrected(self, record: ActorRecord) -> None:
        self._journal("actor-resurrected", record.ref.actor_id,
                      server=record.server.name)
        self._write_checkpoint(record, "resurrect")

    # ------------------------------------------------------------------

    def _journal(self, kind: str, actor_id: int, **detail) -> None:
        self.store.append_journal(kind, actor_id, self.system.sim.now,
                                  **detail)

    def summary(self) -> Dict:
        """Store summary plus recovery counters (CLI ``store`` command)."""
        summary = self.store.summary()
        summary["totals"].update({
            "restores": self.restores,
            "restore_misses": self.restore_misses,
            "journal_replays": self.journal_replays,
        })
        return summary
