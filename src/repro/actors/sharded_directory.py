"""Consistent-hash-sharded actor directory.

The flat :class:`~repro.actors.directory.Directory` is one authoritative
map — the control-plane scalability killer once the fleet grows past a
few hundred servers ("Scaling Reliably" makes the same argument for
distributed Erlang's global namespace).  This module shards the id space
over a virtual-node consistent-hash ring:

- **Ownership**: every actor id hashes to exactly one shard (the first
  virtual node clockwise on the ring).  Virtual nodes keep remapping
  bounded when shards are added or removed: only the keys whose owning
  arc moved change shards, ~``K/N`` of the keyspace per shard change.
- **Per-LEM lookup caches**: each server's LEM resolves remote actors
  through a local cache.  Cache entries are **epoch-fenced**: a
  migration commit bumps the actor's commit epoch and invalidates every
  cached entry, so a cache can never serve an entry that predates the
  commit.  The property tests in
  ``tests/actors/test_sharded_directory.py`` pin this.
- **Miss path**: a message already in flight to the pre-commit host is
  *not* recalled — the stale host forwards it, paying one extra hop
  (``ActorSystem._deliver``'s existing forwarding path, unchanged).
  Staleness is therefore bounded to messages sent before the commit.
- **Shard hosting and crash handoff**: shards are optionally *bound* to
  host servers (:meth:`ShardedDirectory.bind_hosts`, round-robin; the
  elasticity manager does this at start).  When a host crashes,
  :meth:`ShardedDirectory.note_host_crashed` removes its shards from
  the ring — the departing ranges rehash onto the surviving shards with
  bounded movement — and drops the crashed server's lookup cache.  The
  last shard is never removed (the id space must stay covered); it just
  becomes unhosted.  ``coverage_errors`` audits the remap, and the
  invariant checker runs that audit *during* churn (on every
  crash/remap event), not only at the periodic sweep.

The class subclasses ``Directory`` so iteration-order-sensitive
consumers (the invariant checker's sweep, golden traces) see the exact
same insertion-ordered view as the flat map, and it inherits the flat
map's per-server placement index unchanged: ``on_server``, ``count_on``
and ``place`` are not overridden, and answer in registration order
without a pass over the fleet.  The shard maps partition the same
records for routing and are what the ``shard-coverage`` invariant
audits.

Hashing uses ``blake2b`` (stable across processes — never builtin
``hash``, which ``PYTHONHASHSEED`` would randomize and break replay
determinism).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from .directory import ActorRecord, Directory

__all__ = ["HashRing", "ShardedDirectory"]


def _hash64(data: str) -> int:
    digest = hashlib.blake2b(data.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Virtual-node consistent-hash ring mapping keys to shard ids."""

    def __init__(self, virtual_nodes: int = 16) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        self.virtual_nodes = virtual_nodes
        self._points: List[Tuple[int, int]] = []  # (hash, shard_id) sorted
        self._shards: List[int] = []

    def add_shard(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards.append(shard_id)
        for vnode in range(self.virtual_nodes):
            self._points.append((_hash64(f"shard:{shard_id}:{vnode}"),
                                 shard_id))
        self._points.sort()

    def remove_shard(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} not on the ring")
        self._shards.remove(shard_id)
        self._points = [p for p in self._points if p[1] != shard_id]

    def shards(self) -> List[int]:
        return list(self._shards)

    def owner(self, key: int) -> int:
        """Shard owning ``key``: first virtual node clockwise."""
        if not self._points:
            raise ValueError("ring has no shards")
        index = bisect_right(self._points, (_hash64(f"key:{key}"), -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class ShardedDirectory(Directory):
    """Directory whose id space is partitioned over a hash ring.

    Drop-in for :class:`Directory`: the inherited insertion-ordered map
    stays authoritative for iteration (``records``), the inherited
    per-server index answers ``on_server``/``count_on``, while
    per-shard maps partition the same records for ownership and
    the per-LEM caches model the lookup path a real deployment would
    take.  ``try_lookup`` routes through the owning shard's map, so a
    shard-bookkeeping bug surfaces as a failed lookup, not silence.
    """

    def __init__(self, shards: int = 4, virtual_nodes: int = 16) -> None:
        super().__init__()
        if shards < 1:
            raise ValueError("need at least one shard")
        self.ring = HashRing(virtual_nodes)
        self._shard_records: Dict[int, Dict[int, ActorRecord]] = {}
        for shard_id in range(shards):
            self.ring.add_shard(shard_id)
            self._shard_records[shard_id] = {}
        #: Per-cache-id (server id) lookup caches: actor id -> (record,
        #: epoch at fill time).
        self._caches: Dict[int, Dict[int, Tuple[ActorRecord, int]]] = {}
        #: Commit epoch per actor: bumped by ``note_commit`` when a
        #: migration flips the record, fencing out stale cache entries.
        self._commit_epoch: Dict[int, int] = {}
        #: shard id -> hosting server id (``bind_hosts``); unbound
        #: shards survive any crash.
        self._shard_host: Dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.shards_lost = 0

    # -- shard ownership ------------------------------------------------

    def shard_of(self, actor_id: int) -> int:
        return self.ring.owner(actor_id)

    def shard_ids(self) -> List[int]:
        return self.ring.shards()

    def shard_records(self, shard_id: int) -> Dict[int, ActorRecord]:
        return self._shard_records.get(shard_id, {})

    def add_shard(self, shard_id: int) -> int:
        """Grow the ring; returns how many records changed owner (the
        bounded-remapping property)."""
        self.ring.add_shard(shard_id)
        self._shard_records.setdefault(shard_id, {})
        return self._remap()

    def remove_shard(self, shard_id: int) -> int:
        """Shrink the ring; the departing shard's records rehash to the
        survivors.  Returns how many records changed owner."""
        if len(self.ring.shards()) <= 1:
            raise ValueError("cannot remove the last shard")
        self.ring.remove_shard(shard_id)
        moved = self._remap()
        self._shard_records.pop(shard_id, None)
        return moved

    def _remap(self) -> int:
        moved = 0
        for shard_id, records in list(self._shard_records.items()):
            for actor_id in list(records):
                owner = self.ring.owner(actor_id)
                if owner != shard_id:
                    self._shard_records[owner][actor_id] = \
                        records.pop(actor_id)
                    moved += 1
        return moved

    # -- shard hosting / crash handoff ----------------------------------

    def bind_hosts(self, servers: Iterable) -> None:
        """Pin each shard to a host server, round-robin over ``servers``
        in fleet order.  Idempotent per shard — rebinding does not move
        already-bound shards."""
        hosts = [server.server_id for server in servers]
        if not hosts:
            return
        for index, shard_id in enumerate(sorted(self._shard_records)):
            self._shard_host.setdefault(shard_id, hosts[index % len(hosts)])

    def shard_host(self, shard_id: int) -> Optional[int]:
        """Server id hosting ``shard_id``, or ``None`` if unbound."""
        return self._shard_host.get(shard_id)

    def note_host_crashed(self, server_id: int) -> Tuple[int, int]:
        """A shard host left the fleet: remove the shards it hosted
        from the ring (their ranges rehash onto the survivors) and drop
        its lookup cache.  The last shard on the ring is never removed —
        the id space must stay covered — it merely becomes unhosted.

        Returns ``(shards_removed, records_moved)``.
        """
        self._caches.pop(server_id, None)
        hosted = sorted(shard_id
                        for shard_id, host in self._shard_host.items()
                        if host == server_id)
        shards_removed = 0
        records_moved = 0
        for shard_id in hosted:
            del self._shard_host[shard_id]
            if len(self.ring.shards()) <= 1:
                continue  # sole surviving shard: unhosted, not removed
            records_moved += self.remove_shard(shard_id)
            shards_removed += 1
            self.shards_lost += 1
        return shards_removed, records_moved

    # -- Directory surface ---------------------------------------------

    def register(self, record: ActorRecord) -> None:
        super().register(record)
        shard_id = self.ring.owner(record.ref.actor_id)
        self._shard_records[shard_id][record.ref.actor_id] = record

    def unregister(self, actor_id: int) -> None:
        super().unregister(actor_id)
        shard = self._shard_records.get(self.ring.owner(actor_id))
        if shard is not None:
            shard.pop(actor_id, None)
        self._invalidate(actor_id)

    def try_lookup(self, actor_id: int) -> Optional[ActorRecord]:
        shard = self._shard_records.get(self.ring.owner(actor_id))
        if shard is None:
            return None
        return shard.get(actor_id)

    def lookup(self, actor_id: int) -> ActorRecord:
        record = self.try_lookup(actor_id)
        if record is None:
            raise KeyError(f"no live actor with id {actor_id}")
        return record

    # -- per-LEM caches with epoch-fenced invalidation ------------------

    def cached_lookup(self, cache_id: int,
                      actor_id: int) -> Optional[ActorRecord]:
        """Resolve ``actor_id`` through ``cache_id``'s lookup cache.

        A hit is served only while its fill epoch matches the actor's
        current commit epoch — a commit since the fill fences the entry
        out, forcing a shard consultation (the miss path).  The returned
        record is therefore never stale past the commit epoch; in-flight
        messages sent under the old entry are covered by forwarding.
        """
        cache = self._caches.setdefault(cache_id, {})
        entry = cache.get(actor_id)
        current = self._commit_epoch.get(actor_id, 0)
        if entry is not None and entry[1] == current:
            self.cache_hits += 1
            return entry[0]
        self.cache_misses += 1
        record = self.try_lookup(actor_id)
        if record is None:
            cache.pop(actor_id, None)
            return None
        cache[actor_id] = (record, current)
        return record

    def note_commit(self, actor_id: int, epoch: int = 0) -> None:
        """A migration of ``actor_id`` committed: bump its commit epoch
        and drop every cached entry (epoch-fenced invalidation)."""
        self._commit_epoch[actor_id] = \
            self._commit_epoch.get(actor_id, 0) + 1
        self._invalidate(actor_id)

    def _invalidate(self, actor_id: int) -> None:
        for cache in self._caches.values():
            if cache.pop(actor_id, None) is not None:
                self.cache_invalidations += 1

    # -- audit ----------------------------------------------------------

    def coverage_errors(self) -> List[str]:
        """Shard-coverage audit used by the invariant checker: every
        live record owned by exactly one shard map, that map the ring
        owner's, and the shard union exactly the authoritative map."""
        errors: List[str] = []
        seen: Dict[int, int] = {}
        for shard_id, records in self._shard_records.items():
            for actor_id in records:
                if actor_id in seen:
                    errors.append(
                        f"actor {actor_id} in shards {seen[actor_id]} "
                        f"and {shard_id}")
                seen[actor_id] = shard_id
                owner = self.ring.owner(actor_id)
                if owner != shard_id:
                    errors.append(
                        f"actor {actor_id} in shard {shard_id} but ring "
                        f"owner is {owner}")
        for record in self.records():
            actor_id = record.ref.actor_id
            if actor_id not in seen:
                errors.append(f"actor {actor_id} missing from all shards")
        extras = set(seen) - {r.ref.actor_id for r in self.records()}
        for actor_id in sorted(extras):
            errors.append(f"shard {seen[actor_id]} holds dead actor "
                          f"{actor_id}")
        return errors
