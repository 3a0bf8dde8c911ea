"""Cassandra-style replicated table (paper Table 1).

Each table shard has a replication group of Replica actors.  For fault
isolation (and read throughput) replicas of the same shard must live on
*different* servers — Table 1's single rule, expressed through each
replica's reference to its peers:

    Replica(r2) in ref(Replica(r1).peers) => separate(r1, r2);
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..actors import Actor, ActorRef
from ..bench import TestBed

__all__ = ["Replica", "CASSANDRA_POLICY", "ReplicatedTable",
           "build_cassandra", "replica_spread"]

CASSANDRA_POLICY = """
Replica(r2) in ref(Replica(r1).peers) => separate(r1, r2);
"""

READ_CPU_MS = 0.2
WRITE_CPU_MS = 0.4


class Replica(Actor):
    """One replica of a table shard."""

    peers: list
    state_size_mb = 64.0

    def __init__(self, shard_id: int, replica_index: int) -> None:
        self.shard_id = shard_id
        self.replica_index = replica_index
        self.peers: List[ActorRef] = []
        self.store: Dict[int, object] = {}

    def read(self, key: int):
        yield self.compute(READ_CPU_MS)
        return self.store.get(key)

    def write(self, key: int, value):
        """Coordinator-style write: apply locally, then replicate to
        peers (fire-and-forget, eventual consistency)."""
        yield self.compute(WRITE_CPU_MS)
        self.store[key] = value
        for peer in self.peers:
            self.tell(peer, "apply_replicated", key, value)
        return True

    def apply_replicated(self, key: int, value):
        yield self.compute(WRITE_CPU_MS / 2)
        self.store[key] = value
        return True


@dataclass
class ReplicatedTable:
    bed: TestBed
    shards: List[List[ActorRef]]   # shards[i] = replica group


def build_cassandra(bed: TestBed, num_shards: int = 4,
                    replication_factor: int = 3,
                    all_on_first: bool = True) -> ReplicatedTable:
    """Create shards with their replica groups.

    ``all_on_first`` starts every replica on server 0 — the worst-case
    layout the separate rule must untangle.
    """
    shards: List[List[ActorRef]] = []
    for shard in range(num_shards):
        group = []
        for index in range(replication_factor):
            server = bed.servers[0] if all_on_first else \
                bed.servers[(shard + index) % len(bed.servers)]
            group.append(bed.system.create_actor(
                Replica, shard, index, server=server))
        for ref in group:
            instance = bed.system.actor_instance(ref)
            instance.peers = [p for p in group
                              if p.actor_id != ref.actor_id]
        shards.append(group)
    return ReplicatedTable(bed=bed, shards=shards)


def replica_spread(table: ReplicatedTable) -> Dict[int, int]:
    """Distinct servers per shard's replica group (the quantity the
    separate rule maximizes; replication_factor means fully spread)."""
    spread = {}
    for shard_index, group in enumerate(table.shards):
        servers = {table.bed.system.server_of(ref).server_id
                   for ref in group}
        spread[shard_index] = len(servers)
    return spread
