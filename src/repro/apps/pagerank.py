"""Distributed actor-based PageRank (paper §2.1, §5.4, Figs. 6–8).

One Worker actor per graph partition.  Iterations are bulk-synchronous:
every worker computes contributions for its nodes (CPU cost proportional
to nodes + edges), exchanges boundary contributions with peer workers
(network cost proportional to cut edges), then applies the update.  The
driver synchronizes the phases, so — as in the paper — "the overall
execution speed is limited by the slowest worker".

The elasticity rule is the paper's:

    server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);

METIS-balanced partitions have near-equal node counts but unequal
*compute* cost on power-law graphs, so CPU usage diverges across servers
and PLASMA's balance rule relocates workers until every server sits in
the 60–80% band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..actors import Actor, ActorRef, Client
from ..bench import TestBed
from ..graphs import Graph, PartitionResult, partition_graph
from ..sim import Timeout, spawn

__all__ = ["PageRankWorker", "PAGERANK_POLICY", "PageRankDeployment",
           "build_pagerank", "run_iterations", "IterationStats",
           "DEFAULT_DAMPING"]

PAGERANK_POLICY = """
server.cpu.perc > 80 or server.cpu.perc < 60 => balance({PageRankWorker}, cpu);
"""

DEFAULT_DAMPING = 0.85
#: CPU demand per graph unit (node or edge) per iteration, in ms.
DEFAULT_ALPHA_MS = 0.8
#: Grace period after the exchange phase for in-flight deliveries.
EXCHANGE_GRACE_MS = 20.0
#: Compute is submitted in chunks (the per-vertex loop yields), letting
#: the server's cores interleave workers instead of head-of-line blocking
#: behind one long job.
COMPUTE_CHUNK_MS = 50.0


class PageRankWorker(Actor):
    """Owns one partition: its nodes, their out-edges, and their ranks."""

    state_size_mb = 40.0  # ~1.2 GB / 32 partitions, as in the paper

    def __init__(self, part_id: int, nodes: Sequence[int],
                 out_edges: Dict[int, Sequence[int]],
                 assignment: Sequence[int], total_nodes: int,
                 alpha_ms: float = DEFAULT_ALPHA_MS,
                 compute_scale: float = 1.0) -> None:
        self.part_id = part_id
        self.nodes = list(nodes)
        self.out_edges = {node: list(targets)
                          for node, targets in out_edges.items()}
        self.assignment = assignment      # node -> partition (shared, read-only)
        self.total_nodes = total_nodes
        self.alpha_ms = alpha_ms
        self.compute_scale = compute_scale
        self.rank: Dict[int, float] = {
            node: 1.0 / total_nodes for node in self.nodes}
        self.peers: Dict[int, ActorRef] = {}
        self._outbox: Dict[int, Dict[int, float]] = {}
        self._local_contrib: Dict[int, float] = {}
        self._inbox: List[Dict[int, float]] = []
        self.iterations_done = 0

    # -- setup ---------------------------------------------------------------

    def set_peers(self, peers: Dict[int, ActorRef]):
        self.peers = dict(peers)
        return True

    def graph_units(self) -> int:
        return len(self.nodes) + sum(len(t) for t in self.out_edges.values())

    def load_data(self):
        """Initial data loading (the busy early redistributions of
        Fig. 7b): cost proportional to partition size."""
        yield self.compute(0.2 * self.graph_units() * self.compute_scale)
        return self.part_id

    # -- BSP phases -------------------------------------------------------------

    def compute_contribs(self, damping: float):
        """Phase 1: per-node contributions, bucketed by target partition.

        Returns this partition's dangling mass (rank of nodes without
        out-edges), which the driver aggregates globally.
        """
        remaining = self.alpha_ms * self.graph_units() * self.compute_scale
        while remaining > 0:
            chunk = min(remaining, COMPUTE_CHUNK_MS)
            yield self.compute(chunk)
            remaining -= chunk
        self._outbox = {}
        self._local_contrib = {}
        dangling = 0.0
        for node in self.nodes:
            targets = self.out_edges.get(node, ())
            if not targets:
                dangling += self.rank[node]
                continue
            share = self.rank[node] / len(targets)
            for target in targets:
                part = self.assignment[target]
                if part == self.part_id:
                    self._local_contrib[target] = (
                        self._local_contrib.get(target, 0.0) + share)
                else:
                    bucket = self._outbox.setdefault(part, {})
                    bucket[target] = bucket.get(target, 0.0) + share
        return dangling

    def send_updates(self):
        """Phase 2: ship boundary contributions to peer workers."""
        for part, contribs in self._outbox.items():
            peer = self.peers.get(part)
            if peer is None:
                continue
            self.tell(peer, "deliver", contribs,
                      size_bytes=16.0 * max(1, len(contribs)))
        return len(self._outbox)

    def deliver(self, contribs: Dict[int, float]):
        self._inbox.append(contribs)
        return True

    def apply_update(self, damping: float, dangling_total: float):
        """Phase 3: fold local + remote contributions into new ranks;
        returns the L1 delta over this partition."""
        yield self.compute(0.05 * len(self.nodes) * self.compute_scale)
        incoming: Dict[int, float] = dict(self._local_contrib)
        for contribs in self._inbox:
            for node, share in contribs.items():
                incoming[node] = incoming.get(node, 0.0) + share
        self._inbox = []
        base = ((1.0 - damping) / self.total_nodes
                + damping * dangling_total / self.total_nodes)
        delta = 0.0
        new_rank = {}
        for node in self.nodes:
            value = base + damping * incoming.get(node, 0.0)
            delta += abs(value - self.rank[node])
            new_rank[node] = value
        self.rank = new_rank
        self.iterations_done += 1
        return delta

    # -- Mizan-style vertex migration support ------------------------------------

    def emigrate_nodes(self, count: int):
        """Give up the ``count`` most expensive nodes (node + its edges),
        returning their data for another worker to adopt."""
        yield self.compute(0.02 * max(1, count))
        victims = sorted(self.nodes,
                         key=lambda n: -len(self.out_edges.get(n, ())))
        victims = victims[:count]
        payload = {}
        for node in victims:
            payload[node] = (self.rank.pop(node),
                             self.out_edges.pop(node, []))
            self.nodes.remove(node)
        return payload

    def immigrate_nodes(self, payload: Dict[int, Tuple[float, List[int]]],
                        new_assignment_part: int):
        yield self.compute(0.02 * max(1, len(payload)))
        for node, (rank, edges) in payload.items():
            self.nodes.append(node)
            self.rank[node] = rank
            self.out_edges[node] = edges
            self.assignment[node] = new_assignment_part
        return len(payload)


@dataclass
class PageRankDeployment:
    """A deployed PageRank cluster."""

    bed: TestBed
    graph: Graph
    partition: PartitionResult
    workers: List[ActorRef]
    assignment: List[int]
    damping: float = DEFAULT_DAMPING


@dataclass
class IterationStats:
    """Per-iteration outcome of a run."""

    times_ms: List[float] = field(default_factory=list)
    deltas: List[float] = field(default_factory=list)

    def converged_iteration(self, tolerance: float) -> Optional[int]:
        for index, delta in enumerate(self.deltas):
            if delta < tolerance:
                return index + 1
        return None


def build_pagerank(bed: TestBed, graph: Graph, num_partitions: int,
                   placement: Optional[Sequence[int]] = None,
                   alpha_ms: float = DEFAULT_ALPHA_MS,
                   compute_scale: float = 1.0,
                   damping: float = DEFAULT_DAMPING,
                   partition_seed: int = 5) -> PageRankDeployment:
    """Partition ``graph`` and create one worker per partition.

    ``placement[i]`` is the index (into ``bed.servers``) hosting worker
    ``i``; by default workers are spread round-robin.
    """
    rng = bed.streams.stream("pagerank-partition")
    rng.seed(partition_seed)
    partition = partition_graph(graph, num_partitions, rng)
    assignment = list(partition.assignment)

    nodes_of: List[List[int]] = [[] for _ in range(num_partitions)]
    for node, part in enumerate(assignment):
        nodes_of[part].append(node)

    workers: List[ActorRef] = []
    for part_id in range(num_partitions):
        out_edges = {node: list(graph.out_edges(node))
                     for node in nodes_of[part_id]}
        if placement is not None:
            server = bed.servers[placement[part_id] % len(bed.servers)]
        else:
            server = bed.servers[part_id % len(bed.servers)]
        ref = bed.system.create_actor(
            PageRankWorker, part_id, nodes_of[part_id], out_edges,
            assignment, graph.num_nodes, alpha_ms, compute_scale,
            server=server)
        workers.append(ref)

    peer_map = {part: ref for part, ref in enumerate(workers)}
    for ref in workers:
        bed.system.actor_instance(ref).set_peers(peer_map)
    return PageRankDeployment(bed=bed, graph=graph, partition=partition,
                              workers=workers, assignment=assignment,
                              damping=damping)


def run_iterations(deployment: PageRankDeployment, iterations: int,
                   load_phase: bool = True,
                   on_iteration=None) -> IterationStats:
    """Drive the BSP loop to completion; returns per-iteration stats.

    ``on_iteration(index, elapsed_ms)`` is called after each iteration —
    baselines (Mizan) hook vertex migration there.
    """
    bed = deployment.bed
    client = Client(bed.system, name="pagerank-driver")
    stats = IterationStats()
    finished = []

    def call_all(function, *args):
        signals = [client.call(ref, function, *args)
                   for ref in deployment.workers]
        results = []
        for signal in signals:
            value = yield signal
            results.append(value)
        return results

    def driver():
        if load_phase:
            yield from call_all("load_data")
        for index in range(iterations):
            started = bed.sim.now
            dangling = yield from call_all(
                "compute_contribs", deployment.damping)
            yield from call_all("send_updates")
            yield Timeout(bed.sim, EXCHANGE_GRACE_MS)
            dangling_total = sum(d for d in dangling if d is not None)
            deltas = yield from call_all(
                "apply_update", deployment.damping, dangling_total)
            elapsed = bed.sim.now - started
            stats.times_ms.append(elapsed)
            stats.deltas.append(sum(d for d in deltas if d is not None))
            if on_iteration is not None:
                more = on_iteration(index, elapsed)
                if hasattr(more, "send"):
                    yield from more
        finished.append(True)

    spawn(bed.sim, driver(), name="pagerank-driver")
    # Run in chunks: periodic EMR processes keep the event heap non-empty
    # forever, so "run until the driver reports done" is the loop shape.
    horizon = bed.sim.now + 36_000_000.0
    while not finished:
        if bed.sim.peek() is None:
            raise RuntimeError("PageRank driver stalled (empty event heap)")
        bed.sim.run(until=bed.sim.now + 10_000.0)
        if bed.sim.now >= horizon:
            raise RuntimeError("PageRank driver did not finish in time")
    return stats


def collect_ranks(deployment: PageRankDeployment) -> List[float]:
    """Gather the distributed ranks into one dense vector (for tests)."""
    ranks = [0.0] * deployment.graph.num_nodes
    for ref in deployment.workers:
        worker = deployment.bed.system.actor_instance(ref)
        for node, value in worker.rank.items():
            ranks[node] = value
    return ranks
