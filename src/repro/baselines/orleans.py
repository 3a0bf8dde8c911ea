"""Orleans-style elasticity baseline (paper §2.1 and Fig. 6a).

Orleans "balances workload by equalizing the number of actors on each
server ... [and] co-locates actors that frequently communicate with one
another".  Crucially it does *not* consider server metrics such as CPU
usage — with 32 equal-count partitions on 8 servers it takes no action at
all, which is exactly the behaviour the PageRank comparison exposes.
"""

from __future__ import annotations

from typing import List

from ..actors import ActorRecord, ActorSystem
from .base import PeriodicBalancer

__all__ = ["OrleansBalancer"]


class OrleansBalancer(PeriodicBalancer):
    """Equal-actor-count balancing plus optional frequency colocation."""

    def __init__(self, system: ActorSystem, period_ms: float = 60_000.0,
                 colocate_frequent: bool = False,
                 min_pair_rate_per_min: float = 1.0) -> None:
        super().__init__(system, period_ms=period_ms, profile=True)
        self.colocate_frequent = colocate_frequent
        self.min_pair_rate_per_min = min_pair_rate_per_min

    def decide(self) -> None:
        self._equalize_counts()
        if self.colocate_frequent:
            self.colocate_frequent_pairs(self.min_pair_rate_per_min)

    def _equalize_counts(self) -> None:
        servers = self.servers()
        if len(servers) < 2:
            return
        directory = self.system.directory
        counts = {s.server_id: directory.count_on(s) for s in servers}
        total = sum(counts.values())
        if total == 0:
            return
        target = total / len(servers)
        # Move actors from servers above ceil(target) to those below
        # floor(target) until counts are within one of each other.
        overfull = sorted((s for s in servers
                           if counts[s.server_id] > target + 0.5),
                          key=lambda s: -counts[s.server_id])
        for src in overfull:
            while counts[src.server_id] > target + 0.5:
                dst = min(servers, key=lambda s: counts[s.server_id])
                if counts[dst.server_id] + 1 > counts[src.server_id] - 1:
                    break
                mover = self._pick_mover(self.actors_on(src))
                if mover is None:
                    break
                self.migrate(mover, dst)
                counts[src.server_id] -= 1
                counts[dst.server_id] += 1

    @staticmethod
    def _pick_mover(records: List[ActorRecord]):
        for record in records:
            if not record.pinned and not record.migrating:
                return record
        return None
