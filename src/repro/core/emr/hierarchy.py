"""Two-tier GEM tree for cluster-scale control.

The paper's flat layout lets every GEM evaluate whatever servers
reported to it — fine at 10 servers, quadratic pain at 5,000.  The
control plane is therefore always a tree, sized by
``EmrConfig.server_group_size``:

- **Leaf tier**: the fleet is split into contiguous *server groups*
  (:class:`~repro.cluster.ServerGroupMap`); each group gets its own set
  of ``gem_count`` leaf GEMs running the unchanged Algorithm-2 loop over
  group-local snapshots.  LEMs shuffle among their *group's* leaves only
  (one RNG stream; with one group the candidates are every alive GEM).
- **Root tier**: after each processing round a leaf publishes a
  :class:`GroupAggregate` — summed CPU and counts plus the top-k hot
  actors, *not* per-actor rows — to the single :class:`RootGem`.
  The root keeps the latest aggregate per group, and **batches**: it
  decides once over everything arriving within one collection window.
  The root arbitrates exactly two things: cross-group migrations (top-k
  hot actors from the hottest group onto the coldest group's least
  loaded server) and fleet scaling (a veto over leaf scale votes when a
  majority of *other* groups disagrees).

With a single group (``server_group_size=None``, the default) the tree
*is* the paper's flat plane: the leaf set is the flat GEM set and the
root tier is fully inert — no aggregates, no root events, no root
decisions.  Root decision cost is
``O(groups · top_k)`` per round, so sizing groups ~sqrt(fleet) keeps it
sub-linear in server count (``benchmarks/test_scale_cluster.py`` gates
this).

Every tier has a failure-and-recovery story (PR 9):

- **Root failover**: the root is killable (``kill-root`` chaos fault)
  and generation-fenced.  The first leaf to publish after the root dies
  promotes deterministically (:meth:`ControlHierarchy.ensure_root` —
  also driven by the failure detector); promotion bumps ``generation``
  and discards the views, which the leaves' next publishes rebuild.
  Root-planned migrations in flight check the generation before
  committing, so a stale root's decision never executes after its
  successor takes over.
- **Leaf failover with group adoption**: when all of a group's home
  leaves fail, a surviving leaf from another group *adopts* the group
  (``_adopted``): LEM reports route to the adopter, which publishes a
  separate per-group aggregate for each group it serves.  Every
  aggregate is whole, so a change of publisher or of root needs no
  resynchronisation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ...cluster import Server, ServerGroupMap
from ...sim import spawn
from ..profiling import ActorSnapshot, ServerSnapshot
from .actions import Action
from .config import CONTROL_LATENCY_MS
from .gem import GEM

if TYPE_CHECKING:  # pragma: no cover
    from .manager import ElasticityManager

__all__ = ["ControlHierarchy", "GroupAggregate", "RootGem", "GROUP_TOP_K"]

#: Hot actors each leaf aggregate carries to the root (per group).
GROUP_TOP_K = 8


@dataclass
class GroupAggregate:
    """One leaf group's REPORT to the root tier.

    Summed CPU, counts and a bounded hot set — the root never sees
    per-actor rows, which is what keeps its per-round decision cost
    independent of the actor population.
    """

    group: int
    gem_id: int
    epoch: int
    server_count: int
    actor_count: int
    cpu_sum: float
    overload_fraction: float
    underload_fraction: float
    server_names: Tuple[str, ...]
    server_cpu_percs: Tuple[float, ...]
    top_actors: Tuple[ActorSnapshot, ...]
    least_loaded: Optional[ServerSnapshot]


def build_aggregate(group: int, gem: "GEM",
                    servers: List[ServerSnapshot],
                    actors_by_server: Dict[int, List[ActorSnapshot]],
                    top_k: int) -> GroupAggregate:
    """Fold a leaf round's group-local snapshot into an aggregate."""
    actors: List[ActorSnapshot] = []
    for snaps in actors_by_server.values():
        actors.extend(snaps)
    top = tuple(heapq.nsmallest(top_k, actors,
                                key=lambda s: (-s.cpu_perc, s.actor_id)))
    least = None
    if servers:
        least = min(servers, key=lambda s: (s.cpu_perc, s.server.server_id))
    return GroupAggregate(
        group=group, gem_id=gem.gem_id, epoch=gem.epoch,
        server_count=len(servers), actor_count=len(actors),
        cpu_sum=sum(s.cpu_perc for s in servers),
        overload_fraction=gem.overload_fraction,
        underload_fraction=gem.underload_fraction,
        server_names=tuple(s.server.name for s in servers),
        server_cpu_percs=tuple(s.cpu_perc for s in servers),
        top_actors=top, least_loaded=least)


class RootGem:
    """Root tier: keeps each group's latest aggregate, arbitrates only
    cross-group migrations and fleet scaling.

    Killable and fenced: ``failed`` stops ingest, rounds and vetoes;
    ``generation`` is bumped on every promotion so in-flight decisions
    from a dead incarnation can be rejected; ``epoch`` follows the
    manager's partition epoch (the root always sides with the majority).
    """

    def __init__(self, manager: "ElasticityManager",
                 hierarchy: "ControlHierarchy") -> None:
        self.manager = manager
        self.hierarchy = hierarchy
        #: group -> the latest aggregate received from it.
        self.views: Dict[int, GroupAggregate] = {}
        self._flush_scheduled = False
        self.rounds_processed = 0
        self.cross_migrations_planned = 0
        self.aggregates_received = 0
        self.failed = False
        #: Incarnation counter: bumped on every promotion.
        self.generation = 0
        #: gem_id of the promoted leaf hosting root duty (``None`` for
        #: the initial / respawned dedicated root).
        self.host_gem_id: Optional[int] = None
        self.epoch = 0

    def fail(self) -> None:
        """Fail-stop this incarnation (chaos ``kill-root``)."""
        self.failed = True

    def recover(self) -> None:
        """Recover the *same* incarnation (no promotion happened).

        The recovering root missed every aggregate shipped while it was
        down, so its views are stale: discard them; the next publishes
        rebuild them.
        """
        self.failed = False
        self.views.clear()

    # -- aggregate ingest (batched) -------------------------------------

    def receive_aggregate(self, aggregate: GroupAggregate) -> None:
        if self.failed:
            return
        group, least = aggregate.group, aggregate.least_loaded
        if (least is not None and not least.server.running
                and not self.hierarchy._group_has_running_member(group)):
            # Sent just before the group's last server went: the
            # dissolution already pruned the view, so do not revive it.
            return
        self.aggregates_received += 1
        self.views[group] = aggregate
        if not self._flush_scheduled:
            # Batch: every aggregate landing within one collection
            # window rides the same root round.
            self._flush_scheduled = True
            self.manager.system.schedule(
                self.manager.config.gem_wait_ms, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.manager.running or self.failed or not self.views:
            return
        self.rounds_processed += 1
        self.manager.emit("root-round", generation=self.generation,
                          groups=tuple(
            (group, view.cpu_sum, view.server_count, view.actor_count)
            for group, view in sorted(self.views.items())))
        for action in self.arbitrate(self.views):
            self.cross_migrations_planned += 1
            spawn(self.manager.system,
                  self.manager.execute(action, action.src, root=self),
                  name=f"root/cross-migrate/{action.actor_id}")

    # -- cross-group arbitration ----------------------------------------

    def arbitrate(self, views: Dict[int, GroupAggregate]) -> List[Action]:
        """Plan cross-group balance moves from the groups' aggregates.

        Pure function of the views (no RNG, no clock mutation): hottest
        group's top-k hot actors onto the coldest group's least loaded
        server, only when the mean-CPU gap exceeds the band.  Cost is
        ``O(groups + top_k)`` — independent of servers and actors.
        """
        config = self.manager.config
        means: Dict[int, float] = {}
        for group, view in views.items():
            if view.server_count:
                means[group] = view.cpu_sum / view.server_count
        if len(means) < 2:
            return []
        hot = max(sorted(means), key=lambda g: means[g])
        cold = min(sorted(means), key=lambda g: means[g])
        if hot == cold or means[hot] - means[cold] <= config.cross_group_band:
            return []
        least = views[cold].least_loaded
        if least is None or not least.server.running:
            return []
        now = self.manager.system.now
        stability = config.stability_window_ms()
        actions: List[Action] = []
        for snap in views[hot].top_actors:
            if len(actions) >= config.max_moves_per_server:
                break
            if snap.pinned or snap.migrating:
                continue
            if now - snap.last_placed_at < stability:
                continue
            if snap.server is least.server:
                continue
            actions.append(Action(
                kind="balance", actor=snap, src=snap.server,
                dst=least.server, resource="cpu",
                src_load_perc=means[hot]))
        return actions

    # -- fleet-scaling arbitration --------------------------------------

    def concurs(self, requester_group: Optional[int], direction: str) -> bool:
        """Root's scale-vote arbitration: a majority of the *other*
        groups must not contradict the requesting group's view.  A group
        with no view yet abstains in favour (same rule as a GEM that has
        processed no rounds).  Vacuously true with one group — the flat
        plane has no veto.  A failed root abstains entirely: no veto
        authority while dead."""
        if self.failed:
            return True
        others = [group for group in self.hierarchy.groups.groups()
                  if group != requester_group]
        if not others:
            return True
        key = ("overload_fraction" if direction == "overloaded"
               else "underload_fraction")
        agreeing = 0
        for group in others:
            view = self.views.get(group)
            if view is None or getattr(view, key) >= 0.5:
                agreeing += 1
        return agreeing * 2 >= len(others)


class ControlHierarchy:
    """Wires groups, leaf GEMs and the root tier to one manager."""

    def __init__(self, manager: "ElasticityManager") -> None:
        self.manager = manager
        self.groups = ServerGroupMap(manager.config.server_group_size)
        #: gem_id -> group owning that leaf.
        self.leaf_group: Dict[int, int] = {}
        #: group -> its leaves in ``manager.gems`` order.  Both maps are
        #: written only by :meth:`add_leaf`; a leaf never changes group
        #: and ``manager.gems`` only grows, so the lists stay exact.
        self.leaves: Dict[int, List["GEM"]] = {}
        self.root = RootGem(manager, self)
        #: group -> gem_id of the foreign leaf currently adopting it
        #: (all the group's home leaves are failed).  ``leaf_group``
        #: stays the permanent *home* map — adoption never rewrites it,
        #: so a recovering home leaf can reclaim its group.
        self._adopted: Dict[int, int] = {}
        #: Membership announcements, in assignment order.  A degenerate
        #: (single-group) tree is inert and emits nothing; the backlog
        #: is flushed the moment a second group opens.
        self._memberships: List[Tuple[str, int, int]] = []
        self._announced = 0
        for server in manager.system.running_servers():
            self.groups.assign(server)

    def build_leaf_gems(self) -> List["GEM"]:
        """One set of ``gem_count`` leaf GEMs per initial group (a
        groupless fleet still gets group 0's set so reports have
        somewhere to go)."""
        gems: List[GEM] = []
        for group in range(max(1, self.groups.group_count())):
            for _ in range(self.manager.config.gem_count):
                gem = GEM(self.manager, len(gems))
                self.add_leaf(gem, group)
                gems.append(gem)
        return gems

    def add_leaf(self, gem: "GEM", group: int) -> None:
        """Make ``gem``, the newest GEM (its id is the next index of
        ``manager.gems``), a leaf of ``group``."""
        self.leaf_group[gem.gem_id] = group
        self.leaves.setdefault(group, []).append(gem)

    def active(self) -> bool:
        """The root tier only does work with more than one group; a
        single-group tree is the paper's flat plane and stays inert."""
        return self.groups.group_count() > 1

    def note_server(self, server: Server) -> int:
        """Assign (idempotently) a server to its group, growing the leaf
        tier when the assignment opens a new group.

        ``group-assigned`` events follow the inertness rule: nothing is
        emitted while the tree has one group (the flat plane's event
        stream carries no group events); when a second group opens, the
        whole backlog flushes in assignment order, so the checker's
        membership view is complete before the first aggregate can
        possibly be published.
        """
        group = self.groups.assign(server)
        if group not in self.leaves:
            for _ in range(self.manager.config.gem_count):
                gem = GEM(self.manager, len(self.manager.gems))
                gem.epoch = self.manager.epoch
                self.add_leaf(gem, group)
                self.manager.gems.append(gem)
        self._memberships.append((server.name, server.server_id, group))
        if self.active():
            while self._announced < len(self._memberships):
                name, server_id, grp = self._memberships[self._announced]
                self._announced += 1
                self.manager.emit("group-assigned", server=name,
                                  server_id=server_id, group=grp)
        return group

    def group_for_server(self, server: Server) -> int:
        group = self.groups.group_of(server.server_id)
        if group is None:
            group = self.groups.assign(server)
        return group

    def leaves_of(self, group: int) -> List["GEM"]:
        """The group's leaves, in ``manager.gems`` order (read-only)."""
        return self.leaves.get(group, [])

    def _gem_by_id(self, gem_id: Optional[int]) -> Optional["GEM"]:
        # A GEM's id is its index in the append-only ``manager.gems``.
        if gem_id is None:
            return None
        return self.manager.gems[gem_id]

    def adopter_for(self, group: int) -> Optional["GEM"]:
        """The alive foreign leaf adopting ``group``, if any."""
        adopter = self._gem_by_id(self._adopted.get(group))
        if adopter is not None and adopter.failed:
            return None
        return adopter

    def _group_has_running_member(self, group: int) -> bool:
        for server in self.manager.system.running_servers():
            if (server.running
                    and self.groups.group_of(server.server_id) == group):
                return True
        return False

    # -- failure and recovery -------------------------------------------

    def ensure_root(self) -> bool:
        """Promote a replacement root if the current one is failed.

        Deterministic: the alive leaf with the lowest gem_id hosts the
        next incarnation (every leaf runs the same rule, so whichever
        one detects the failure first — via its own publish or the
        failure detector — picks the same successor).  With no alive
        leaf a fresh dedicated root is respawned instead.  Either way
        the views are discarded: the new incarnation rebuilds them from
        the aggregates that leaves publish next.  Returns True if a
        promotion happened.
        """
        root = self.root
        if not root.failed:
            return False
        alive = [gem for gem in self.manager.gems
                 if not gem.failed
                 and self.leaf_group.get(gem.gem_id) is not None]
        promoted = min(alive, key=lambda g: g.gem_id) if alive else None
        root.generation += 1
        root.failed = False
        root.host_gem_id = promoted.gem_id if promoted else None
        root.views.clear()
        root.epoch = self.manager.epoch
        self.manager.root_failovers += 1
        if self.active():
            self.manager.emit(
                "root-failover", generation=root.generation,
                promoted_leaf=(promoted.gem_id if promoted else None),
                respawned=promoted is None)
        return True

    def reassign_orphan_groups(self) -> None:
        """Real leaf failover: groups whose home leaves are all failed
        are *adopted* by a surviving foreign leaf (LEM reports route to
        it via ``pick_gem`` and it publishes the group's aggregates),
        instead of falling through to the groupless emergency respawn.
        Recovered home leaves reclaim their group."""
        if not self.active():
            return
        manager = self.manager
        # Release first: a recovered home leaf reclaims its group, and a
        # dead adopter frees the slot for the re-adoption pass below.
        for group in list(self._adopted):
            adopter_id = self._adopted[group]
            adopter = self._gem_by_id(adopter_id)
            home_alive = [g for g in self.leaves_of(group) if not g.failed]
            if home_alive:
                del self._adopted[group]
                manager.emit("group-adoption-released", group=group,
                             adopter=adopter_id,
                             leaf=min(g.gem_id for g in home_alive))
            elif adopter is None or adopter.failed:
                del self._adopted[group]
        alive = [gem for gem in manager.gems
                 if not gem.failed
                 and self.leaf_group.get(gem.gem_id) is not None]
        for group in self.groups.groups():
            if group in self._adopted:
                continue
            home = self.leaves_of(group)
            if not home or any(not gem.failed for gem in home):
                continue
            if not self._group_has_running_member(group):
                continue  # dissolved group: nothing left to manage
            candidates = [gem for gem in alive
                          if self.leaf_group.get(gem.gem_id) != group]
            if not candidates:
                continue
            adopter = min(candidates, key=lambda g: g.gem_id)
            self._adopted[group] = adopter.gem_id
            manager.leaf_failovers += 1
            manager.emit("group-adopted", group=group,
                         adopter=adopter.gem_id,
                         home_leaves=tuple(sorted(g.gem_id for g in home)))

    def note_server_gone(self, server: Server) -> None:
        """A server crashed or retired: if its whole group is gone, drop
        the group's root view and adoption — a stale cold view would
        attract cross-group migrations onto dead servers forever."""
        group = self.groups.group_of(server.server_id)
        if group is None:
            return
        if self._group_has_running_member(group):
            return
        self.root.views.pop(group, None)
        self._adopted.pop(group, None)

    def publish(self, gem: "GEM", servers: List[ServerSnapshot],
                actors_by_server: Dict[int, List[ActorSnapshot]]) -> None:
        """Leaf round complete: build one aggregate per group this leaf
        serves (its home group plus any groups it adopted) and ship each
        to the root (one control-latency hop).

        This is also the leaf-driven root failure detection path: a
        publish that finds the root dead promotes first, so the promoted
        incarnation has its first inputs within one report period of the
        failure, without waiting for the suspicion timer.
        """
        home = self.leaf_group.get(gem.gem_id)
        if home is None:
            # Groupless emergency respawn (see respawn_gem): it may have
            # heard from several groups at once, so a "group" aggregate
            # from it would be meaningless — skip.
            return
        if self.root.failed:
            self.ensure_root()
        groups_served = [home] + sorted(
            group for group, adopter_id in self._adopted.items()
            if adopter_id == gem.gem_id and group != home)
        for group in groups_served:
            # A leaf can transiently hear from foreign servers (their
            # own group's leaves all failed, so they fell back to this
            # one).  Those reports inform this round's decisions, but
            # each *group* aggregate covers only that group's members.
            own = [snap for snap in servers
                   if self.groups.group_of(snap.server.server_id) == group]
            if not own:
                continue
            own_actors = {server_id: snaps
                          for server_id, snaps in actors_by_server.items()
                          if self.groups.group_of(server_id) == group}
            aggregate = build_aggregate(group, gem, own, own_actors,
                                        GROUP_TOP_K)
            self.manager.emit(
                "gem-aggregate", group=group, gem_id=gem.gem_id,
                epoch=gem.epoch, server_names=aggregate.server_names,
                server_cpu_percs=aggregate.server_cpu_percs,
                cpu_sum=aggregate.cpu_sum,
                server_count=aggregate.server_count,
                actor_count=aggregate.actor_count)
            self.manager.system.schedule(
                CONTROL_LATENCY_MS, self.root.receive_aggregate, aggregate)
