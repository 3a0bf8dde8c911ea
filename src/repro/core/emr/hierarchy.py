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
  :class:`GroupAggregate` — summed resource vectors plus the top-k hot
  actors, *not* per-actor rows — to the single :class:`RootGem`.
  Aggregates are **delta-compressed** (only fields that changed since
  the group's last publish ship) and **batched** (the root folds
  everything arriving within one collection window before deciding).
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
  also driven by the failure detector); promotion bumps ``generation``,
  discards the folded views, and clears the whole delta history so
  every group's next publish is a *full* aggregate.  Root-planned
  migrations in flight check the generation before committing, so a
  stale root's decision never executes after its successor takes over.
- **Leaf failover with group adoption**: when all of a group's home
  leaves fail, a surviving leaf from another group *adopts* the group
  (``_adopted``): LEM reports route to the adopter, which publishes a
  separate per-group aggregate for each group it serves.  Adoption and
  release both reset the group's delta baseline — ``delta_against``
  assumes an unbroken stream, so any publisher change forces a full
  republish (the ``aggregate-resync-after-failover`` invariant).
- A delta arriving for a group the root has no view of (in flight
  across a promotion, or after a view prune) is undecodable and is
  dropped unless it carries every field; the full republish that the
  baseline reset forces supersedes it within one report period.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ...cluster import Server, ServerGroupMap
from ...sim import Timeout, spawn
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
    """One leaf group's compressed REPORT to the root tier.

    Summed resource vectors and a bounded hot set — the root never sees
    per-actor rows, which is what keeps its per-round decision cost
    independent of the actor population.
    """

    group: int
    gem_id: int
    epoch: int
    server_count: int
    actor_count: int
    cpu_sum: float
    mem_sum: float
    net_sum: float
    overload_fraction: float
    underload_fraction: float
    server_names: Tuple[str, ...]
    server_cpu_percs: Tuple[float, ...]
    top_actors: Tuple[ActorSnapshot, ...]
    least_loaded: Optional[ServerSnapshot]

    def delta_against(self, prev: Optional["GroupAggregate"]) -> Dict[str, Any]:
        """Fields that changed since ``prev`` (everything on first
        publish).  ``group``/``gem_id``/``epoch`` always ship — they are
        the envelope, not payload."""
        names = [f.name for f in dataclass_fields(self)]
        if prev is None:
            return {name: getattr(self, name) for name in names}
        delta: Dict[str, Any] = {"group": self.group, "gem_id": self.gem_id,
                                 "epoch": self.epoch}
        for name in names:
            if name in delta:
                continue
            if getattr(self, name) != getattr(prev, name):
                delta[name] = getattr(self, name)
        return delta


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
        mem_sum=sum(s.mem_perc for s in servers),
        net_sum=sum(s.net_perc for s in servers),
        overload_fraction=gem.overload_fraction,
        underload_fraction=gem.underload_fraction,
        server_names=tuple(s.server.name for s in servers),
        server_cpu_percs=tuple(s.cpu_perc for s in servers),
        top_actors=top, least_loaded=least)


#: Number of fields a *full* (non-delta) aggregate carries; a delta for
#: a group with no folded view is undecodable below this.
_AGGREGATE_FIELD_COUNT = len(dataclass_fields(GroupAggregate))


class RootGem:
    """Root tier: folds per-group aggregate views, arbitrates only
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
        #: Folded per-group view: group -> field dict, updated by deltas.
        self.views: Dict[int, Dict[str, Any]] = {}
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

        The recovering root missed every delta shipped while it was
        down, so its folded views are garbage: discard them and reset
        the delta history so each group's next publish is full.
        """
        self.failed = False
        self.views.clear()
        self.hierarchy.reset_delta_history()

    # -- aggregate ingest (delta-folded, batched) -----------------------

    def receive_aggregate(self, group: int, delta: Dict[str, Any]) -> None:
        if self.failed:
            return
        if group not in self.views and len(delta) < _AGGREGATE_FIELD_COUNT:
            # A delta with no base view to fold onto is undecodable —
            # it was in flight across a promotion/recovery (which wiped
            # the views) or a view prune.  Drop it; the baseline reset
            # already forced the publisher's next aggregate to be full.
            return
        self.aggregates_received += 1
        self.views.setdefault(group, {}).update(delta)
        if not self._flush_scheduled:
            # Batch: every aggregate landing within one collection
            # window rides the same root round.
            self._flush_scheduled = True
            self.manager.backend.schedule(
                self.manager.config.gem_wait_ms, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.manager.running or self.failed or not self.views:
            return
        self.rounds_processed += 1
        self.manager.emit("root-round", generation=self.generation,
                          groups=tuple(
            (group, view.get("cpu_sum", 0.0), view.get("server_count", 0),
             view.get("actor_count", 0))
            for group, view in sorted(self.views.items())))
        for action in self.arbitrate(self.views):
            self.cross_migrations_planned += 1
            spawn(self.manager.backend, self._execute_cross(action),
                  name=f"root/cross-migrate/{action.actor_id}")

    # -- cross-group arbitration ----------------------------------------

    def arbitrate(self, views: Dict[int, Dict[str, Any]]) -> List[Action]:
        """Plan cross-group balance moves from the folded views.

        Pure function of the views (no RNG, no clock mutation): hottest
        group's top-k hot actors onto the coldest group's least loaded
        server, only when the mean-CPU gap exceeds the band.  Cost is
        ``O(groups + top_k)`` — independent of servers and actors.
        """
        config = self.manager.config
        means: Dict[int, float] = {}
        for group, view in views.items():
            count = view.get("server_count", 0)
            if count:
                means[group] = view.get("cpu_sum", 0.0) / count
        if len(means) < 2:
            return []
        hot = max(sorted(means), key=lambda g: means[g])
        cold = min(sorted(means), key=lambda g: means[g])
        if hot == cold or means[hot] - means[cold] <= config.cross_group_band:
            return []
        least = views[cold].get("least_loaded")
        if least is None or not least.server.running:
            return []
        now = self.manager.backend.now
        stability = config.stability_window_ms()
        actions: List[Action] = []
        for snap in views[hot].get("top_actors", ()):
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

    def _execute_cross(self, action: Action):
        """Admission-checked execution of one root-planned move (the
        same guards the LEM applies to its own actions).

        Generation-fenced: the proc captures the issuing incarnation and
        bails at every resumption if the root died or was superseded —
        a stale root's plan must never start a migration (once started,
        the two-phase protocol's own timeouts drive it to commit or
        rollback regardless of what happens to the root).
        """
        manager = self.manager
        backend = manager.backend
        config = manager.config
        generation = self.generation
        record = manager.system.directory.try_lookup(action.actor_id)
        if record is None or record.migrating or record.pinned:
            return
        if record.server is not action.src:
            return  # stale: the actor moved since the aggregate
        if not action.dst.running or manager.is_draining(action.dst):
            return
        if (manager.server_quorumless(action.src)
                or manager.server_quorumless(action.dst)):
            return
        if (backend.now - record.last_placed_at
                < config.stability_window_ms()):
            return
        target_lem = manager.lem_for(action.dst)
        if target_lem is None:
            return
        yield Timeout(backend, CONTROL_LATENCY_MS)
        if self.failed or self.generation != generation:
            return
        accepted = target_lem.check_idle_res(action)
        yield Timeout(backend, CONTROL_LATENCY_MS)
        if not accepted:
            return
        if (self.failed or self.generation != generation
                or self.epoch < manager.epoch):
            return  # issuing incarnation lost authority mid-flight
        backend.migrate_actor(record.ref, action.dst)
        manager.note_migration(action, issuer="root")

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
            if view is None or view.get(key, 0.0) >= 0.5:
                agreeing += 1
        return agreeing * 2 >= len(others)


class ControlHierarchy:
    """Wires groups, leaf GEMs and the root tier to one manager."""

    def __init__(self, manager: "ElasticityManager") -> None:
        self.manager = manager
        self.groups = ServerGroupMap(manager.config.server_group_size)
        #: gem_id -> group owning that leaf.
        self.leaf_group: Dict[int, int] = {}
        self.root = RootGem(manager, self)
        self._last_published: Dict[int, GroupAggregate] = {}
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
        for server in manager.backend.servers():
            self.groups.assign(server)

    def build_leaf_gems(self) -> List["GEM"]:
        """One set of ``gem_count`` leaf GEMs per initial group (a
        groupless fleet still gets group 0's set so reports have
        somewhere to go)."""
        gems: List[GEM] = []
        for group in range(max(1, self.groups.group_count())):
            for _ in range(self.manager.config.gem_count):
                gem = GEM(self.manager, len(gems))
                self.leaf_group[gem.gem_id] = group
                gems.append(gem)
        return gems

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
        if group not in self.leaf_group.values():
            for _ in range(self.manager.config.gem_count):
                gem = GEM(self.manager, len(self.manager.gems))
                gem.epoch = self.manager.epoch
                self.leaf_group[gem.gem_id] = group
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
        return [gem for gem in self.manager.gems
                if self.leaf_group.get(gem.gem_id) == group]

    def _gem_by_id(self, gem_id: Optional[int]) -> Optional["GEM"]:
        if gem_id is None:
            return None
        for gem in self.manager.gems:
            if gem.gem_id == gem_id:
                return gem
        return None

    def adopter_for(self, group: int) -> Optional["GEM"]:
        """The alive foreign leaf adopting ``group``, if any."""
        adopter = self._gem_by_id(self._adopted.get(group))
        if adopter is not None and adopter.failed:
            return None
        return adopter

    def _group_has_running_member(self, group: int) -> bool:
        for server in self.manager.backend.servers():
            if (server.running
                    and self.groups.group_of(server.server_id) == group):
                return True
        return False

    # -- failure and recovery -------------------------------------------

    def reset_delta_history(self) -> None:
        """Drop every group's delta baseline: the next publish from each
        group ships a full aggregate.  Called whenever the aggregate
        stream breaks (root promotion or recovery)."""
        self._last_published.clear()

    def ensure_root(self) -> bool:
        """Promote a replacement root if the current one is failed.

        Deterministic: the alive leaf with the lowest gem_id hosts the
        next incarnation (every leaf runs the same rule, so whichever
        one detects the failure first — via its own publish or the
        failure detector — picks the same successor).  With no alive
        leaf a fresh dedicated root is respawned instead.  Either way
        the views and the delta history are discarded: the new
        incarnation rebuilds from the full aggregates that leaves
        re-publish.  Returns True if a promotion happened.
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
        self.reset_delta_history()
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
        Recovered home leaves reclaim their group.  Every adoption
        change resets the group's delta baseline so the next publisher
        starts with a full aggregate."""
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
                self._last_published.pop(group, None)
                manager.emit("group-adoption-released", group=group,
                             adopter=adopter_id,
                             leaf=min(g.gem_id for g in home_alive))
            elif adopter is None or adopter.failed:
                del self._adopted[group]
                self._last_published.pop(group, None)
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
            self._last_published.pop(group, None)
            manager.leaf_failovers += 1
            manager.emit("group-adopted", group=group,
                         adopter=adopter.gem_id,
                         home_leaves=tuple(sorted(g.gem_id for g in home)))

    def note_server_gone(self, server: Server) -> None:
        """A server crashed or retired: if its whole group is gone,
        drop the group's delta baseline, folded root view and adoption —
        a stale baseline would corrupt the next delta if the group ever
        repopulates, and a stale cold view would attract cross-group
        migrations onto dead servers forever."""
        group = self.groups.group_of(server.server_id)
        if group is None:
            return
        if self._group_has_running_member(group):
            return
        self._last_published.pop(group, None)
        self.root.views.pop(group, None)
        self._adopted.pop(group, None)

    def publish(self, gem: "GEM", servers: List[ServerSnapshot],
                actors_by_server: Dict[int, List[ActorSnapshot]]) -> None:
        """Leaf round complete: delta-compress one aggregate per group
        this leaf serves (its home group plus any groups it adopted) and
        ship each to the root (one control-latency hop).

        This is also the leaf-driven root failure detection path: a
        publish that finds the root dead promotes first (and thereby
        resets the delta history), so the promoted incarnation's first
        inputs are full aggregates — within one report period of the
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
            delta = aggregate.delta_against(self._last_published.get(group))
            self._last_published[group] = aggregate
            self.manager.emit(
                "gem-aggregate", group=group, gem_id=gem.gem_id,
                epoch=gem.epoch, server_names=aggregate.server_names,
                server_cpu_percs=aggregate.server_cpu_percs,
                cpu_sum=aggregate.cpu_sum, mem_sum=aggregate.mem_sum,
                net_sum=aggregate.net_sum,
                server_count=aggregate.server_count,
                actor_count=aggregate.actor_count,
                delta_fields=tuple(sorted(delta)))
            self.manager.backend.schedule(
                CONTROL_LATENCY_MS, self.root.receive_aggregate,
                group, delta)
