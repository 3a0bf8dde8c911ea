"""Global elasticity manager (GEM) — paper Algorithm 2.

A GEM accumulates REPORTs from the LEMs that picked it this period,
builds a global runtime snapshot of those servers, applies the *resource*
elasticity rules (``applyResRules``), and returns per-server migration
actions in RREPLYs.  When its whole region is overloaded (resp.
under-utilized) it runs the adjustment protocol — a majority vote among
GEMs — to grow (resp. shrink) the server fleet.

GEMs keep no synchronized state (paper §4.3): a failed GEM simply stops
replying, LEM timeouts fire, and the next period the shuffling process
routes reports to healthy GEMs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ...sim import Signal
from ..epl import Balance, Reserve
from ..profiling import ActorSnapshot, ServerSnapshot
from .actions import Action
from .config import ADMISSION_UPPER, CONTROL_LATENCY_MS
from .evaluate import (EvaluationScope, bound_snapshot, colocate_groups,
                       evaluate_rule, extract_bounds)
from .planning import plan_balance, plan_drain, plan_reserve

if TYPE_CHECKING:  # pragma: no cover
    from .lem import LEM
    from .manager import ElasticityManager

__all__ = ["GEM"]


class GEM:
    """Global elasticity manager."""

    def __init__(self, manager: "ElasticityManager", gem_id: int) -> None:
        self.manager = manager
        self.gem_id = gem_id
        self.failed = False
        #: Control-plane epoch this GEM last synced to.  Every RREPLY
        #: carries it; a LEM on a higher epoch rejects the actions as
        #: stale (epoch fencing).
        self.epoch = 0
        #: Quorum-less read-only mode: set by the manager while this GEM
        #: cannot reach a strict majority of running servers' LEMs.  A
        #: degraded GEM plans no migrations, requests no votes, and
        #: makes no fleet changes — it only acknowledges reports.
        self.degraded = False
        self.rounds_processed = 0
        self.overload_fraction = 0.0     # last observed region view
        self.underload_fraction = 0.0
        self._reports: List[Tuple["LEM", List[ActorSnapshot],
                                  ServerSnapshot, Signal]] = []
        self._processing_scheduled = False
        self._boots_this_round = 0
        #: Last-known-good snapshot per server id (time, server snap,
        #: actor snaps).  Only maintained while overload protection is
        #: active: a browned-out LEM reports less often, and planning
        #: against a bounded-staleness snapshot of a drowning server
        #: beats planning as if the server did not exist.
        self._last_known_good: Dict[int, Tuple[
            float, ServerSnapshot, List[ActorSnapshot]]] = {}
        self.stale_snapshots_used = 0

    def fail(self) -> None:
        """Simulate a GEM crash: stop replying to reports."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    # ------------------------------------------------------------------

    def receive_report(self, lem: "LEM", actors: List[ActorSnapshot],
                       server_snap: ServerSnapshot, reply: Signal) -> None:
        """REPORT from a LEM.  Processing starts ``gem_wait_ms`` after the
        first report of a round, so co-managed servers are considered
        together (the paper's K of reports to wait for is fixed at one)."""
        if self.failed:
            return
        self._reports.append((lem, actors, server_snap, reply))
        if not self._processing_scheduled:
            self._processing_scheduled = True
            self.manager.system.schedule(
                self.manager.config.gem_wait_ms, self._process)

    # ------------------------------------------------------------------

    def _process(self) -> None:
        self._processing_scheduled = False
        reports, self._reports = self._reports, []
        if not reports or self.failed:
            return
        if self.degraded:
            # Read-only mode: acting on a partial (partition-filtered)
            # snapshot makes provably bad decisions, so acknowledge the
            # reports with empty action lists and plan nothing.  The
            # LEMs proceed with local actions only, exactly as if this
            # GEM had timed out.
            for _lem, _actors, server_snap, reply in reports:
                if self.manager.reply_reachable(self, server_snap.server):
                    self.manager.system.schedule(
                        CONTROL_LATENCY_MS, reply.trigger, ((), self.epoch))
            return
        self.rounds_processed += 1
        self._boots_this_round = 0

        servers = [server_snap for (_l, _a, server_snap, _r) in reports]
        actors: List[ActorSnapshot] = []
        actors_by_server: Dict[int, List[ActorSnapshot]] = {}
        for _lem, actor_snaps, server_snap, _reply in reports:
            actors.extend(actor_snaps)
            actors_by_server[server_snap.server.server_id] = list(actor_snaps)

        if self.manager.overload is not None:
            self._fold_stale_snapshots(reports, servers, actors,
                                       actors_by_server)

        scope = EvaluationScope(
            servers=servers, actors=actors,
            resolve_ref=self.manager.resolve_ref_global)

        actions, need_scale_out, any_balance_bounds = self._apply_res_rules(
            scope, actors_by_server)

        self._update_region_view(servers, any_balance_bounds)
        if need_scale_out:
            self._try_scale_out()
        else:
            drain_actions = self._try_scale_in(
                servers, actors_by_server, any_balance_bounds)
            # Planning ran before the scale-in decision, so this round's
            # balance/reserve actions may target the just-chosen victim
            # (it looks ideally idle — that is *why* it was chosen).
            # Drop them rather than land actors on a draining server;
            # still-valid moves are simply replanned next period.
            draining = self.manager.draining_ids()
            if draining:
                actions = [action for action in actions
                           if action.dst.server_id not in draining]
            actions.extend(drain_actions)

        # RREPLY: route each action to the LEM of its source server,
        # stamped with this GEM's epoch.  A reply whose path a partition
        # severed is simply lost — the LEM's reply timeout covers it.
        queues: Dict[int, List[Action]] = {}
        for action in actions:
            queues.setdefault(action.src.server_id, []).append(action)
        for lem, _actors, server_snap, reply in reports:
            if not self.manager.reply_reachable(self, server_snap.server):
                continue
            lem_actions = queues.get(server_snap.server.server_id, [])
            self.manager.system.schedule(CONTROL_LATENCY_MS, reply.trigger,
                                         (lem_actions, self.epoch))

        # Ship an aggregate up to the root tier for every group this
        # leaf serves — its home group plus any group it adopted after
        # that group's own leaves all failed.  The publish path also
        # doubles as leaf-driven root failure detection (a dead root is
        # promoted before shipping).  A single-group tree has no root
        # decisions to feed and publishes nothing.
        hierarchy = self.manager.hierarchy
        if hierarchy.active():
            hierarchy.publish(self, servers, actors_by_server)

    def _fold_stale_snapshots(
            self, reports, servers: List[ServerSnapshot],
            actors: List[ActorSnapshot],
            actors_by_server: Dict[int, List[ActorSnapshot]]) -> None:
        """Brownout fallback: refresh the last-known-good cache from this
        round's reports, then plan against bounded-staleness snapshots of
        browned-out servers that skipped the round.

        Only *browned-out* servers are substituted — a server that is
        silent without having announced brownout is a failure-detector
        problem, not a planning problem.  No RREPLY is routed to a
        substituted server (its LEM did not report), so stale snapshots
        inform other servers' decisions without commanding the drowning
        one.
        """
        overload = self.manager.overload
        now = self.manager.system.now
        for _lem, actor_snaps, server_snap, _reply in reports:
            self._last_known_good[server_snap.server.server_id] = (
                now, server_snap, list(actor_snaps))
        reported = set(actors_by_server)
        for server_id in sorted(self._last_known_good):
            when, server_snap, cached = self._last_known_good[server_id]
            if not server_snap.server.running:
                del self._last_known_good[server_id]
                continue
            if (server_id in reported
                    or now - when > overload.config.stale_snapshot_ms
                    or not overload.is_browned_out(server_snap.server.name)):
                continue
            servers.append(server_snap)
            actors.extend(cached)
            actors_by_server[server_id] = list(cached)
            self.stale_snapshots_used += 1
            self.manager.emit("stale-snapshot-used", gem_id=self.gem_id,
                              server=server_snap.server.name,
                              age_ms=now - when)

    # -- applyResRules -----------------------------------------------------

    def _apply_res_rules(self, scope: EvaluationScope,
                         actors_by_server: Dict[int, List[ActorSnapshot]]):
        config = self.manager.config
        now = self.manager.system.now
        stability = config.stability_window_ms()
        actions: List[Action] = []
        need_scale_out = False
        bounds: Optional[Tuple[float, float]] = None
        groups = colocate_groups(self.manager.policy.actor_rules, scope)

        for rule in self.manager.policy.resource_rules:
            matches = evaluate_rule(rule, scope)
            if not matches:
                continue
            actions_before_rule = len(actions)
            for behavior in rule.behaviors:
                if isinstance(behavior, Balance):
                    lower, upper = extract_bounds(rule, behavior.resource)
                    bounds = (lower, upper)
                    plan = plan_balance(
                        scope.servers, actors_by_server,
                        behavior.actor_types, behavior.resource,
                        lower, upper, now, stability,
                        config.max_moves_per_server, rule.index,
                        groups=groups,
                        draining=self.manager.draining_ids(),
                        unreachable=self.manager.isolated_server_ids())
                    actions.extend(plan.actions)
                    need_scale_out |= (plan.need_scale_out
                                       or plan.all_overloaded)
                elif isinstance(behavior, Reserve):
                    taken = {a.actor_id for a in actions}
                    reserved_dst: Dict[int, "Server"] = {}
                    moves_per_src: Dict[int, int] = {}
                    projected_load: Dict[int, float] = {}
                    projected_pop: Dict[int, int] = {}
                    _lower, trigger = extract_bounds(
                        rule, behavior.resource,
                        default_upper=ADMISSION_UPPER)
                    for match in matches:
                        target_snap = bound_snapshot(behavior.target, match)
                        if target_snap is None:
                            continue
                        if target_snap.actor_id in taken:
                            continue
                        src_id = target_snap.server.server_id
                        if (moves_per_src.get(src_id, 0)
                                >= config.max_moves_per_server):
                            continue  # gradual, like balance (§4.3)
                        planned, scale = plan_reserve(
                            target_snap, scope.servers, actors_by_server,
                            behavior.resource, ADMISSION_UPPER, now,
                            stability, rule.index, groups=groups,
                            trigger=trigger,
                            projected_load=projected_load,
                            projected_pop=projected_pop,
                            draining=self.manager.draining_ids(),
                            unreachable=self.manager.isolated_server_ids())
                        need_scale_out |= scale
                        if planned:
                            moves_per_src[src_id] = \
                                moves_per_src.get(src_id, 0) + 1
                        for action in planned:
                            if action.actor_id in taken:
                                continue
                            taken.add(action.actor_id)
                            reserved_dst[action.actor_id] = action.dst
                            actions.append(action)
                    actions.extend(self._companion_colocations(
                        rule, behavior, matches, reserved_dst, taken))
            if rule.priority is not None:
                for action in actions[actions_before_rule:]:
                    action.priority_override = rule.priority
        return actions, need_scale_out, bounds

    def _companion_colocations(self, rule, behavior: Reserve, matches,
                               reserved_dst, taken) -> List[Action]:
        """When a mixed rule reserves an actor *and* colocates others with
        it (the Metadata Server rule), the colocated partners must follow
        the reserve's freshly chosen target — the LEM cannot know it.
        Emits colocate actions toward the reserved actor's destination.
        """
        companions = [
            r for r in self.manager.policy.actor_rules
            if r.index == rule.index]
        if not companions:
            return []
        reserve_var = behavior.target.var
        if reserve_var is None:
            return []
        actions: List[Action] = []
        from ..epl import Colocate
        for companion in companions:
            for colocate in companion.behaviors:
                if not isinstance(colocate, Colocate):
                    continue
                sides = (colocate.first.var, colocate.second.var)
                if reserve_var not in sides:
                    continue
                other_var = sides[1] if sides[0] == reserve_var else sides[0]
                if other_var is None:
                    continue
                for match in matches:
                    anchor = match.bindings.get(reserve_var)
                    other = match.bindings.get(other_var)
                    if anchor is None or other is None:
                        continue
                    dst = reserved_dst.get(anchor.actor_id)
                    if dst is None:
                        # Anchor stayed put (already well placed); bring
                        # the partner to wherever the anchor lives now.
                        dst = anchor.server
                    if other.server is dst or other.pinned or other.migrating:
                        continue
                    if other.actor_id in taken:
                        continue
                    taken.add(other.actor_id)
                    actions.append(Action(
                        kind="colocate", actor=other, src=other.server,
                        dst=dst, rule_index=rule.index))
        return actions

    # -- fleet adjustment (scale out / in) ------------------------------------

    def _update_region_view(self, servers: List[ServerSnapshot],
                            bounds: Optional[Tuple[float, float]]) -> None:
        if not servers:
            return
        lower, upper = bounds if bounds else (60.0, 80.0)
        resource = "cpu"
        over = sum(1 for s in servers if s.resource_perc(resource) > upper)
        under = sum(1 for s in servers if s.resource_perc(resource) < lower)
        self.overload_fraction = over / len(servers)
        self.underload_fraction = under / len(servers)

    def _try_scale_out(self) -> None:
        config = self.manager.config
        if (self.degraded
                or self._boots_this_round >= config.max_scale_out_per_period):
            return
        if self.manager.system.pending_boots() > 0:
            return
        if not self.manager.vote(self, "overloaded"):
            return
        self._boots_this_round += 1
        self.manager.emit("scale-out", gem_id=self.gem_id,
                          overload_fraction=self.overload_fraction)
        self.manager.system.boot_server(config.scale_instance_type)

    def _try_scale_in(self, servers: List[ServerSnapshot],
                      actors_by_server: Dict[int, List[ActorSnapshot]],
                      bounds: Optional[Tuple[float, float]]) -> List[Action]:
        config = self.manager.config
        if (config.min_servers is None or self.degraded
                or len(servers) < 2):
            return []
        lower, upper = bounds if bounds else (60.0, 80.0)
        if len(self.manager.system.running_servers()) <= config.min_servers:
            return []
        below = [s for s in servers if s.resource_perc("cpu") < lower
                 and not self.manager.is_draining(s.server)]
        if len(below) != len(servers):
            return []
        if not self.manager.vote(self, "underloaded"):
            return []
        victim = min(servers, key=lambda s: s.resource_perc("cpu"))
        others = [s for s in servers if s is not victim
                  and not self.manager.is_draining(s.server)]
        if not others:
            return []
        victim_actors = actors_by_server.get(victim.server.server_id, [])
        now = self.manager.system.now
        drain = plan_drain(victim, others, victim_actors, "cpu", upper,
                           now, config.stability_window_ms())
        if drain is None:
            return []
        self.manager.emit("scale-in", gem_id=self.gem_id,
                          victim=victim.server.name,
                          underload_fraction=self.underload_fraction,
                          planned_moves=len(drain))
        self.manager.mark_draining(victim.server)
        return drain
