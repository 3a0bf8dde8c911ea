"""Local elasticity manager (LEM) — paper Algorithm 1.

One LEM runs per server.  Every elasticity period it:

1. reads local actors' runtime info from the profiling runtime and
   applies the *actor* (interaction) elasticity rules locally
   (``applyActRules``) — pinning actors and proposing colocate/separate
   migrations;
2. reports actor + server runtime info to a randomly chosen GEM
   (``REPORT``) and waits for the GEM's migration actions (``RREPLY``),
   tolerating GEM failure by timing out and proceeding with local
   actions only;
3. resolves conflicts between its own and the GEM's actions by priority
   (``resolveActions``);
4. queries each action's target server for admission
   (``QUERY``/``QREPLY``, :meth:`check_idle_res`) and starts the live
   migrations the targets accepted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ...cluster import Server
from ...sim import Signal, Timeout, spawn
from ..epl import Colocate, Pin, Separate
from ..profiling import ActorSnapshot, ServerSnapshot
from .actions import Action, resolve_actions
from .config import ADMISSION_UPPER, CONTROL_LATENCY_MS
from .evaluate import EvaluationScope, evaluate_rule
from .planning import contribution_perc

if TYPE_CHECKING:  # pragma: no cover
    from .manager import ElasticityManager

__all__ = ["LEM"]


class LEM:
    """Local elasticity manager for one server."""

    def __init__(self, manager: "ElasticityManager", server: Server,
                 index: int) -> None:
        self.manager = manager
        self.server = server
        self.index = index
        #: Control-plane epoch this LEM last observed.  RREPLY actions
        #: stamped with a lower epoch are rejected as stale: they were
        #: planned by a GEM that has not seen the latest partition event.
        self.epoch = 0
        self.rounds_run = 0
        self.migrations_started = 0
        self.stale_replies_rejected = 0
        self._reserved_perc: Dict[str, float] = {}
        self._process = None

    def start(self) -> None:
        """Start this LEM's own period timer (one per server, as in the
        paper).  A runtime whose servers all share one process drives
        :meth:`begin_round`/:meth:`finish_round` from a single timer
        instead and never calls this."""
        self._process = spawn(self.manager.backend, self._run(),
                              name=f"lem/{self.server.name}")

    def cancel(self) -> None:
        """Stop this LEM's period timer (its host server crashed)."""
        if self._process is not None and not self._process.finished:
            self._process.interrupt()

    # ------------------------------------------------------------------

    def _run(self):
        backend = self.manager.backend
        config = self.manager.config
        # Align rounds to global period boundaries (plus a small stagger)
        # so every LEM's REPORT reaches its GEM within one collection
        # window — a server that boots mid-period must not end up
        # permanently phase-shifted from the rest of the fleet, or GEMs
        # would never see hot and idle servers in the same snapshot.
        offset = min(config.lem_stagger_ms * self.index,
                     config.gem_wait_ms / 2.0)
        while self.manager.running and self.server.running:
            to_boundary = config.period_ms - (backend.now % config.period_ms)
            yield Timeout(backend, to_boundary + offset)
            if not (self.manager.running and self.server.running):
                return
            yield from self.finish_round(*self.begin_round())
            overload = self.manager.overload
            if (overload is not None
                    and overload.is_browned_out(self.server.name)
                    and overload.config.brownout_stretch > 1):
                # Brownout: stretch the reporting period — skip the next
                # stretch-1 boundaries, then realign as usual.  Every
                # skipped round is profiling and control traffic a
                # saturated server does not pay.
                yield Timeout(backend, (overload.config.brownout_stretch - 1)
                              * config.period_ms)

    def begin_round(self):
        """The synchronous head of a round: heartbeat, snapshots, actor
        rules, REPORT.  Returns the arguments of :meth:`finish_round`."""
        backend = self.manager.backend
        config = self.manager.config
        self.rounds_run += 1
        self._reserved_perc = {}
        # Heartbeat for failure detection: a round starting is proof the
        # server is alive, even under policies with no resource rules
        # (where no REPORT would otherwise reach a GEM).
        self.manager.note_report(self.server)

        records = backend.actors_on(self.server)
        actor_snaps = self.manager.profiler.snapshot_actors(records)
        server_snap = self.manager.profiler.snapshot_server(
            self.server, records)
        # Booked memory as of the snapshot.  The round then blocks on the
        # GEM reply; a migration completing during that wait would change
        # the live value and make the snapshot/memory identity in
        # _emit_round_debug racy.
        mem_used_mb = self.server.memory_used_mb

        overload = self.manager.overload
        browned_out = False
        if overload is not None:
            server_snap.mailbox_backlog = sum(
                backend.mailbox_depth(record.ref.actor_id)
                for record in records)
            server_snap.messages_shed = overload.shed_by_server.get(
                self.server.name, 0)
            browned_out = overload.note_lem_round(
                self.server, server_snap.cpu_perc, backend.now)

        lem_actions = self._apply_act_rules(actor_snaps, server_snap)

        reply = None
        gem = self.manager.pick_gem(self.server)
        if gem is not None and self.manager.policy.resource_rules:
            related = self._collect_actors_for_res_rules(actor_snaps)
            if (browned_out
                    and len(related) > overload.config.brownout_top_k):
                related = self._truncate_report(related)
            reply = Signal(backend)
            if self.manager.report_reachable(self.server, gem):
                backend.schedule(CONTROL_LATENCY_MS, gem.receive_report,
                                 self, related, server_snap, reply)
            # A REPORT a partition ate still costs the full reply wait:
            # the LEM cannot tell a lost message from a slow GEM.
            backend.schedule(config.gem_reply_timeout_ms, reply.trigger, None)
        return (lem_actions, gem, reply,
                (actor_snaps, server_snap, mem_used_mb))

    def finish_round(self, lem_actions: List[Action], gem, reply,
                     snapshot):
        """The generator tail of a round: await the RREPLY (if a REPORT
        went out), resolve conflicts, QUERY targets, migrate."""
        gem_actions: List[Action] = []
        if reply is not None:
            result = yield reply
            if result is not None:
                actions, gem_epoch = result
                if gem_epoch < self.epoch:
                    # Epoch fencing: these actions were planned under a
                    # superseded view of the fleet.
                    self.stale_replies_rejected += 1
                    self.manager.emit("stale-epoch-rejected",
                                      server=self.server.name,
                                      gem_id=gem.gem_id,
                                      lem_epoch=self.epoch,
                                      gem_epoch=gem_epoch)
                else:
                    self.epoch = gem_epoch
                    gem_actions = list(actions)

        final = resolve_actions(lem_actions, gem_actions)
        if self.manager.debug_events:
            self._emit_round_debug(*snapshot, lem_actions, gem_actions,
                                   final)
        for action in final:
            yield from self._execute(action)

    def _truncate_report(
            self, related: List[ActorSnapshot]) -> List[ActorSnapshot]:
        """Brownout REPORT compression: keep only the top-k actors by
        CPU share (deterministic: ties broken by actor id).  The GEM
        still sees the server-level totals, so its region view stays
        correct; what it loses is per-actor detail about the cold tail —
        exactly the actors no resource rule is about to move."""
        top_k = self.manager.overload.config.brownout_top_k
        truncated = sorted(related,
                           key=lambda s: (-s.cpu_perc, s.actor_id))[:top_k]
        self.manager.emit("report-truncated", server=self.server.name,
                          kept=len(truncated), dropped=len(related)
                          - len(truncated))
        return truncated

    def _emit_round_debug(self, actor_snaps: List[ActorSnapshot],
                          server_snap: ServerSnapshot,
                          mem_used_mb: float,
                          lem_actions: List[Action],
                          gem_actions: List[Action],
                          final: List[Action]) -> None:
        """Verbose per-round events for the invariant checker (gated on
        ``manager.debug_events`` so normal runs pay nothing)."""
        manager = self.manager
        depths = tuple(manager.backend.mailbox_depth(snap.actor_id)
                       for snap in actor_snaps)
        overload = manager.overload
        manager.emit(
            "lem-round", server=self.server.name,
            server_cpu_perc=server_snap.cpu_perc,
            server_mem_perc=server_snap.mem_perc,
            server_net_perc=server_snap.net_perc,
            actor_count=server_snap.actor_count,
            actor_mem_mb=sum(snap.mem_mb for snap in actor_snaps),
            server_mem_used_mb=mem_used_mb,
            memory_mb=self.server.itype.memory_mb,
            actor_cpu_percs=tuple(snap.cpu_perc for snap in actor_snaps),
            # Overload diagnosability: queue depth and drop accounting
            # in every round event, so an overload incident can be
            # reconstructed from a trace without re-running.
            mailbox_backlog=sum(depths),
            mailbox_depth_max=max(depths, default=0),
            messages_shed=(overload.shed_by_server.get(self.server.name, 0)
                           if overload is not None else 0),
            brownout=(overload.is_browned_out(self.server.name)
                      if overload is not None else False))
        if lem_actions or gem_actions:
            candidates: Dict[int, list] = {}
            for action in list(lem_actions) + list(gem_actions):
                candidates.setdefault(action.actor_id, []).append(
                    (action.kind, action.priority))
            manager.emit(
                "actions-resolved", server=self.server.name,
                candidates=candidates,
                chosen={action.actor_id: (action.kind, action.priority)
                        for action in final})

    # -- applyActRules --------------------------------------------------------

    def _apply_act_rules(self, actor_snaps: List[ActorSnapshot],
                         server_snap: ServerSnapshot) -> List[Action]:
        scope = EvaluationScope(
            servers=[server_snap], actors=actor_snaps,
            resolve_ref=self.manager.resolve_ref_global)
        actions: List[Action] = []
        # Projected placements for this round: separate actions must see
        # where earlier actions already decided to send actors, or every
        # mover picks the same least-loaded target and the group travels
        # together, never actually separating.
        projected: Dict[int, Server] = {}
        arrivals: Dict[int, int] = {}
        for rule in self.manager.policy.actor_rules:
            for match in evaluate_rule(rule, scope):
                for behavior in rule.behaviors:
                    if isinstance(behavior, Pin):
                        self._apply_pin(behavior, match)
                    elif isinstance(behavior, Colocate):
                        action = self._plan_colocate(behavior, match,
                                                     rule.index)
                        if action is not None:
                            action.priority_override = rule.priority
                            actions.append(action)
                    elif isinstance(behavior, Separate):
                        action = self._plan_separate(behavior, match,
                                                     rule.index,
                                                     projected, arrivals)
                        if action is not None:
                            action.priority_override = rule.priority
                            actions.append(action)
        return actions

    def _bound(self, pattern, match) -> Optional[ActorSnapshot]:
        if pattern.var is not None:
            return match.bindings.get(pattern.var)
        # Anonymous pattern: single candidate of that type in the match.
        for var, snap in match.bindings.items():
            if var.startswith("__anon") and snap.type_name == pattern.type_name:
                return snap
        return None

    def _apply_pin(self, behavior: Pin, match) -> None:
        snap = self._bound(behavior.target, match)
        if snap is not None:
            self.manager.backend.pin(snap.ref, True)
            snap.pinned = True

    def _plan_colocate(self, behavior: Colocate, match,
                       rule_index: int) -> Optional[Action]:
        first = self._bound(behavior.first, match)
        second = self._bound(behavior.second, match)
        if first is None or second is None:
            return None
        if first.server is second.server:
            return None
        mover, anchor = self._choose_mover(first, second)
        if mover is None:
            return None
        if self.manager.is_draining(anchor.server):
            # The anchor is about to be drained off this server anyway;
            # colocate once both have settled somewhere that stays up.
            return None
        return Action(kind="colocate", actor=mover, src=mover.server,
                      dst=anchor.server, rule_index=rule_index)

    @staticmethod
    def _choose_mover(first: ActorSnapshot, second: ActorSnapshot):
        """Pick which of the two actors migrates: never a pinned one;
        otherwise the one with less state to transfer (second on ties)."""
        if first.pinned and second.pinned:
            return None, None
        if first.pinned:
            return second, first
        if second.pinned:
            return first, second
        if first.state_size_mb < second.state_size_mb:
            return first, second
        return second, first

    def _plan_separate(self, behavior: Separate, match, rule_index: int,
                       projected: Dict[int, Server],
                       arrivals: Dict[int, int]) -> Optional[Action]:
        first = self._bound(behavior.first, match)
        second = self._bound(behavior.second, match)
        if first is None or second is None:
            return None
        first_server = projected.get(first.actor_id, first.server)
        second_server = projected.get(second.actor_id, second.server)
        if first_server is not second_server:
            return None  # already apart (possibly thanks to this round)
        # Move the rule's first argument by convention ("separate(l1, p)"
        # reads as "move l1 away from p"), unless it is pinned.
        mover, anchor = (first, second) if not first.pinned else (
            (second, first) if not second.pinned else (None, None))
        if mover is None:
            return None
        anchor_server = projected.get(anchor.actor_id, anchor.server)
        target = self._separate_target(mover, anchor_server, arrivals)
        if target is None:
            return None  # "whenever resources are available" — they aren't
        projected[mover.actor_id] = target
        arrivals[target.server_id] = arrivals.get(target.server_id, 0) + 1
        return Action(kind="separate", actor=mover,
                      src=mover.server, dst=target, rule_index=rule_index)

    def _separate_target(self, mover: ActorSnapshot, avoid: Server,
                         arrivals: Dict[int, int]) -> Optional[Server]:
        """Least-loaded server other than the anchor's, tie-broken by how
        many actors this round already routed there."""
        window = self.manager.config.period_ms
        # A draining scale-in victim looks ideally idle — exclude it, or
        # separated actors land on a server about to retire.
        candidates = [
            s for s in self.manager.backend.servers()
            if (s.running and s is not avoid and s is not mover.server
                and not self.manager.is_draining(s)
                and not self.manager.server_quorumless(s))]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda s: (arrivals.get(s.server_id, 0),
                                  s.cpu_percent(window), s.server_id))

    # -- resource-rule reporting ------------------------------------------------

    def _collect_actors_for_res_rules(
            self, actor_snaps: List[ActorSnapshot]) -> List[ActorSnapshot]:
        """Table 2's ``collectActorsFResRules``: actors whose type any
        resource rule may act upon (its subjects and bound variables)."""
        relevant = set()
        for rule in self.manager.policy.resource_rules:
            relevant.update(rule.subject_types)
            relevant.update(rule.variables.values())
        if "any" in relevant:
            return actor_snaps
        return [snap for snap in actor_snaps if snap.type_name in relevant]

    # -- action execution ------------------------------------------------------

    def _execute(self, action: Action):
        backend = self.manager.backend
        config = self.manager.config
        if self.manager.server_quorumless(self.server):
            # This server sits on the minority side of a partition: its
            # view is partial and its control plane is cut off, so defer
            # every migration until the heal re-admits it.
            return
        # Resolve through this LEM's lookup cache when the directory is
        # sharded (epoch-fenced, so a commit since the fill forces the
        # shard-consultation miss path); the flat map resolves directly.
        directory = self.manager.system.directory
        cached = getattr(directory, "cached_lookup", None)
        if cached is not None:
            record = cached(self.server.server_id, action.actor_id)
        else:
            record = directory.try_lookup(action.actor_id)
        if record is None or record.migrating:
            return
        if record.pinned and action.kind != "reserve":
            return  # pin blocks every behavior except an explicit reserve
        if record.server is not action.src:
            return  # stale: the actor moved since planning
        if not action.dst.running or self.manager.is_draining(action.dst):
            return  # stale: the target retired or became a scale-in victim
        if self.manager.server_quorumless(action.dst):
            # A partition opened after this plan was made and the target
            # landed on the minority side.  Epoch fencing cannot catch
            # this (planner and executor are both on the majority side),
            # so recheck the destination at execute time.
            return
        if (backend.now - record.last_placed_at
                < config.stability_window_ms()):
            return
        target_lem = self.manager.lem_for(action.dst)
        if target_lem is None:
            return
        # QUERY the target server; one control-message round trip.
        yield Timeout(backend, CONTROL_LATENCY_MS)
        accepted = target_lem.check_idle_res(action)
        yield Timeout(backend, CONTROL_LATENCY_MS)
        if not accepted:
            return
        # Fire-and-continue: the live-migration protocol runs on its own
        # (the actor is flagged `migrating`, which blocks double moves);
        # blocking here would make a slow state transfer eat whole
        # elasticity periods for every other actor on this server.
        backend.migrate_actor(
            record.ref, action.dst, force=action.kind == "reserve")
        self.migrations_started += 1
        self.manager.note_migration(action)

    def check_idle_res(self, action: Action) -> bool:
        """``checkIdleRes``: admission control on the target server.

        Accepts the actor if the server's windowed usage plus all
        reservations already granted this period stays within the
        admission bound.  Accepted demand is reserved immediately
        (Alg. 1 line 19) so concurrent senders cannot overload us.
        """
        resource = action.resource or "cpu"
        current = self.server.resource_percent(
            resource, self.manager.config.period_ms)
        reserved = self._reserved_perc.get(resource, 0.0)
        contrib = contribution_perc(action.actor, self.server, resource)
        projected = current + reserved + contrib
        # Accept within the admission bound, or when this server would
        # still end up below the sender (the move improves the imbalance
        # even if both sides are hot — see Action.src_load_perc).
        bound = max(ADMISSION_UPPER, action.src_load_perc - contrib)
        if projected > bound:
            return False
        self._reserved_perc[resource] = reserved + contrib
        return True
