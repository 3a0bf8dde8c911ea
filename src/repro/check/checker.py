"""The runtime invariant checker.

:class:`InvariantChecker` subscribes to the same observation surfaces
the tracer uses — actor-runtime hooks and the elasticity manager's event
bus — plus a periodic sweep on the runtime's clock, and re-derives the
elasticity stack's correctness properties *independently* of the code
that is supposed to enforce them.  It reads the runtime only through
the :class:`~repro.actors.base.ActorSystemBase` contract, so it attaches
to either runtime.  It deliberately reads raw
configuration fields (``period_ms``, ``stability_ms``) rather than the
helper methods the runtime itself calls, so a mutation that weakens the
runtime's own guard (the classic one-line ``stability_window_ms``
regression) is caught rather than mirrored.

Usage::

    checker = InvariantChecker(manager, meters=[meter], tracer=tracer)
    checker.attach()
    ... run the simulation ...
    checker.final_check()
    assert not checker.violations, checker.report()

Attaching sets ``manager.debug_events = True`` so LEMs and GEMs emit the
verbose per-round events (``lem-round``, ``actions-resolved``,
``gem-vote``) the checker consumes; detaching restores the previous
value.  The checker never mutates runtime decisions.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..actors import ActorRecord, RuntimeHooks
from ..actors.system import MIGRATION_PHASE_TIMEOUT_MS
from ..cluster import AvailabilityMeter, Server
from .invariants import INVARIANTS, InvariantError, Violation

__all__ = ["InvariantChecker"]

_EPS = 1e-6
_PERC_EPS = 1e-6
_MEM_EPS_MB = 1e-6
#: The placement/accounting sweep runs every this share of a period.
SWEEP_PERIOD_SHARE = 0.5
#: Violations kept; later ones only count in ``dropped``.
MAX_VIOLATIONS = 200


class InvariantChecker(RuntimeHooks):
    """Continuously checks the invariant catalogue against a live run.

    Parameters
    ----------
    manager:
        The :class:`~repro.core.emr.ElasticityManager` under test.
    meters:
        Optional :class:`AvailabilityMeter` instances fed by the
        scenario's clients; used by ``availability-consistency``.
    tracer:
        Optional :class:`~repro.core.tracing.ElasticityTracer`; when
        given, each violation carries the tail of the trace as context.
    strict:
        Raise :class:`InvariantError` at the first violation instead of
        collecting.
    """

    def __init__(self, manager, meters: Sequence[AvailabilityMeter] = (),
                 tracer=None, strict: bool = False) -> None:
        self.manager = manager
        self.meters = list(meters)
        self.tracer = tracer
        self.strict = strict
        # Positive: the manager's config rejects a non-positive period.
        self.sweep_interval_ms = (manager.config.period_ms
                                  * SWEEP_PERIOD_SHARE)
        self.violations: List[Violation] = []
        self.dropped = 0
        self.checks_run = 0
        self._attached = False
        #: Bumped by :meth:`detach`: a sweep armed by an earlier
        #: attachment finds it moved on and lapses.
        self._sweep_epoch = 0
        self._prev_debug_events = False
        # -- derived runtime state ------------------------------------
        self._alive: Dict[int, str] = {}          # actor id -> type name
        self._lost: Dict[int, str] = {}           # crashed, resurrectable
        self._placed_at: Dict[int, float] = {}    # last placement time
        self._server_of: Dict[int, str] = {}      # actor id -> server name
        self._inflight: Dict[int, Dict[str, Any]] = {}
        self._last_vote: Optional[Dict[str, Any]] = None
        self._first_fault_ms: Optional[float] = None
        self._crashed_servers: Set[str] = set()
        # -- partition / epoch state ----------------------------------
        self._active_partitions: Dict[int, Dict[str, Any]] = {}
        self._degraded_gems: Set[int] = set()
        self._last_epoch_seen = 0
        # -- durability state (re-derived from checkpoint events, NOT
        # from the StateStore's own bookkeeping) -----------------------
        self._written_seq: Dict[int, int] = {}    # actor id -> last write
        self._acked_seq: Dict[int, int] = {}      # actor id -> last ack
        #: actor id -> seq -> {"digest", "replicas"} of acknowledged
        #: checkpoints, as carried on checkpoint-replicated events.
        self._acked_cps: Dict[int, Dict[int, Dict[str, Any]]] = {}
        # -- overload state (independent hook counters + brownout
        # timelines re-derived from events, NOT from the overload
        # manager's own hysteresis machine) ----------------------------
        self._hook_sheds = 0
        self._hook_rejects = 0
        self._browned_out: Dict[str, float] = {}   # server -> entered at
        self._brownout_low_since: Dict[str, float] = {}
        # -- hierarchical control-plane state (re-derived from
        # group-assigned / gem-aggregate events, NOT from the
        # hierarchy's own ServerGroupMap) ------------------------------
        self._group_of_server: Dict[str, int] = {}
        #: group -> recent (cpu_sum, server_count, actor_count) tuples,
        #: newest last.  Root rounds are compared against this short
        #: history rather than only the newest aggregate: an aggregate
        #: published while the one before it is still in flight to the
        #: root is legitimate one-step staleness, not a lost update.
        self._aggregate_history: Dict[int, List[tuple]] = {}
        # -- hierarchical failover state (re-derived from fault and
        # failover events, NOT from the RootGem's own flags) ------------
        self._root_failed = False
        self._root_generation = 0
        #: Root-issued migrations in flight: actor id -> started-at ms.
        self._root_inflight: Dict[int, float] = {}
        #: EMR event kind -> the check or bookkeeping it feeds; a kind
        #: not listed here carries nothing the checker re-derives.
        self._emr_checks: Dict[str, Callable[[Dict[str, Any]], None]] = {
            "migration-started": self._check_migration_start,
            "actions-resolved": self._check_actions_resolved,
            "gem-vote": self._check_gem_vote,
            "scale-out": partial(self._check_scale_decision, "overloaded",
                                 "scale-out-majority"),
            "scale-in": partial(self._check_scale_decision, "underloaded",
                                "scale-in-majority"),
            "lem-round": self._check_lem_round,
            "fault-injected": self._note_fault_injected,
            "fault-healed": self._note_fault_healed,
            "epoch-advanced": self._check_epoch_advanced,
            "gem-degraded": self._note_gem_degraded,
            "gem-restored": self._note_gem_restored,
            "stale-epoch-rejected": self._check_stale_rejection,
            "partition-healed": self._check_partition_healed,
            "brownout-entered": self._note_brownout_entered,
            "brownout-exited": self._note_brownout_exited,
            "checkpoint-written": self._check_checkpoint_written,
            "checkpoint-replicated": self._check_checkpoint_replicated,
            "state-restored": self._check_state_restored,
            "group-assigned": self._check_group_assigned,
            "gem-aggregate": self._check_gem_aggregate,
            "root-round": self._check_root_round,
            "root-failover": self._check_root_failover,
        }

    # -- partition side re-derivation ---------------------------------

    def _running_names(self) -> Set[str]:
        return {server.name for server in self.manager.system.running_servers()
                if server.running}

    def _quorumless_side_names(self) -> Set[str]:
        """Server names on the minority side of any active partition,
        re-derived from fault events plus the current fleet (NOT from
        the manager's own isolation bookkeeping — same independence
        rule as the stability window)."""
        if not self._active_partitions:
            return set()
        running = self._running_names()
        quorumless: Set[str] = set()
        for info in self._active_partitions.values():
            group = set(info["group"]) & running
            rest = running - set(info["group"])
            # The side with a strict majority of running servers keeps
            # authority; ties leave the cut-off group quorum-less.
            if len(group) > len(rest):
                quorumless |= rest
            else:
                quorumless |= group
        return quorumless

    # -- expected stability window ------------------------------------

    def _expected_stability_ms(self) -> float:
        """One stability window, derived from raw config fields (NOT from
        ``EmrConfig.stability_window_ms`` — the checker must not inherit a
        bug in the runtime's own helper)."""
        config = self.manager.config
        if config.stability_ms is not None:
            return config.stability_ms
        return config.period_ms

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the runtime and the EMR and arm the sweep."""
        if self._attached:
            return
        self._attached = True
        system = self.manager.system
        # Adopt the state of a run already in progress, so attaching
        # mid-run never reports pre-existing actors as duplicates.
        for record in system.directory.records():
            actor_id = record.ref.actor_id
            self._alive[actor_id] = record.ref.type_name
            self._placed_at[actor_id] = record.last_placed_at
            self._server_of[actor_id] = record.server.name
        system.add_hooks(self)
        self.manager.add_listener(self._on_emr_event)
        self._prev_debug_events = self.manager.debug_events
        self.manager.debug_events = True
        system.schedule(self.sweep_interval_ms, self._tick, self._sweep_epoch)

    def detach(self) -> None:
        """Unsubscribe; a sweep already armed lapses."""
        if not self._attached:
            return
        self._attached = False
        self._sweep_epoch += 1
        self.manager.system.remove_hooks(self)
        self.manager.remove_listener(self._on_emr_event)
        self.manager.debug_events = self._prev_debug_events

    def _tick(self, epoch: int) -> None:
        """One sweep, re-armed while the attachment that armed it lasts."""
        if epoch == self._sweep_epoch:
            self._sweep()
            self.manager.system.schedule(self.sweep_interval_ms, self._tick,
                                         epoch)

    # -- reporting -----------------------------------------------------

    def _violate(self, invariant: str, message: str, **detail: Any) -> None:
        assert invariant in INVARIANTS, f"unknown invariant {invariant!r}"
        if self.tracer is not None:
            detail = dict(detail)
            detail["trace_tail"] = [str(event)
                                    for event in self.tracer.tail(12)]
        violation = Violation(invariant=invariant,
                              time_ms=self.manager.system.now,
                              message=message, detail=detail)
        if self.strict:
            raise InvariantError(violation)
        if len(self.violations) >= MAX_VIOLATIONS:
            self.dropped += 1
            return
        self.violations.append(violation)

    def report(self) -> str:
        """Human-readable summary of every collected violation."""
        if not self.violations:
            return "no invariant violations"
        lines = [f"{len(self.violations)} invariant violation(s)"
                 + (f" (+{self.dropped} dropped)" if self.dropped else "")]
        lines.extend(str(violation) for violation in self.violations)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Run :meth:`final_check` and raise ``AssertionError`` with the
        full report if any invariant was violated.  The one-liner test
        suites call after driving a simulation."""
        self.final_check()
        if self.violations:
            raise AssertionError(self.report())

    # -- actor-runtime hooks -------------------------------------------

    def _note_alive(self, record: ActorRecord, verb: str) -> None:
        """``record``'s id comes alive (``verb``: created/resurrected):
        actor-conservation and no-duplicate-actor if it already was."""
        actor_id = record.ref.actor_id
        if actor_id in self._alive:
            self._violate(
                "actor-conservation",
                f"actor id {actor_id} {verb} while already alive",
                actor=str(record.ref))
            if self._server_of.get(actor_id) in self._quorumless_side_names():
                self._violate(
                    "no-duplicate-actor",
                    f"actor id {actor_id} {verb} while its copy on "
                    f"{self._server_of[actor_id]} is merely cut off by a "
                    f"partition", actor=str(record.ref),
                    old_server=self._server_of[actor_id])
        self._alive[actor_id] = record.ref.type_name
        self._lost.pop(actor_id, None)
        self._placed_at[actor_id] = self.manager.system.now
        self._server_of[actor_id] = record.server.name

    def on_actor_created(self, record: ActorRecord) -> None:
        """actor-conservation: a created id must not be alive already."""
        self._note_alive(record, "created")

    def on_actor_destroyed(self, record: ActorRecord) -> None:
        """actor-conservation: a destroyed id must have been alive."""
        actor_id = record.ref.actor_id
        if actor_id not in self._alive:
            self._violate(
                "actor-conservation",
                f"actor id {actor_id} destroyed but was not alive",
                actor=str(record.ref))
        self._forget(actor_id)

    def _forget(self, actor_id: int) -> None:
        for tracked in (self._alive, self._server_of, self._placed_at,
                        self._inflight, self._root_inflight):
            tracked.pop(actor_id, None)

    def on_actor_migrated(self, record: ActorRecord, old_server: Server,
                          new_server: Server) -> None:
        """migration-sanity and, for a move no start event announced,
        stability-window."""
        actor_id = record.ref.actor_id
        now = self.manager.system.now
        self._root_inflight.pop(actor_id, None)
        start = self._inflight.pop(actor_id, None)
        if start is not None and start["src"] != old_server.name:
            self._violate(
                "migration-sanity",
                f"migration of {record.ref} completed from "
                f"{old_server.name} but started from {start['src']}",
                actor=str(record.ref))
        if start is None:
            # No start event (a direct migrate_actor call, outside the
            # EMR): fall back to the completion time, which is >= the
            # start time, so this can only under-report — never a false
            # positive.
            placed = self._placed_at.get(actor_id)
            stability = self._expected_stability_ms()
            if placed is not None and now - placed < stability - _EPS:
                self._violate(
                    "stability-window",
                    f"{record.ref} migrated {now - placed:.1f}ms after "
                    f"placement; stability window is {stability:.1f}ms",
                    actor=str(record.ref), placed_at=placed)
        self._placed_at[actor_id] = now
        self._server_of[actor_id] = new_server.name
        self.checks_run += 1

    def on_migration_aborted(self, record: ActorRecord, source: Server,
                             target: Server, reason: str) -> None:
        """The migration is no longer in flight."""
        self._inflight.pop(record.ref.actor_id, None)
        self._root_inflight.pop(record.ref.actor_id, None)

    def on_server_crashed(self, server: Server,
                          lost: List[ActorRecord]) -> None:
        """Mark ``lost`` as crash-lost, so resurrecting them is legal."""
        self._crashed_servers.add(server.name)
        if self._first_fault_ms is None:
            self._first_fault_ms = self.manager.system.now
        for record in lost:
            # crash_server destroys the lost actors (firing the destroy
            # hook) before announcing the crash, so they are already out
            # of the alive map here; record them as crash-lost so a
            # later resurrection is recognised as legitimate.
            self._forget(record.ref.actor_id)
            self._lost[record.ref.actor_id] = record.ref.type_name

    def on_actor_resurrected(self, record: ActorRecord) -> None:
        """actor-conservation: only a crash-lost id may come back."""
        actor_id = record.ref.actor_id
        if actor_id not in self._alive and actor_id not in self._lost:
            # Covers double-resurrection too: a successful resurrection
            # removes the id from the lost set, so a second resurrect
            # without an intervening crash lands here (or in the
            # already-alive check).
            self._violate(
                "actor-conservation",
                f"actor id {actor_id} resurrected but never lost to a "
                f"crash", actor=str(record.ref))
        self._note_alive(record, "resurrected")
        if not record.server.running:
            self._violate(
                "placement-consistency",
                f"{record.ref} resurrected onto non-running server "
                f"{record.server.name}", actor=str(record.ref))

    def on_message_shed(self, record: ActorRecord, message,
                        reason: str) -> None:
        """Count the drop, for the ledger audit at the end of the run."""
        self._hook_sheds += 1

    def on_request_rejected(self, record: ActorRecord, message) -> None:
        """Count the refusal, for the ledger audit at the end of the run."""
        self._hook_rejects += 1

    # -- EMR event bus -------------------------------------------------

    def _on_emr_event(self, kind: str, detail: Dict[str, Any]) -> None:
        check = self._emr_checks.get(kind)
        if check is not None:
            check(detail)

    def _note_fault_injected(self, detail: Dict[str, Any]) -> None:
        if self._first_fault_ms is None:
            self._first_fault_ms = self.manager.system.now
        if detail.get("fault") == "partition-network":
            self._active_partitions[detail["partition_id"]] = {
                "group": tuple(detail.get("group", ())),
                "symmetric": detail.get("symmetric", True),
                "loss": detail.get("loss", 1.0)}
        elif detail.get("fault") == "kill-root":
            self._root_failed = True

    def _note_fault_healed(self, detail: Dict[str, Any]) -> None:
        """A partition heal closes its cut.  A ``kill-root`` heal leaves a
        superseded incarnation retired (promotion moved authority on); a
        genuine recovery restores the same generation with its views
        wiped."""
        if detail.get("fault") == "partition-network":
            self._active_partitions.pop(detail.get("partition_id"), None)
        elif detail.get("fault") == "kill-root":
            self.checks_run += 1
            if not detail.get("superseded"):
                self._root_failed = False

    def _note_gem_degraded(self, detail: Dict[str, Any]) -> None:
        self._check_event_epoch("gem-degraded", detail)
        self._degraded_gems.add(detail["gem_id"])

    def _note_gem_restored(self, detail: Dict[str, Any]) -> None:
        self._check_event_epoch("gem-restored", detail)
        self._degraded_gems.discard(detail["gem_id"])

    def _note_brownout_entered(self, detail: Dict[str, Any]) -> None:
        self._browned_out[detail["server"]] = self.manager.system.now
        self._brownout_low_since.pop(detail["server"], None)

    def _note_brownout_exited(self, detail: Dict[str, Any]) -> None:
        self._browned_out.pop(detail["server"], None)
        self._brownout_low_since.pop(detail["server"], None)

    def _check_migration_start(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        now = self.manager.system.now
        actor_id = detail["actor_id"]
        actor = detail.get("actor", actor_id)
        action_kind = detail["action"]
        if detail.get("pinned") and action_kind != "reserve":
            self._violate(
                "pin-integrity",
                f"{action_kind} migration started for pinned actor "
                f"{actor}", **detail)
        if actor_id in self._inflight:
            self._violate(
                "single-flight",
                f"migration of {actor} started while a previous one "
                f"(started at {self._inflight[actor_id]['at']:.1f}ms) "
                f"is still in flight", **detail)
        if detail["src"] == detail["dst"]:
            self._violate(
                "migration-sanity",
                f"migration of {actor} has src == dst "
                f"({detail['src']})", **detail)
        known_server = self._server_of.get(actor_id)
        if known_server is not None and known_server != detail["src"]:
            self._violate(
                "migration-sanity",
                f"migration of {actor} starts from {detail['src']} but "
                f"the actor is on {known_server}", **detail)
        if not detail.get("dst_running", True):
            self._violate(
                "migration-sanity",
                f"migration of {actor} targets non-running server "
                f"{detail['dst']}", **detail)
        if detail.get("dst_draining"):
            self._violate(
                "migration-sanity",
                f"migration of {actor} targets draining server "
                f"{detail['dst']}", **detail)
        placed = self._placed_at.get(actor_id)
        stability = self._expected_stability_ms()
        if placed is not None and now - placed < stability - _EPS:
            self._violate(
                "stability-window",
                f"{actor} migration started {now - placed:.1f}ms after "
                f"placement; stability window is {stability:.1f}ms",
                placed_at=placed, **detail)
        if self._active_partitions:
            quorumless = self._quorumless_side_names()
            for end in ("src", "dst"):
                if detail[end] in quorumless:
                    self._violate(
                        "no-split-brain",
                        f"migration of {actor} started with {end} "
                        f"{detail[end]} on a quorum-less partition side",
                        **detail)
        self._check_event_epoch("migration-started", detail)
        self._check_migration_authority(detail, actor)
        if detail.get("issuer") == "root":
            if self._root_failed:
                self._violate(
                    "root-single-authority",
                    f"root-issued migration of {actor} started while "
                    f"the root is failed", **detail)
            self._root_inflight[actor_id] = now
        self._inflight[actor_id] = {"at": now, "src": detail["src"],
                                    "dst": detail["dst"]}

    def _check_migration_authority(self, detail: Dict[str, Any],
                                   actor) -> None:
        """cross-group-single-authority, migration half: a resource
        migration (balance/reserve — drains surface as balance plans)
        crossing a group boundary must come from the root tier, and a
        root-issued one must actually cross.  Interaction migrations
        (colocate/separate) are actor-local authority and may cross
        freely.  Group membership comes from group-assigned events, so
        one-group runs (which emit none) skip the check entirely."""
        src_group = self._group_of_server.get(detail["src"])
        dst_group = self._group_of_server.get(detail["dst"])
        if src_group is None or dst_group is None:
            return
        issuer = detail.get("issuer", "lem")
        crosses = src_group != dst_group
        if (crosses and issuer != "root"
                and detail.get("action") in ("balance", "reserve")
                and not self._group_leaves_all_failed(src_group)
                and not self._group_leaves_all_failed(dst_group)):
            # The leaves-all-failed escape hatch: with its whole leaf
            # set down, a group's LEMs fall back to foreign leaves and
            # the group itself is adopted by a surviving leaf
            # (availability over locality).  The adopter plans over its
            # home *and* adopted servers in one pool, so its plans may
            # legitimately cross the boundary — in either direction.
            self._violate(
                "cross-group-single-authority",
                f"{detail.get('action')} migration of {actor} crosses "
                f"groups {src_group}->{dst_group} but was issued by "
                f"{issuer!r}, not the root tier", **detail)
        if issuer == "root" and not crosses:
            self._violate(
                "cross-group-single-authority",
                f"root-issued migration of {actor} stays inside group "
                f"{src_group} — the root arbitrates only cross-group "
                f"moves", **detail)

    def _group_leaves_all_failed(self, group: int) -> bool:
        leaves = self.manager.hierarchy.leaves_of(group)
        return bool(leaves) and all(gem.failed for gem in leaves)

    def _check_actions_resolved(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        candidates: Dict[int, list] = detail["candidates"]
        chosen: Dict[int, tuple] = detail["chosen"]
        for actor_id, proposals in candidates.items():
            best_priority = max(priority for _kind, priority in proposals)
            picked = chosen.get(actor_id)
            if picked is None:
                self._violate(
                    "conflict-priority",
                    f"actor id {actor_id} had {len(proposals)} proposed "
                    f"action(s) but none survived resolution",
                    server=detail.get("server"), proposals=proposals)
                continue
            expected = next(item for item in proposals
                            if item[1] == best_priority)
            if tuple(picked) != tuple(expected):
                self._violate(
                    "conflict-priority",
                    f"actor id {actor_id}: resolution picked {picked} "
                    f"but the highest-priority proposal (earliest on "
                    f"ties) is {expected}",
                    server=detail.get("server"), proposals=proposals)
        for actor_id in chosen:
            if actor_id not in candidates:
                self._violate(
                    "conflict-priority",
                    f"resolution produced an action for actor id "
                    f"{actor_id} that nobody proposed",
                    server=detail.get("server"))

    def _check_gem_vote(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        invariant = ("scale-out-majority"
                     if detail.get("direction") == "overloaded"
                     else "scale-in-majority")
        requester = detail.get("requester")
        if requester in self._degraded_gems and not detail.get("vetoed"):
            self._violate(
                "no-split-brain",
                f"quorum-less GEM {requester} requested a "
                f"{detail.get('direction')} vote without being vetoed",
                **detail)
        if detail.get("vetoed"):
            if detail.get("decision"):
                self._violate(
                    invariant,
                    f"vetoed vote ({detail['vetoed']}) recorded a "
                    f"winning decision", **detail)
            return
        views = detail.get("peer_views", ())
        agreeing = 0
        for _gem, view, rounds, reachable in views:
            if reachable and (view >= 0.5 or rounds == 0):
                agreeing += 1
        expected = agreeing * 2 >= len(views) if views else True
        if bool(detail.get("decision")) != expected:
            self._violate(
                invariant,
                f"recorded vote decision {detail.get('decision')} "
                f"disagrees with recomputed majority {expected} "
                f"({agreeing}/{len(views)} peers agreeing)", **detail)
        self._last_vote = {"at": self.manager.system.now,
                           "direction": detail.get("direction"),
                           "decision": detail.get("decision")}

    def _check_scale_decision(self, direction: str, invariant: str,
                              detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        vote = self._last_vote
        now = self.manager.system.now
        if (vote is None or vote["at"] != now
                or vote["direction"] != direction
                or not vote["decision"]):
            self._violate(
                invariant,
                f"fleet adjustment ({direction}) executed without a "
                f"same-tick winning majority vote", **detail)
        gem_id = detail.get("gem_id")
        if gem_id in self._degraded_gems:
            self._violate(
                "no-split-brain",
                f"quorum-less GEM {gem_id} executed a fleet adjustment "
                f"({direction})", **detail)

    # -- epoch fencing / partitions ------------------------------------

    def _check_epoch_advanced(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        epoch = detail.get("epoch", 0)
        if epoch <= self._last_epoch_seen:
            self._violate(
                "epoch-monotonicity",
                f"epoch advanced to {epoch} but {self._last_epoch_seen} "
                f"was already seen", **detail)
        if epoch > self.manager.epoch:
            self._violate(
                "epoch-monotonicity",
                f"epoch-advanced event carries epoch {epoch} beyond the "
                f"manager's global epoch {self.manager.epoch}", **detail)
        self._last_epoch_seen = max(self._last_epoch_seen, epoch)

    def _check_event_epoch(self, kind: str,
                           detail: Dict[str, Any]) -> None:
        epoch = detail.get("epoch")
        if epoch is None:
            return
        if epoch > self.manager.epoch:
            self._violate(
                "epoch-monotonicity",
                f"{kind} event carries epoch {epoch} beyond the "
                f"manager's global epoch {self.manager.epoch}", **detail)

    def _check_stale_rejection(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        gem_epoch = detail.get("gem_epoch", 0)
        lem_epoch = detail.get("lem_epoch", 0)
        if gem_epoch >= lem_epoch:
            self._violate(
                "epoch-monotonicity",
                f"LEM on {detail.get('server')} rejected GEM epoch "
                f"{gem_epoch} as stale against its own {lem_epoch}",
                **detail)

    def _check_partition_healed(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        self._check_event_epoch("partition-healed", detail)
        directory_ids = {record.ref.actor_id for record in
                         self.manager.system.directory.records()}
        revenants = sorted(directory_ids & set(self._lost))[:5]
        if revenants:
            self._violate(
                "no-duplicate-actor",
                f"after heal, actor ids {revenants} are both live in "
                f"the directory and still marked crash-lost",
                revenants=revenants, **detail)
        # Directory-vs-derived-state agreement (duplicate or lost
        # records) is re-checked by the regular sweep machinery.
        self._sweep()

    def _check_lem_round(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        server = detail.get("server", "?")
        for key in ("server_cpu_perc", "server_net_perc"):
            value = detail.get(key, 0.0)
            if not -_PERC_EPS <= value <= 100.0 + _PERC_EPS:
                self._violate(
                    "resource-accounting",
                    f"{server}: {key} out of range: {value:.3f}",
                    **{key: value, "server": server})
        if detail.get("server_mem_perc", 0.0) < -_PERC_EPS:
            self._violate(
                "resource-accounting",
                f"{server}: negative memory percentage", server=server)
        for value in detail.get("actor_cpu_percs", ()):
            if not -_PERC_EPS <= value <= 100.0 + _PERC_EPS:
                self._violate(
                    "resource-accounting",
                    f"{server}: actor cpu percentage out of range: "
                    f"{value:.3f}", server=server)
        if detail.get("actor_count") != len(detail.get("actor_cpu_percs",
                                                       ())):
            self._violate(
                "resource-accounting",
                f"{server}: snapshot actor_count "
                f"{detail.get('actor_count')} != "
                f"{len(detail.get('actor_cpu_percs', ()))} actor "
                f"snapshots", server=server)
        booked = detail.get("server_mem_used_mb", 0.0)
        summed = detail.get("actor_mem_mb", 0.0)
        if abs(booked - summed) > _MEM_EPS_MB:
            self._violate(
                "resource-accounting",
                f"{server}: actors' state memory sums to "
                f"{summed:.3f}MB but the server has {booked:.3f}MB "
                f"booked", server=server, booked=booked, summed=summed)
        self._check_brownout_exit(server, detail)

    def _check_brownout_exit(self, server: str,
                             detail: Dict[str, Any]) -> None:
        """brownout-exit: once a browned-out server's round CPU stays at
        or below the exit watermark, brownout must lift within a bounded
        window — (exit_rounds + 2) stretched periods gives the hysteresis
        its full budget plus scheduling slack.  Timeline re-derived from
        brownout-entered/-exited events and per-round CPU samples."""
        overload = self.manager.overload
        if overload is None or server not in self._browned_out:
            return
        now = self.manager.system.now
        cpu = detail.get("server_cpu_perc", 0.0)
        oconfig = overload.config
        if cpu > oconfig.brownout_exit_cpu_perc + _PERC_EPS:
            self._brownout_low_since.pop(server, None)
            return
        low_since = self._brownout_low_since.setdefault(server, now)
        bound = ((oconfig.brownout_exit_rounds + 2)
                 * oconfig.brownout_stretch * self.manager.config.period_ms)
        if now - low_since > bound + _EPS:
            self._violate(
                "brownout-exit",
                f"{server} has reported CPU <= the exit watermark "
                f"({oconfig.brownout_exit_cpu_perc:.0f}%) for "
                f"{now - low_since:.0f}ms but is still browned out "
                f"(bound: {bound:.0f}ms)", server=server,
                low_since=low_since, cpu_perc=cpu)
            # One violation per stuck episode, not one per round.
            self._browned_out.pop(server, None)
            self._brownout_low_since.pop(server, None)

    # -- durability: checkpoints and restores --------------------------

    def _link_cut(self, first: str, second: str) -> bool:
        """Is either direction between the two named servers severed by
        an active *absolute* cut?  Lossy partitions (``loss < 1``) do
        not sever a link — mirrors ``NetworkFabric.link_blocked``, but
        re-derived from fault events."""
        for info in self._active_partitions.values():
            if info.get("loss", 1.0) < 1.0:
                continue
            group = set(info["group"])
            if (first in group) != (second in group):
                return True
        return False

    def _check_checkpoint_written(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        actor_id = detail["actor_id"]
        seq = detail["seq"]
        last = self._written_seq.get(actor_id, 0)
        if seq <= last:
            self._violate(
                "checkpoint-monotonicity",
                f"checkpoint seq {seq} written for actor id {actor_id} "
                f"after seq {last}", **detail)
        self._written_seq[actor_id] = max(last, seq)

    def _check_checkpoint_replicated(self, detail: Dict[str, Any]) -> None:
        self.checks_run += 1
        actor_id = detail["actor_id"]
        seq = detail["seq"]
        last = self._acked_seq.get(actor_id, 0)
        if seq <= last:
            self._violate(
                "checkpoint-monotonicity",
                f"checkpoint seq {seq} acknowledged for actor id "
                f"{actor_id} after seq {last} was already acknowledged",
                **detail)
        if seq > self._written_seq.get(actor_id, 0):
            self._violate(
                "checkpoint-monotonicity",
                f"checkpoint seq {seq} acknowledged for actor id "
                f"{actor_id} but never written", **detail)
        self._acked_seq[actor_id] = max(last, seq)
        self._acked_cps.setdefault(actor_id, {})[seq] = {
            "digest": detail.get("digest"),
            "replicas": tuple(detail.get("replicas", ()))}

    def _check_state_restored(self, detail: Dict[str, Any]) -> None:
        """state-durability and no-minority-restore.

        Eligibility is re-derived: an acknowledged checkpoint counts as
        readable when at least one of its replicas is on a server that
        is not crashed, not on a quorum-less partition side, and whose
        link to the restoring host is not severed — the same facts the
        runtime must honour, recomputed from events and the fleet."""
        self.checks_run += 1
        actor_id = detail["actor_id"]
        actor = detail.get("actor", actor_id)
        seq = detail["seq"]
        host = detail.get("server")
        quorumless = self._quorumless_side_names()
        replica = detail.get("replica")
        if replica in quorumless:
            self._violate(
                "no-minority-restore",
                f"{actor} restored from replica on {replica}, which is "
                f"on a quorum-less partition side", **detail)
        acked = self._acked_cps.get(actor_id, {})
        if seq not in acked:
            self._violate(
                "state-durability",
                f"{actor} restored from checkpoint seq {seq}, which "
                f"was never acknowledged", **detail)
            return
        recorded = acked[seq]
        if (recorded["digest"] is not None
                and detail.get("digest") != recorded["digest"]):
            self._violate(
                "state-durability",
                f"{actor} restored state digest {detail.get('digest')} "
                f"does not round-trip to checkpoint seq {seq}'s digest "
                f"{recorded['digest']}", **detail)

        # The running fleet, not just crash events: a replica on a
        # retired (scaled-in) server is just as unreadable as one on a
        # crashed server.
        running = self._running_names()

        def readable(info: Dict[str, Any]) -> bool:
            return any(name in running
                       and name not in self._crashed_servers
                       and name not in quorumless
                       and (host is None or not self._link_cut(host, name))
                       for name in info["replicas"])

        newest_readable = max(
            (s for s, info in acked.items() if readable(info)), default=0)
        if seq < newest_readable:
            self._violate(
                "state-durability",
                f"{actor} restored from checkpoint seq {seq} but seq "
                f"{newest_readable} is acknowledged and still readable",
                newest_readable=newest_readable, **detail)

    # -- hierarchical control plane ------------------------------------

    def _check_group_assigned(self, detail: Dict[str, Any]) -> None:
        """cross-group-single-authority, membership half: a server is
        assigned to exactly one group, forever (membership never
        reshuffles — a crashed server keeps its slot)."""
        self.checks_run += 1
        server = detail.get("server")
        group = detail.get("group")
        known = self._group_of_server.get(server)
        if known is not None and known != group:
            self._violate(
                "cross-group-single-authority",
                f"server {server} reassigned from group {known} to "
                f"group {group}", **detail)
            return
        self._group_of_server[server] = group

    def _check_gem_aggregate(self, detail: Dict[str, Any]) -> None:
        """aggregate-consistency, leaf half: the carried sums must equal
        a recomputation over the carried per-server values, and every
        covered server must belong to the aggregate's group."""
        self.checks_run += 1
        group = detail.get("group")
        cpu_percs = tuple(detail.get("server_cpu_percs", ()))
        names = tuple(detail.get("server_names", ()))
        cpu_sum = detail.get("cpu_sum", 0.0)
        tolerance = _PERC_EPS * max(1, len(cpu_percs))
        if abs(sum(cpu_percs) - cpu_sum) > tolerance:
            self._violate(
                "aggregate-consistency",
                f"group {group} aggregate carries cpu_sum "
                f"{cpu_sum:.3f} but its per-server values sum to "
                f"{sum(cpu_percs):.3f}", **detail)
        if detail.get("server_count") != len(names) \
                or len(names) != len(cpu_percs):
            self._violate(
                "aggregate-consistency",
                f"group {group} aggregate server_count "
                f"{detail.get('server_count')} != {len(names)} named "
                f"servers / {len(cpu_percs)} cpu values", **detail)
        for name in names:
            assigned = self._group_of_server.get(name)
            if assigned is not None and assigned != group:
                self._violate(
                    "aggregate-consistency",
                    f"group {group} aggregate covers server {name}, "
                    f"which is assigned to group {assigned}", **detail)
        history = self._aggregate_history.setdefault(group, [])
        history.append((cpu_sum, detail.get("server_count"),
                        detail.get("actor_count")))
        del history[:-3]

    def _check_root_round(self, detail: Dict[str, Any]) -> None:
        """aggregate-consistency, root half: every per-group view must
        match one of the group's recently published aggregates (a view
        that was lost, mixed up or corrupted matches none of them).  Also
        the root-single-authority half that polices rounds: a failed or
        superseded root incarnation must not hold rounds."""
        self.checks_run += 1
        if self._root_failed:
            self._violate(
                "root-single-authority",
                "root round held while the root is failed", **detail)
        generation = detail.get("generation")
        if generation is not None:
            if generation < self._root_generation:
                self._violate(
                    "root-single-authority",
                    f"root round carries generation {generation} but "
                    f"the latest promoted generation is "
                    f"{self._root_generation} — a superseded root is "
                    f"still holding rounds", **detail)
            else:
                # A higher generation is a promotion that happened while
                # the tree was inert (no root-failover event is emitted
                # then); adopt it.
                self._root_generation = generation
        for item in detail.get("groups", ()):
            group, cpu_sum, server_count, actor_count = item
            history = self._aggregate_history.get(group)
            if not history:
                self._violate(
                    "aggregate-consistency",
                    f"root holds a view for group {group}, which never "
                    f"published an aggregate", **detail)
                continue
            matched = any(
                abs(cpu_sum - h_cpu) <= _PERC_EPS * max(1, h_servers or 1)
                and server_count == h_servers and actor_count == h_actors
                for h_cpu, h_servers, h_actors in history)
            if not matched:
                self._violate(
                    "aggregate-consistency",
                    f"root view of group {group} "
                    f"(cpu_sum={cpu_sum:.3f}, servers={server_count}, "
                    f"actors={actor_count}) matches none of the group's "
                    f"recent aggregates {history}", **detail)

    def _check_root_failover(self, detail: Dict[str, Any]) -> None:
        """root-single-authority, promotion half: generations only move
        forward, and a promotion transfers authority — the old
        incarnation is retired, the new one rules."""
        self.checks_run += 1
        generation = detail.get("generation")
        if generation is not None:
            if generation <= self._root_generation:
                self._violate(
                    "root-single-authority",
                    f"root failover to generation {generation} does not "
                    f"advance the latest generation "
                    f"{self._root_generation}", **detail)
            self._root_generation = max(self._root_generation, generation)
        self._root_failed = False

    def _check_stranded_root_migrations(self) -> None:
        """no-stranded-cross-group-migration: every root-issued
        migration must reach commit or rollback within the two-phase
        timeout budget, whatever happened to the root meanwhile.  The
        bound is generous — drain + two phase-timeout waits + transfer —
        so tripping it means the protocol genuinely lost the migration,
        not that it is merely slow."""
        now = self.manager.system.now
        bound = (3 * MIGRATION_PHASE_TIMEOUT_MS
                 + 2 * self.manager.config.period_ms)
        for actor_id, started in list(self._root_inflight.items()):
            if now - started > bound:
                del self._root_inflight[actor_id]
                self._violate(
                    "no-stranded-cross-group-migration",
                    f"root-issued migration of actor {actor_id} started "
                    f"at {started:.1f}ms is still unresolved after "
                    f"{now - started:.1f}ms (bound {bound:.1f}ms)",
                    actor_id=actor_id, started_at=started)

    # -- periodic sweep ------------------------------------------------

    def _sweep(self) -> None:
        self.checks_run += 1
        system = self.manager.system
        directory = system.directory
        directory_ids = set()
        mem_by_server: Dict[int, float] = {}
        hosted_by_server: Dict[int, List[ActorRecord]] = {}
        for record in directory.records():
            directory_ids.add(record.ref.actor_id)
            if not record.server.running:
                self._violate(
                    "placement-consistency",
                    f"{record.ref} is hosted on non-running server "
                    f"{record.server.name}", actor=str(record.ref))
            sid = record.server.server_id
            mem_by_server[sid] = (mem_by_server.get(sid, 0.0)
                                  + record.instance.state_size_mb)
            hosted = hosted_by_server.get(sid)
            if hosted is None:
                hosted_by_server[sid] = [record]
            else:
                hosted.append(record)
        for server in system.running_servers():
            if not server.running:
                continue
            # The directory's per-server index against the walk above
            # (the scan the index replaced): same records, same order.
            indexed = directory.on_server(server)
            scanned = hosted_by_server.get(server.server_id, [])
            if indexed != scanned:
                self._violate(
                    "placement-consistency",
                    f"{server.name}: the directory's placement index "
                    f"lists {[str(r.ref) for r in indexed]}, its records "
                    f"place {[str(r.ref) for r in scanned]} there",
                    server=server.name)
            expected = mem_by_server.get(server.server_id, 0.0)
            if abs(server.memory_used_mb - expected) > _MEM_EPS_MB:
                self._violate(
                    "resource-accounting",
                    f"{server.name}: booked memory "
                    f"{server.memory_used_mb:.3f}MB != "
                    f"{expected:.3f}MB of hosted actor state",
                    server=server.name)
        overload = self.manager.overload
        if overload is not None and overload.config.mailbox_capacity:
            capacity = overload.config.mailbox_capacity
            for record in system.directory.records():
                depth = system.mailbox_depth(record.ref.actor_id)
                if depth > capacity:
                    self._violate(
                        "no-message-loss-without-shed-record",
                        f"{record.ref} mailbox holds {depth} messages; "
                        f"configured capacity is {capacity}",
                        actor=str(record.ref), depth=depth,
                        capacity=capacity)
        self._check_stranded_root_migrations()
        tracked = set(self._alive)
        if tracked != directory_ids:
            missing = sorted(tracked - directory_ids)[:5]
            extra = sorted(directory_ids - tracked)[:5]
            self._violate(
                "actor-conservation",
                f"directory and event-derived live set disagree "
                f"(missing from directory: {missing}, untracked: "
                f"{extra})", missing=missing, extra=extra)

    # -- end of run ----------------------------------------------------

    def final_check(self) -> List[Violation]:
        """Run the end-of-run checks and return all violations."""
        self._sweep()
        self._check_conservation()
        fault_free = (self._first_fault_ms is None
                      and not self._crashed_servers)
        if fault_free:
            for index, meter in enumerate(self.meters):
                counts = meter.counts_between(0.0,
                                              self.manager.system.now)
                bad = (counts.get("failure", 0)
                       + counts.get("timeout", 0))
                if bad:
                    self._violate(
                        "availability-consistency",
                        f"meter {index}: {bad} failed/timed-out calls "
                        f"in a fault-free run", counts=dict(counts))
        return self.violations

    def _check_conservation(self) -> None:
        """admission-conservation + no-message-loss-without-shed-record:
        audit the overload manager's disposition ledger against itself
        and against the checker's own hook counters."""
        overload = self.manager.overload
        if overload is None:
            return
        self.checks_run += 1
        ledger = overload.ledger
        for mid, first, second in ledger.double_dispositions[:5]:
            self._violate(
                "admission-conservation",
                f"message {mid} reached two terminal dispositions: "
                f"{first!r} then {second!r}", message_id=mid,
                first=first, second=second)
        balance = ledger.as_dict()
        issued = balance.pop("issued")
        outstanding = balance.pop("outstanding")
        terminal = sum(balance.values())
        if issued != terminal + outstanding:
            self._violate(
                "admission-conservation",
                f"{issued} client messages issued but "
                f"{terminal} terminal + {outstanding} outstanding = "
                f"{terminal + outstanding}", issued=issued,
                outstanding=outstanding, **balance)
        # Every drop the data plane performed fired a hook the checker
        # counted; the ledger must have a record for each of them.
        if self._hook_sheds > overload.total_shed():
            self._violate(
                "no-message-loss-without-shed-record",
                f"hooks observed {self._hook_sheds} shed messages but "
                f"the ledger records only {overload.total_shed()}",
                hook_sheds=self._hook_sheds,
                ledger_sheds=overload.total_shed())
        if self._hook_rejects > ledger.counts["rejected"]:
            self._violate(
                "admission-conservation",
                f"hooks observed {self._hook_rejects} rejected requests "
                f"but the ledger records only "
                f"{ledger.counts['rejected']}",
                hook_rejects=self._hook_rejects,
                ledger_rejects=ledger.counts["rejected"])
