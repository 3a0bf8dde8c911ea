"""The elasticity management runtime facade.

:class:`ElasticityManager` wires everything together: it attaches the
profiling runtime to the actor system, creates one LEM per server (and
for every server that later joins), starts the configured number of
GEMs, installs rule-aware new-actor placement, and tracks migrations and
fleet changes for the benchmarks.

Typical use::

    policy = compile_source(EPL_RULES, [Folder, File])
    manager = ElasticityManager(system, policy,
                                EmrConfig(period_ms=80_000.0))
    manager.start()
    ... run the simulation ...
    manager.stop()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...actors import ActorRecord, ActorRef, RuntimeHooks
from ...actors.base import ActorSystemBase
from ...cluster import Server
from ...sim import Timeout, spawn
from ..epl import CompiledPolicy
from ..profiling import ActorSnapshot, ProfilingRuntime
from .actions import Action
from .config import CONTROL_LATENCY_MS, EmrConfig
from .gem import GEM
from .hierarchy import ControlHierarchy, RootGem
from .lem import LEM
from .placement import PlasmaPlacement

__all__ = ["ElasticityManager", "MigrationEvent"]


@dataclass
class _PartitionEntry:
    """Control-plane view of one active network partition.

    ``server_ids``/``gem_ids`` are the group side of the cut as injected;
    ``minority_server_ids``/``minority_gem_ids`` are recomputed against
    the *current* running fleet (a crash mid-partition can flip which
    side holds the majority).
    """

    server_ids: FrozenSet[int]
    gem_ids: FrozenSet[int]
    symmetric: bool
    minority_server_ids: FrozenSet[int] = frozenset()
    minority_gem_ids: FrozenSet[int] = frozenset()
    #: The full minority side, crashed servers included.  The majority's
    #: failure detector cannot see liveness across the cut, so "behind
    #: the cut" must not depend on whether the server actually crashed.
    cut_server_ids: FrozenSet[int] = frozenset()


@dataclass
class MigrationEvent:
    """One migration started by the elasticity runtime.

    ``rule_line`` is the source line of the EPL rule whose behavior
    produced the action (-1 for non-rule moves such as drain), so a
    migration can always be explained back to the policy text.
    """

    time_ms: float
    actor: ActorRef
    kind: str
    src: str
    dst: str
    rule_line: int = -1


class ElasticityManager(RuntimeHooks):
    """PLASMA's elasticity management runtime (EMR)."""

    def __init__(self, system: ActorSystemBase, policy: CompiledPolicy,
                 config: Optional[EmrConfig] = None) -> None:
        #: The actor runtime, sim or live.  The EMR reads only the
        #: contract of :class:`~repro.actors.base.ActorSystemBase` off
        #: it, plus ``clock`` and ``directory``, so it runs unchanged on
        #: either runtime.
        self.system = system
        self.policy = policy
        self.config = config or EmrConfig()
        self.running = False
        self.profiler = ProfilingRuntime(
            self.system.clock, window_ms=self.config.period_ms,
            overhead_cpu_ms=self.config.profiling_overhead_cpu_ms,
            ref_properties=policy.ref_properties)
        #: Durable-state subsystem; created at start() when a
        #: DurabilityConfig is carried on the EmrConfig, else None.
        self.durability = None
        #: Overload-protection subsystem; created at start() when an
        #: OverloadConfig is carried on the EmrConfig, else None.  The
        #: same object is installed on the data plane so both planes
        #: share one ledger + brownout machine.
        self.overload = None
        self.placement = PlasmaPlacement(self)
        #: Two-tier GEM tree: server groups, per-group leaf GEMs, and the
        #: root aggregate tier.  With one group (``server_group_size``
        #: unset) the leaves are the paper's flat GEM set and the root
        #: tier is inert.
        self.hierarchy = ControlHierarchy(self)
        self.gems: List[GEM] = self.hierarchy.build_leaf_gems()
        self.lems: Dict[int, LEM] = {}
        self.migration_log: List[MigrationEvent] = []
        self._draining: Set[int] = set()
        self._lem_counter = 0
        self._gem_rng = self.system.rng_stream("lem-gem-shuffle")
        self._listeners: List[Callable[[str, dict], None]] = []
        #: When true, LEMs/GEMs emit verbose per-round events
        #: (``lem-round``, ``actions-resolved``, ``gem-vote``) on the
        #: event bus for the invariant checker.  Off by default so the
        #: tracer's normal event stream (and the hot path) is unchanged.
        self.debug_events = False
        self._last_report: Dict[Server, float] = {}
        self._lost_actors: Dict[int, List[ActorRecord]] = {}
        self._failed_gems_noted: Set[int] = set()
        #: Hierarchical failover accounting, surfaced in fuzz summaries:
        #: root promotions/respawns and group adoptions performed.
        self.root_failovers = 0
        self.leaf_failovers = 0
        #: Control-plane epoch: bumped on every partition event (inject
        #: and heal).  Every GEM decision carries the epoch it was made
        #: under; LEMs reject commands from a lower epoch.
        self.epoch = 0
        self._partitions: Dict[int, _PartitionEntry] = {}
        self._isolated_servers: FrozenSet[int] = frozenset()
        self._isolated_gems: FrozenSet[int] = frozenset()
        self._cut_off_servers: FrozenSet[int] = frozenset()
        #: Servers the failure detector declared unreachable (silent but
        #: cut off by a partition — possibly still alive on the far
        #: side), by server id; value records the server and the last
        #: heartbeat time.  Unlike a suspected crash, no resurrection
        #: happens until a heal confirms the server's fate.
        self._unreachable: Dict[int, Tuple[Server, float]] = {}
        self._probe_running = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Attach profiling and start per-server LEM period timers."""
        if self.running:
            return
        self.running = True
        self.system.add_hooks(self.profiler)
        self.system.add_hooks(self)
        if self.config.overload is not None:
            from ...overload import OverloadManager
            self.overload = OverloadManager(
                self.system, self.config.overload, emit=self.emit)
        self.system.install(self.placement, lambda: self.epoch,
                            self.overload)
        if self.config.durability is not None:
            from ...durability import DurabilityManager
            self.durability = DurabilityManager(self)
            self.durability.start()
        for server in self.system.running_servers():
            self._add_lem(server)
        spawn(self.system, self._janitor(), name="emr/janitor")
        if self.config.suspicion_timeout_ms is not None:
            spawn(self.system, self._failure_detector(),
                  name="emr/failure-detector")

    def stop(self) -> None:
        """Stop elasticity management (profiling detaches too)."""
        if not self.running:
            return
        self.running = False
        if self.durability is not None:
            self.durability.stop()
            self.durability = None
        self.system.uninstall(self.placement, self.overload)
        self.overload = None
        self.system.remove_hooks(self.profiler)
        self.system.remove_hooks(self)

    def _add_lem(self, server: Server) -> None:
        if server.server_id in self.lems:
            return
        self.hierarchy.note_server(server)
        lem = LEM(self, server, self._lem_counter)
        # A server booted mid-run joins at the current control-plane
        # epoch: the manager that boots it hands over the configuration,
        # so it must not reject the first RREPLY as "newer than mine".
        lem.epoch = self.epoch
        self._lem_counter += 1
        self.lems[server.server_id] = lem
        # Baseline heartbeat: a server that never manages a first round
        # must still become suspect once the timeout elapses.
        self._last_report[server] = self.system.now
        self._start_lem(lem)

    def _start_lem(self, lem: LEM) -> None:
        """Each LEM owns its period timer; a runtime whose servers share
        one process overrides this to drive them all from one."""
        lem.start()

    def on_server_joined(self, server: Server) -> None:
        """A server that joins a running plane gets its LEM."""
        self._add_lem(server)

    def _janitor(self):
        """Periodic housekeeping: retire fully drained servers even when
        no migration event fires the check."""
        while self.running:
            yield Timeout(self.system, self.config.period_ms / 2.0)
            self._maybe_retire()

    # ------------------------------------------------------------------
    # elasticity event bus (consumed by the tracer and the chaos engine)
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[str, dict], None]) -> None:
        """Subscribe to EMR events: ``listener(kind, detail_dict)``."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[str, dict], None]) -> None:
        """Unsubscribe a listener added with :meth:`add_listener`."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def emit(self, kind: str, **detail) -> None:
        """Broadcast an elasticity event to every listener."""
        for listener in list(self._listeners):
            listener(kind, detail)

    # ------------------------------------------------------------------
    # failure detection and recovery
    # ------------------------------------------------------------------

    def note_report(self, server: Server) -> None:
        """Heartbeat: a LEM round on ``server`` just started.

        A heartbeat from a quorum-less (minority-side) server cannot
        cross the partition to the authoritative control plane, so it is
        not recorded — after the suspicion timeout the failure detector
        declares the server *unreachable* (not crashed).
        """
        if self._partitions and server.server_id in self._isolated_servers:
            return
        self._last_report[server] = self.system.now
        if self.overload is not None:
            # The LEM spoke: if it had been flagged as drowning, the
            # next silence starts a fresh announcement.
            self.overload.note_report_received(server.name)

    def on_server_crashed(self, server: Server,
                          lost: List[ActorRecord]) -> None:
        """The actor runtime lost a server: its LEM runs *on* it, so it
        dies with the host at once, and the records of the actors it
        hosted become resurrection tombstones.  GEM-side suspicion (and
        recovery) follows only via missed heartbeats.
        """
        lem = self.lems.pop(server.server_id, None)
        if lem is not None:
            lem.cancel()
        self._draining.discard(server.server_id)
        if lost:
            self._lost_actors[server.server_id] = list(lost)
        self.hierarchy.note_server_gone(server)

    def _failure_detector(self):
        """GEM-side failure detection (runs only when
        ``suspicion_timeout_ms`` is configured): a server whose LEM has
        been silent for longer than the suspicion timeout is declared
        dead, and the actors it hosted are re-created through rule-aware
        placement on the surviving servers.  Failed GEMs are detected on
        the same tick and their servers adopted by a surviving (or
        freshly respawned) GEM.
        """
        system = self.system
        timeout = self.config.suspicion_timeout_ms
        while self.running:
            yield Timeout(system, timeout / 2.0)
            if not self.running:
                return
            now = system.now
            for server, last in list(self._last_report.items()):
                if now - last > timeout:
                    if (self.overload is not None
                            and server.server_id not in self._cut_off_servers
                            and self.overload.is_browned_out(server.name)
                            and now - last <= timeout
                            * self.overload.config.brownout_stretch):
                        # Drowning, not dead: the LEM announced brownout,
                        # so its reporting period is stretched and the
                        # silence is expected.  Grant the same stretch
                        # factor of grace before suspecting — resurrecting
                        # actors off a merely-slow server would duplicate
                        # them.  Beyond the stretched timeout the server
                        # is treated as dead like any other (staleness
                        # stays bounded).
                        if self.overload.note_drowning(server.name):
                            self.emit("server-drowning", server=server.name,
                                      silence_ms=now - last)
                        continue
                    del self._last_report[server]
                    if server.server_id in self._cut_off_servers:
                        # Silent because the partition eats its
                        # heartbeats — it may well be alive on the far
                        # side.  Crashed and unreachable are
                        # indistinguishable from here, so do NOT
                        # resurrect: a double-placed actor is worse than
                        # a late recovery.  The heal-time anti-entropy
                        # pass settles its fate.
                        self._unreachable[server.server_id] = (server, last)
                        self.emit("server-unreachable", server=server.name,
                                  silence_ms=now - last)
                        continue
                    self._on_server_suspected(server, now - last)
            self._check_gems()

    def _on_server_suspected(self, server: Server, silence_ms: float) -> None:
        lost = self._lost_actors.pop(server.server_id, [])
        self.emit("server-suspected", server=server.name,
                  silence_ms=silence_ms, lost_actors=len(lost))
        for record in lost:
            self.system.resurrect_actor(record)

    def _check_gems(self) -> None:
        """Note newly failed GEMs and hand their servers to a survivor.

        Adoption is implicit in the shuffling process of §4.3 — LEMs pick
        a random healthy GEM every round — so the adopter recorded here is
        the deterministic first survivor, purely for accounting.  When no
        GEM survives, a replacement is respawned so reports have
        somewhere to go next period.
        """
        for gem in list(self.gems):
            if not gem.failed:
                self._failed_gems_noted.discard(gem.gem_id)
                continue
            if gem.gem_id in self._failed_gems_noted:
                continue
            self._failed_gems_noted.add(gem.gem_id)
            survivors = [g for g in self.gems if not g.failed]
            adopter = survivors[0] if survivors else self.respawn_gem()
            self.emit("gem-failover", failed_gem=gem.gem_id,
                      adopter=adopter.gem_id,
                      respawned=not survivors)
        # Root/leaf failover rides the same detection tick: a dead root
        # is replaced, and groups whose home leaves are all down are
        # adopted by a surviving foreign leaf (or released back when a
        # home leaf recovers).
        if self.hierarchy.root.failed:
            self.hierarchy.ensure_root()
        self.hierarchy.reassign_orphan_groups()

    def respawn_gem(self) -> GEM:
        """Boot a replacement GEM (used when every GEM has failed).

        On a multi-group tree the respawn is deliberately *groupless*:
        it belongs to no leaf set, so every group's LEMs reach it through
        the ``pick_gem`` fallback and the fleet keeps a control plane
        until real leaves recover.  It publishes no group aggregate.
        With one group there is nothing to stay outside of: the respawn
        joins it and remains a full peer (shuffle and votes) after the
        originals recover, as on the paper's flat plane.
        """
        gem = GEM(self, len(self.gems))
        self.gems.append(gem)
        if not self.hierarchy.active():
            self.hierarchy.add_leaf(gem, 0)
        return gem

    # ------------------------------------------------------------------
    # partition tolerance: epochs, quorum, anti-entropy
    # ------------------------------------------------------------------

    def note_partition(self, token: int, server_ids: FrozenSet[int],
                       gem_ids: FrozenSet[int], symmetric: bool) -> None:
        """A network partition opened (called by the chaos engine).

        Advances the epoch, distributes it to the majority side only
        (the minority cannot hear about it — that is what makes its
        GEMs' later commands rejectably stale), and drops quorum-less
        GEMs into degraded read-only mode.
        """
        self._partitions[token] = _PartitionEntry(
            server_ids=frozenset(server_ids), gem_ids=frozenset(gem_ids),
            symmetric=symmetric)
        self._recompute_isolation()
        self.epoch += 1
        self.emit("epoch-advanced", epoch=self.epoch, reason="partition")
        self._sync_epochs(majority_only=True)
        self._refresh_gem_modes()
        if not self._probe_running:
            self._probe_running = True
            spawn(self.system, self._quorum_probe(),
                  name="emr/quorum-probe")

    def note_partition_healed(self, token: int) -> None:
        """A partition healed: epoch-sync everyone (highest epoch wins),
        restore quorums, and run the anti-entropy pass."""
        entry = self._partitions.pop(token, None)
        if entry is None:
            return
        self._recompute_isolation()
        self.epoch += 1
        self.emit("epoch-advanced", epoch=self.epoch, reason="heal")
        self._sync_epochs(majority_only=False)
        self._refresh_gem_modes()
        self._anti_entropy(entry)

    def _recompute_isolation(self) -> None:
        """Recompute each partition's minority side against the current
        running fleet, and the union of all minority sides."""
        # Universe for side membership: the provisioner forgets crashed
        # servers, but a server that died behind a cut is still "behind
        # the cut" until a heal lets the majority confirm its fate.
        fleet = self.system.running_servers()
        all_ids = {server.server_id for server in fleet}
        all_ids.update(server.server_id for server in self._last_report)
        all_ids.update(self._unreachable)
        running = {server.server_id for server in fleet if server.running}
        isolated_servers: Set[int] = set()
        isolated_gems: Set[int] = set()
        cut_off: Set[int] = set()
        for entry in self._partitions.values():
            group_running = entry.server_ids & running
            rest_running = running - entry.server_ids
            # The side with a strict majority of running servers keeps
            # control-plane authority; ties leave the group side quorum-
            # less (quorum requires a strict majority).
            if len(group_running) > len(rest_running):
                entry.minority_server_ids = frozenset(rest_running)
                entry.minority_gem_ids = frozenset(
                    gem.gem_id for gem in self.gems
                    if gem.gem_id not in entry.gem_ids)
                entry.cut_server_ids = frozenset(all_ids - entry.server_ids)
            else:
                entry.minority_server_ids = frozenset(group_running)
                entry.minority_gem_ids = entry.gem_ids
                entry.cut_server_ids = frozenset(entry.server_ids & all_ids)
            isolated_servers.update(entry.minority_server_ids)
            isolated_gems.update(entry.minority_gem_ids)
            cut_off.update(entry.cut_server_ids)
        self._isolated_servers = frozenset(isolated_servers)
        self._isolated_gems = frozenset(isolated_gems)
        self._cut_off_servers = frozenset(cut_off)

    def _sync_epochs(self, majority_only: bool) -> None:
        for gem in self.gems:
            if not majority_only or not self._gem_isolated(gem):
                gem.epoch = max(gem.epoch, self.epoch)
        for lem in self.lems.values():
            if (not majority_only
                    or lem.server.server_id not in self._isolated_servers):
                lem.epoch = max(lem.epoch, self.epoch)
        # The root sits above the fabric and always sides with the
        # majority, so it is never fenced out by a partition.
        root = self.hierarchy.root
        root.epoch = max(root.epoch, self.epoch)

    def _gem_isolated(self, gem: GEM) -> bool:
        return gem.gem_id in self._isolated_gems

    def server_quorumless(self, server: Server) -> bool:
        """Is ``server`` on the minority side of any active partition?
        Quorum-less servers defer all migrations (LEM execute guard)."""
        return bool(self._partitions
                    and server.server_id in self._isolated_servers)

    def report_reachable(self, server: Server, gem: GEM) -> bool:
        """Can a REPORT from ``server``'s LEM reach ``gem``?"""
        for entry in self._partitions.values():
            server_in = server.server_id in entry.server_ids
            gem_in = gem.gem_id in entry.gem_ids
            if server_in != gem_in and (entry.symmetric or server_in):
                return False
        return True

    def reply_reachable(self, gem: GEM, server: Server) -> bool:
        """Can an RREPLY from ``gem`` reach ``server``'s LEM?"""
        for entry in self._partitions.values():
            server_in = server.server_id in entry.server_ids
            gem_in = gem.gem_id in entry.gem_ids
            if server_in != gem_in and (entry.symmetric or gem_in):
                return False
        return True

    def _gems_mutually_reachable(self, first: GEM, second: GEM) -> bool:
        """A vote needs a request and a reply, so one severed direction
        is enough to lose the peer."""
        for entry in self._partitions.values():
            if ((first.gem_id in entry.gem_ids)
                    != (second.gem_id in entry.gem_ids)):
                return False
        return True

    def _gem_quorumless(self, gem: GEM) -> bool:
        """A GEM has quorum while it can exchange control messages with
        a strict majority of the running servers' LEMs."""
        if not self._partitions:
            return False
        running = [server for server in self.system.running_servers()
                   if server.running]
        if not running:
            return False
        reachable = sum(
            1 for server in running
            if self.report_reachable(server, gem)
            and self.reply_reachable(gem, server))
        return reachable * 2 <= len(running)

    def _refresh_gem_modes(self) -> None:
        for gem in self.gems:
            if gem.failed:
                continue
            quorumless = self._gem_quorumless(gem)
            if quorumless and not gem.degraded:
                gem.degraded = True
                self.emit("gem-degraded", gem_id=gem.gem_id,
                          epoch=gem.epoch)
            elif not quorumless and gem.degraded:
                gem.degraded = False
                self.emit("gem-restored", gem_id=gem.gem_id,
                          epoch=gem.epoch)

    def _quorum_probe(self):
        """Re-evaluates quorums while any partition is active: a crash
        or boot mid-partition can flip which side holds the majority.
        The process exists only between the first inject and the last
        heal, so fault-free runs schedule nothing."""
        while self.running and self._partitions:
            yield Timeout(self.system, self.config.period_ms / 2.0)
            if self._partitions:
                self._recompute_isolation()
                self._refresh_gem_modes()
        self._probe_running = False

    def _anti_entropy(self, healed: _PartitionEntry) -> None:
        """Post-heal reconciliation: re-admit the minority side's LEMs
        and reconcile directory/placement views (highest epoch wins —
        the directory is authoritative and every record carries the
        epoch of its last placement, so a stale minority view can never
        overwrite a newer placement)."""
        now = self.system.now
        readmitted: List[str] = []
        for server_id in sorted(healed.cut_server_ids):
            if server_id in self._cut_off_servers:
                continue  # still cut off by another active partition
            since = self._unreachable.pop(server_id, None)
            lem = self.lems.get(server_id)
            if lem is not None and lem.server.running:
                # Fresh heartbeat baseline, with grace for one reply-
                # timeout wait: the LEM may still be blocked on an
                # RREPLY the partition ate, and that silence is the
                # partition's fault, not the server's.
                self._last_report[lem.server] = (
                    now + self.config.gem_reply_timeout_ms)
                readmitted.append(lem.server.name)
                self.emit("server-readmitted", server=lem.server.name,
                          epoch=self.epoch)
            elif since is not None and not since[0].running:
                # It really did crash behind the cut: now confirmable,
                # so the normal suspicion path (tombstone resurrection)
                # finally runs.
                self._on_server_suspected(since[0], now - since[1])
        directory = self.system.directory
        # Crashed and retired servers have left the fleet and host nothing.
        minority_actors = sum(
            directory.count_on(server)
            for server in self.system.running_servers()
            if server.server_id in healed.minority_server_ids)
        stale = len(directory.stale_records(self.epoch))
        self.emit("partition-healed", epoch=self.epoch,
                  readmitted=tuple(readmitted),
                  actors_minority_side=minority_actors,
                  actors_total=directory.count(),
                  stale_view_records=stale)

    # ------------------------------------------------------------------
    # services used by LEMs and GEMs
    # ------------------------------------------------------------------

    def pick_gem(self, server: Optional[Server] = None) -> Optional[GEM]:
        """Random healthy GEM — the shuffling process of §4.3 that lets
        LEMs route around failed GEMs.

        A LEM shuffles only among its server group's leaf GEMs.  When
        the group's home leaves are all down it routes to the leaf that
        *adopted* the group, if any; only with no adopter either does it
        fall back to the full alive set (so an emergency respawn can
        serve the whole fleet).  With one group the candidate list is
        every alive GEM — the paper's flat shuffle.
        """
        alive: List[GEM] = []
        if server is not None:
            group = self.hierarchy.group_for_server(server)
            alive = [gem for gem in self.hierarchy.leaves_of(group)
                     if not gem.failed]
            if not alive:
                adopter = self.hierarchy.adopter_for(group)
                if adopter is not None:
                    alive = [adopter]
        if not alive:
            alive = [gem for gem in self.gems if not gem.failed]
        if not alive:
            return None
        return self._gem_rng.choice(alive)

    def lem_for(self, server: Server) -> Optional[LEM]:
        """The LEM managing ``server``, if one is running."""
        return self.lems.get(server.server_id)

    def resolve_ref_global(self, ref: ActorRef) -> Optional[ActorSnapshot]:
        """Snapshot any live actor by ref (for ref-joins across servers)."""
        record = self.system.directory.try_lookup(ref.actor_id)
        if record is None:
            return None
        return self.profiler._snapshot_one(record)

    def execute(self, action: Action, home: Server,
                root: Optional[RootGem] = None):
        """Admission-checked execution of one planned move: the only
        path from a LEM's or the root's plan to ``start_migration``.

        ``home`` is the issuer's own server (``action.src`` for the
        root): a partition that leaves it or the target without quorum
        defers the move until the heal.  A move the ``root`` planned is
        fenced on that incarnation: it bails after the QUERY leg if the
        root died or was superseded, and before starting if it also
        fell behind the partition epoch, so a stale root's plan never
        starts a migration (once started, the two-phase protocol's own
        timeouts drive it to commit or rollback).  Returns whether the
        migration started.
        """
        system = self.system
        if root is not None:
            generation = root.generation
        record = system.directory.try_lookup(action.actor_id)
        if (record is None or record.migrating
                # A pin blocks every behavior except an explicit reserve.
                or (record.pinned and action.kind != "reserve")
                # Stale plans: the actor moved, or the target retired or
                # became a scale-in victim since planning.
                or record.server is not action.src
                or not action.dst.running or self.is_draining(action.dst)
                # Epoch fencing cannot catch a target that landed on the
                # minority side after planning (planner and executor are
                # both on the majority side), so recheck it here.
                or self.server_quorumless(home)
                or self.server_quorumless(action.dst)
                or (system.now - record.last_placed_at
                    < self.config.stability_window_ms())):
            return False
        target_lem = self.lem_for(action.dst)
        if target_lem is None:
            return False
        # QUERY the target server; one control-message round trip.
        yield Timeout(system, CONTROL_LATENCY_MS)
        if root is not None and (root.failed
                                 or root.generation != generation):
            return False
        accepted = target_lem.check_idle_res(action)
        yield Timeout(system, CONTROL_LATENCY_MS)
        if not accepted or (root is not None and (
                root.failed or root.generation != generation
                or root.epoch < self.epoch)):
            return False
        # Fire-and-continue: the live-migration protocol runs on its own
        # (the actor is flagged `migrating`, which blocks double moves);
        # blocking here would make a slow state transfer eat whole
        # elasticity periods for every other actor on the issuer's server.
        system.start_migration(record.ref, action.dst,
                               force=action.kind == "reserve")
        self.note_migration(action, "lem" if root is None else "root")
        return True

    def note_migration(self, action: Action, issuer: str = "lem") -> None:
        """Record a started migration in the explainable event log.

        ``issuer`` says which authority executed the action: ``"lem"``
        for the per-server loop (both its own and GEM-planned actions)
        or ``"root"`` for a cross-group move arbitrated by the root tier
        — the cross-group-single-authority invariant keys off it.
        """
        rule_line = -1
        if 0 <= action.rule_index < len(self.policy.source_policy.rules):
            rule_line = self.policy.source_policy.rules[
                action.rule_index].line
        self.migration_log.append(MigrationEvent(
            time_ms=self.system.now, actor=action.actor.ref,
            kind=action.kind, src=action.src.name, dst=action.dst.name,
            rule_line=rule_line))
        if self._listeners:
            record = self.system.directory.try_lookup(action.actor_id)
            self.emit("migration-started", actor=str(action.actor.ref),
                      actor_id=action.actor_id, action=action.kind,
                      src=action.src.name, dst=action.dst.name,
                      rule_index=action.rule_index, issuer=issuer,
                      pinned=record.pinned if record is not None else False,
                      dst_draining=action.dst.server_id in self._draining,
                      dst_running=action.dst.running,
                      epoch=self.epoch)
        # A draining server that just lost its last actor can be retired.
        self._maybe_retire()

    def vote(self, requester: GEM, direction: str) -> bool:
        """Majority vote among GEMs on a fleet adjustment (§4.2).

        Each peer replies whether its own region view agrees (more than
        half of its servers over/under the bounds).  The requester
        proceeds if a majority of peers corroborate; with a single GEM
        there are no peers and the adjustment proceeds.

        Epoch fencing: a degraded (quorum-less) or stale-epoch requester
        is vetoed outright — defence in depth behind the GEM's own
        degraded-mode short-circuit.  Peers on the far side of a
        partition cannot reply, so they count as silent (not agreeing)
        while still counting toward the majority denominator: a
        requester that lost half its peers cannot reach quorum.
        """
        if requester.degraded or requester.epoch < self.epoch:
            if self.debug_events:
                self.emit("gem-vote", requester=requester.gem_id,
                          direction=direction, peer_views=(),
                          agreeing=0, decision=False,
                          vetoed=("degraded" if requester.degraded
                                  else "stale-epoch"))
            return False
        peers = [gem for gem in self.gems
                 if gem is not requester and not gem.failed]
        # The vote is local to the requester's group (its co-leaves),
        # but the root — which sees every group's folded aggregate — may
        # veto when a majority of *other* groups contradicts the
        # request.  With one group every GEM is a co-leaf and the root
        # has no other group to consult: the paper's flat vote.
        group = self.hierarchy.leaf_group.get(requester.gem_id)
        peers = [gem for gem in peers
                 if self.hierarchy.leaf_group.get(gem.gem_id) == group]
        if not self.hierarchy.root.concurs(group, direction):
            if self.debug_events:
                self.emit("gem-vote", requester=requester.gem_id,
                          direction=direction, peer_views=(),
                          agreeing=0, decision=False,
                          vetoed="root-arbiter")
            return False
        if not peers:
            if self.debug_events:
                self.emit("gem-vote", requester=requester.gem_id,
                          direction=direction, peer_views=(),
                          agreeing=0, decision=True)
            return True
        agreeing = 0
        views = []
        for peer in peers:
            if direction == "overloaded":
                view = peer.overload_fraction
            else:
                view = peer.underload_fraction
            reachable = (not self._partitions
                         or self._gems_mutually_reachable(requester, peer))
            if reachable and (view >= 0.5 or peer.rounds_processed == 0):
                agreeing += 1
            views.append((peer.gem_id, view, peer.rounds_processed,
                          reachable))
        decision = agreeing * 2 >= len(peers)
        if self.debug_events:
            self.emit("gem-vote", requester=requester.gem_id,
                      direction=direction, peer_views=tuple(views),
                      agreeing=agreeing, decision=decision)
        return decision

    # -- scale-in bookkeeping --------------------------------------------------

    def mark_draining(self, server: Server) -> None:
        """Exclude ``server`` from placement; retire it once empty."""
        self._draining.add(server.server_id)
        self.emit("server-draining", server=server.name)

    def is_draining(self, server: Server) -> bool:
        """Whether ``server`` is being drained for retirement."""
        return server.server_id in self._draining

    def draining_ids(self) -> frozenset:
        """Ids of servers being drained (planning excludes them as
        migration targets)."""
        return frozenset(self._draining)

    def isolated_server_ids(self) -> frozenset:
        """Ids of quorum-less servers behind an active partition
        (planning excludes them as migration targets)."""
        return self._isolated_servers if self._partitions else frozenset()

    def _maybe_retire(self) -> None:
        if not self._draining:
            return
        for server in list(self.system.running_servers()):
            if server.server_id not in self._draining:
                continue
            if self.system.actors_on(server):
                continue
            self._draining.discard(server.server_id)
            self.lems.pop(server.server_id, None)
            # Deliberately retired, not crashed: stop monitoring it.
            self._last_report.pop(server, None)
            self.system.retire_server(server)
            self.hierarchy.note_server_gone(server)

    # -- statistics --------------------------------------------------------------

    def migrations_total(self) -> int:
        """Number of migrations the runtime has started."""
        return len(self.migration_log)

    def redistribution_rounds(self) -> int:
        """Number of elasticity periods in which at least one migration
        happened (the x-axis of the paper's Fig. 7b/7c and 8b/8c)."""
        if not self.migration_log:
            return 0
        period = self.config.period_ms
        rounds = {int(event.time_ms // period)
                  for event in self.migration_log}
        return len(rounds)
