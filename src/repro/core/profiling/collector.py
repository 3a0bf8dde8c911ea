"""The elasticity profiling runtime (EPR).

Subscribes to the actor runtime's observation hooks and maintains
windowed statistics for every actor: CPU busy time, network bytes, and
per-(caller kind, function) message counts/sizes — everything the EPL's
feature classes [f-ra], [f-rs] and [f-ia] can reference.

Per the paper (§2.2, §5.2), the EPR only *collects*; it never interferes
with application execution.  Its measured cost is a small per-message
bookkeeping charge, modelled here as an optional CPU tax submitted to the
hosting server (``overhead_cpu_ms`` per message).  The Table 3 experiment
compares runs with the EPR attached vs. a vanilla run without it.

Snapshot reuse
--------------
Per-actor meters are ring buffers with O(1) windowed totals
(:class:`~repro.core.profiling.RingMeter`), and the EPR caches each
actor's meter-derived snapshot payload, reusing it when the actor is
provably unchanged:

* **same-instant reuse** — rule evaluation re-snapshots actors many
  times at one virtual timestamp (ref joins, ``colocate_groups``); if no
  meter mutated since the cached payload was computed at the same
  ``sim.now`` on the same server, the numbers are identical by
  construction and are reused;
* **idle reuse across periods** — an actor with zero in-window activity
  and no events since its last snapshot still has zero activity later
  (the window only slides forward), so its all-zero payload stays valid
  at *any* later time.  Cold actors therefore cost O(1) per period, the
  property that keeps decision latency flat as actor counts grow;
* **no profile until first use** — an actor's :class:`ActorStats` is
  built by the first ingest hook that touches it (delivery, compute,
  bytes sent or received).  Until then its snapshot is served from one
  shared all-zero idle payload, counted in the cache exactly as the
  payload of a fresh profile would be.

Fields that can change without a profiling hook firing (server, pinned,
migrating, state size, property refs, placement time) are read fresh
from the live record on every snapshot, cached or not.  The cached rate
dictionaries are shared between snapshots and must never be mutated;
``call_perc`` is always a fresh dict (it is filled per server group).

``tests/golden/test_golden.py`` pins the cache end to end.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...actors import ActorRecord, ActorRef, Message, RuntimeHooks
from ...cluster import Server
from ...sim import Simulator
from .snapshot import ActorSnapshot, ServerSnapshot
from .stats import ActorStats

__all__ = ["ProfilingRuntime"]

_MS_PER_MIN = 60_000.0
#: Exact types of attribute values that plainly hold no actor ref
#: (``Actor.property_refs`` resolves each of them to nothing).
_NEVER_REFS = frozenset((type(None), bool, int, float, str, bytes))


class _SnapEntry:
    """Cached meter-derived snapshot payload for one actor."""

    __slots__ = ("now", "version", "server_id", "idle", "cpu_perc",
                 "cpu_ms_per_min", "net_bytes_per_min", "net_perc",
                 "call_count_per_min", "call_bytes_per_min",
                 "pair_count_per_min")


def _idle_entry() -> _SnapEntry:
    entry = _SnapEntry()
    entry.now = entry.server_id = None  # idle: valid at any time, anywhere
    entry.version = 0
    entry.idle = True
    entry.cpu_perc = entry.cpu_ms_per_min = 0.0
    entry.net_bytes_per_min = entry.net_perc = 0.0
    entry.call_count_per_min = {}
    entry.call_bytes_per_min = {}
    entry.pair_count_per_min = {}
    return entry


#: The payload of every actor that has no profile yet — exactly what a
#: fresh ``ActorStats`` computes to.  Shared by all of them, so (like
#: every cached payload) never mutated.
_IDLE_ENTRY = _idle_entry()


class ProfilingRuntime(RuntimeHooks):
    """Collects actor and server runtime information.

    Parameters
    ----------
    window_ms:
        Profiling window; normally set to the elasticity period so rules
        observe exactly one period of history.
    overhead_cpu_ms:
        CPU cost charged to the hosting server per profiled message
        (models the measured sub-percent EPR overhead of Table 3).
    warm_start:
        Keep the stats of destroyed actors in a bounded cache and, when
        an actor is resurrected, seed its new profile from the pre-crash
        stats instead of starting cold — rules re-converge faster after
        a recovery at the price of briefly trusting stale rates.
    """

    #: Retired-stats retention for ``warm_start`` (FIFO eviction).
    _RETIRED_CAP = 1024

    def __init__(self, sim: Simulator, window_ms: float = 60_000.0,
                 overhead_cpu_ms: float = 0.0,
                 warm_start: bool = False) -> None:
        self.sim = sim
        self.window_ms = window_ms
        self.overhead_cpu_ms = overhead_cpu_ms
        self.warm_start = warm_start
        self._stats: Dict[int, ActorStats] = {}
        self._snap_cache: Dict[int, _SnapEntry] = {}
        self._retired: Dict[int, Optional[ActorStats]] = {}
        self.messages_profiled = 0
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0
        self.warm_starts = 0

    def _new_stats(self, actor_id: int) -> ActorStats:
        """Build an actor's profile on its first ingest."""
        stats = self._stats[actor_id] = ActorStats(self.sim,
                                                   window_ms=self.window_ms)
        return stats

    # -- RuntimeHooks ---------------------------------------------------------

    def on_actor_destroyed(self, record: ActorRecord) -> None:
        stats = self._stats.pop(record.ref.actor_id, None)
        self._snap_cache.pop(record.ref.actor_id, None)
        if self.warm_start:
            # A never-profiled actor retires as None: its resurrection
            # is a warm start of an all-zero profile.
            self._retired[record.ref.actor_id] = stats
            while len(self._retired) > self._RETIRED_CAP:
                self._retired.pop(next(iter(self._retired)))

    def on_actor_resurrected(self, record: ActorRecord) -> None:
        # By default a resurrected actor restarts from fresh state, so
        # its profile restarts too — pre-crash rates must not drive
        # post-crash rules.  With warm_start (meant to pair with
        # checkpoint restore, where the state actually survives), the
        # pre-crash stats are carried over instead.
        actor_id = record.ref.actor_id
        self._snap_cache.pop(actor_id, None)
        self._stats.pop(actor_id, None)
        if self.warm_start and actor_id in self._retired:
            stats = self._retired.pop(actor_id)
            if stats is not None:
                self._stats[actor_id] = stats
            self.warm_starts += 1

    def on_message_delivered(self, record: ActorRecord,
                             message: Message) -> None:
        stats = self._stats.get(record.ref.actor_id)
        if stats is None:
            stats = self._new_stats(record.ref.actor_id)
        stats.record_message(message.caller_kind, message.caller_id,
                             message.function, message.size_bytes)
        self.messages_profiled += 1
        if self.overhead_cpu_ms > 0.0:
            record.server.execute(self.overhead_cpu_ms, owner=self)

    def on_compute(self, record: ActorRecord, busy_ms: float) -> None:
        stats = self._stats.get(record.ref.actor_id)
        if stats is None:
            stats = self._new_stats(record.ref.actor_id)
        stats.add_cpu(busy_ms)

    def on_bytes_sent(self, record: ActorRecord, nbytes: float) -> None:
        stats = self._stats.get(record.ref.actor_id)
        if stats is None:
            stats = self._new_stats(record.ref.actor_id)
        stats.add_net_out(nbytes)

    def on_bytes_received(self, record: ActorRecord, nbytes: float) -> None:
        stats = self._stats.get(record.ref.actor_id)
        if stats is None:
            stats = self._new_stats(record.ref.actor_id)
        stats.add_net_in(nbytes)

    # -- snapshot API (Table 2: getActorsRuntime / getServerRuntime) -----------

    def snapshot_server(self, server: Server,
                        actor_records: List[ActorRecord]) -> ServerSnapshot:
        return ServerSnapshot(
            server=server,
            cpu_perc=server.cpu_percent(self.window_ms),
            mem_perc=server.memory_percent(),
            net_perc=server.net_percent(self.window_ms),
            actor_count=len(actor_records),
            vcpus=server.itype.vcpus,
            instance_type=server.itype.name)

    def snapshot_actors(self,
                        actor_records: List[ActorRecord]) -> List[ActorSnapshot]:
        """Snapshot a group of co-located actors.

        The group must be all actors of one server (the LEM's view) so
        that per-server call percentages are correct.
        """
        snapshots = [self._snapshot_one(record) for record in actor_records]
        self._fill_percentages(snapshots)
        return snapshots

    def _snapshot_one(self, record: ActorRecord) -> ActorSnapshot:
        actor_id = record.ref.actor_id
        stats = self._stats.get(actor_id)
        entry = self._snap_cache.get(actor_id)
        if (entry is not None
                and entry.version == (0 if stats is None else stats.version)
                and (entry.idle
                     or (entry.now == self.sim.now
                         and entry.server_id == record.server.server_id))):
            self.snapshot_cache_hits += 1
        else:
            entry = (_IDLE_ENTRY if stats is None
                     else self._compute_entry(record, stats))
            self._snap_cache[actor_id] = entry
            self.snapshot_cache_misses += 1
        server = record.server
        return ActorSnapshot(
            ref=record.ref,
            server=server,
            cpu_perc=entry.cpu_perc,
            cpu_ms_per_min=entry.cpu_ms_per_min,
            mem_mb=record.instance.state_size_mb,
            mem_perc=(100.0 * record.instance.state_size_mb
                      / server.itype.memory_mb),
            net_bytes_per_min=entry.net_bytes_per_min,
            net_perc=entry.net_perc,
            call_count_per_min=entry.call_count_per_min,
            call_bytes_per_min=entry.call_bytes_per_min,
            pair_count_per_min=entry.pair_count_per_min,
            refs=self._extract_refs(record),
            pinned=record.pinned,
            migrating=record.migrating,
            last_placed_at=record.last_placed_at,
            state_size_mb=record.instance.state_size_mb)

    def _compute_entry(self, record: ActorRecord,
                       stats: ActorStats) -> _SnapEntry:
        """Recompute the meter-derived snapshot payload for one actor."""
        server = record.server
        window = self.window_ms

        effective = min(window, max(self.sim.now, 1e-9))
        cpu_busy = stats.cpu.total(window)
        cpu_capacity = effective * server.itype.vcpus
        net_bytes = stats.net_in.total(window) + stats.net_out.total(window)
        net_capacity = effective * server.itype.net_bytes_per_ms()

        # Zero-length window (window_ms=0, or a degenerate effective
        # coverage): every total is zero, so rates are zero — dividing by
        # the zero coverage would raise instead.
        per_min = _MS_PER_MIN / effective if effective > 0.0 else 0.0
        entry = _SnapEntry()
        entry.now = self.sim.now
        entry.version = stats.version
        entry.server_id = server.server_id
        # Clamp like Server.cpu_percent does: bucketed meters include the
        # whole partial bucket at the window edge, so a saturated actor
        # can total slightly more than window * capacity.
        entry.cpu_perc = (min(100.0, 100.0 * cpu_busy / cpu_capacity)
                          if cpu_capacity else 0.0)
        entry.cpu_ms_per_min = cpu_busy * per_min
        entry.net_bytes_per_min = net_bytes * per_min
        entry.net_perc = (min(100.0, 100.0 * net_bytes / net_capacity)
                          if net_capacity else 0.0)
        entry.call_count_per_min = {
            key: meter.total(window) * per_min
            for key, meter in stats.call_counts.items()}
        entry.call_bytes_per_min = {
            key: meter.total(window) * per_min
            for key, meter in stats.call_bytes.items()}
        entry.pair_count_per_min = {
            key: meter.total(window) * per_min
            for key, meter in stats.pair_counts.items()}
        entry.idle = (
            cpu_busy == 0.0 and net_bytes == 0.0
            and not any(entry.call_count_per_min.values())
            and not any(entry.call_bytes_per_min.values())
            and not any(entry.pair_count_per_min.values()))
        return entry

    @staticmethod
    def _extract_refs(record: ActorRecord) -> Dict[str, tuple]:
        """Capture every property of the actor that holds actor refs."""
        refs: Dict[str, tuple] = {}
        instance_vars = getattr(record.instance, "__dict__", {})
        for pname, value in instance_vars.items():
            if pname.startswith("_") or pname == "ref":
                continue  # 'ref' is the actor's own injected handle
            if type(value) in _NEVER_REFS:
                continue
            held = record.instance.property_refs(pname)
            if held:
                refs[pname] = tuple(held)
        return refs

    @staticmethod
    def _fill_percentages(snapshots: List[ActorSnapshot]) -> None:
        """Compute call percentages within a same-server actor group.

        perc = this actor's count of (caller, function) / total over all
        actors *of the same type on the same server* (paper §3.2 (iii)).
        A group whose total is zero (no calls anywhere in the window)
        yields 0.0 for every member rather than dividing by zero.
        """
        totals: Dict[tuple, float] = {}
        for snap in snapshots:
            for key, rate in snap.call_count_per_min.items():
                group = (snap.type_name, key)
                totals[group] = totals.get(group, 0.0) + rate
        for snap in snapshots:
            for key, rate in snap.call_count_per_min.items():
                group_total = totals.get((snap.type_name, key), 0.0)
                snap.call_perc[key] = (
                    100.0 * rate / group_total if group_total > 0.0 else 0.0)
