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
migrating, state size, placement time) are read fresh from the live
record on every snapshot, cached or not.  So are property refs, but
only for the properties the compiled policy's ``in ref(...)`` atoms
name (``ref_properties``): a policy without such an atom costs no ref
extraction at all, and a profiler built without a policy extracts
none.  The cached payload itself is what the snapshot points at (see
:mod:`~repro.core.profiling.snapshot`), so it is never mutated: a
recompute builds a new one.  ``call_perc`` is a fresh dict whenever the
payload has call counts (it is filled per server group).

``tests/golden/test_golden.py`` pins the cache end to end.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from ...actors import ActorRecord, ActorRef, Message, RuntimeHooks
from ...cluster import Server
from ...sim import Simulator
from .snapshot import EMPTY, ActorSnapshot, Rates, ServerSnapshot
from .stats import ActorStats

__all__ = ["ProfilingRuntime"]

_MS_PER_MIN = 60_000.0
#: Exact types of attribute values that plainly hold no actor ref
#: (``Actor.property_refs`` resolves each of them to nothing).
_NEVER_REFS = frozenset((type(None), bool, int, float, str, bytes))


class _SnapEntry(Rates):
    """Cached meter-derived snapshot payload for one actor: its rates,
    keyed by when, where and from which meter version they were
    computed."""

    __slots__ = ("now", "version", "server_id", "idle")


def _idle_entry() -> _SnapEntry:
    entry = _SnapEntry()
    entry.now = entry.server_id = None  # idle: valid at any time, anywhere
    entry.version = 0
    entry.idle = True
    entry.cpu_perc = entry.cpu_ms_per_min = 0.0
    entry.net_bytes_per_min = entry.net_perc = 0.0
    entry.call_count_per_min = EMPTY
    entry.call_bytes_per_min = EMPTY
    entry.pair_count_per_min = EMPTY
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
    ref_properties:
        Actor properties whose refs snapshots carry — the ones the
        policy's ``in ref(...)`` atoms read
        (:attr:`~repro.core.epl.CompiledPolicy.ref_properties`).
    """

    def __init__(self, sim: Simulator, window_ms: float = 60_000.0,
                 overhead_cpu_ms: float = 0.0,
                 ref_properties: Iterable[str] = ()) -> None:
        self.sim = sim
        self.window_ms = window_ms
        self.overhead_cpu_ms = overhead_cpu_ms
        # Private names and the actor's own injected handle never hold
        # a property's refs; sorted so extraction order is fixed.
        self._ref_properties = tuple(sorted(
            name for name in ref_properties
            if not name.startswith("_") and name != "ref"))
        self._stats: Dict[int, ActorStats] = {}
        self._snap_cache: Dict[int, _SnapEntry] = {}
        self.messages_profiled = 0
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

    def _new_stats(self, actor_id: int) -> ActorStats:
        """Build an actor's profile on its first ingest."""
        stats = self._stats[actor_id] = ActorStats(self.sim,
                                                   window_ms=self.window_ms)
        return stats

    # -- RuntimeHooks ---------------------------------------------------------

    def on_actor_destroyed(self, record: ActorRecord) -> None:
        self._stats.pop(record.ref.actor_id, None)
        self._snap_cache.pop(record.ref.actor_id, None)

    def on_actor_resurrected(self, record: ActorRecord) -> None:
        # A resurrected actor's profile restarts cold: pre-crash rates
        # must not drive post-crash rules.
        actor_id = record.ref.actor_id
        self._snap_cache.pop(actor_id, None)
        self._stats.pop(actor_id, None)

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
        state_size_mb = record.instance.state_size_mb
        return ActorSnapshot.sharing(
            entry, record.ref, server,
            mem_mb=state_size_mb,
            mem_perc=100.0 * state_size_mb / server.itype.memory_mb,
            refs=self._extract_refs(record),
            pinned=record.pinned,
            migrating=record.migrating,
            last_placed_at=record.last_placed_at,
            state_size_mb=state_size_mb)

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

    def _extract_refs(self, record: ActorRecord) -> Mapping[str, tuple]:
        """Capture the refs each of the policy's ref properties holds as
        an instance attribute of the actor (the shared :data:`EMPTY`
        when none does, or the policy names none)."""
        refs: Mapping[str, tuple] = EMPTY
        if not self._ref_properties:
            return refs
        instance = record.instance
        instance_vars = getattr(instance, "__dict__", EMPTY)
        for pname in self._ref_properties:
            # A missing attribute reads as None: no entry.
            if type(instance_vars.get(pname)) in _NEVER_REFS:
                continue
            held = instance.property_refs(pname)
            if held:
                if refs is EMPTY:
                    refs = {}
                refs[pname] = tuple(held)
        return refs

    @staticmethod
    def _fill_percentages(snapshots: List[ActorSnapshot]) -> None:
        """Compute call percentages within a same-server actor group.

        perc = this actor's count of (caller, function) / total over all
        actors *of the same type on the same server* (paper §3.2 (iii)).
        A group whose total is zero (no calls anywhere in the window)
        yields 0.0 for every member rather than dividing by zero.
        Snapshots without call counts (their ``call_perc`` is
        :data:`EMPTY`) add nothing to any total and are skipped.
        """
        snapshots = [snap for snap in snapshots if snap.call_perc is not EMPTY]
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
