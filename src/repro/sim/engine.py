"""Discrete-event simulation engine.

The engine executes callbacks at virtual timestamps in timestamp order,
with ties broken by insertion order so runs are fully deterministic.  All
timestamps are floats in *milliseconds* of virtual time; the unit is a
convention shared by the rest of the library (the cluster and actor layers
document their costs in the same unit).

The event queue is a calendar queue with a zero-delay FIFO and a heap
fallback for sparse epochs (see :class:`Simulator`).  Its contract is the
classic ``(timestamp, insertion order)``; ``tests/sim/
test_scheduler_differential.py`` holds it to that by diffing randomized
schedules against a plain binary-heap oracle.

Most users never schedule raw callbacks.  They start generator-based
processes (see :mod:`repro.sim.process`) and let those block on timeouts,
signals and queues.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Simulator", "SimulationError", "StopSimulation"]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.schedule(5.0, seen.append, "later")
    >>> sim.schedule(1.0, seen.append, "sooner")
    >>> sim.run()
    5.0
    >>> seen
    ['sooner', 'later']
    >>> sim.now
    5.0

    Future events are partitioned into fixed-width time buckets; a bucket
    is sorted once on activation and same-timestamp runs are drained with
    a single ``bisect`` instead of per-event heap pops.  Zero-delay events
    — the dominant class in the actor runtime, where every process resume
    and mailbox wake-up is ``schedule(0.0, ...)`` — skip the priority
    queue entirely.  Event storage, in drain order for one timestamp:

    ``_active`` / ``_active_pos``
        The current bucket, sorted on activation.  Events scheduled before
        the bucket was activated live here; same-timestamp runs are
        located with one ``bisect_right`` and drained by index.  Bucket
        lists are recycled through ``_free_lists`` (the slab) so steady
        state allocates no new containers per epoch.
    ``_spill``
        A ``(when, seq, callback, args)`` heap for events scheduled inside
        the ladder horizon — into the active bucket after activation, or
        into near-future buckets during sparse epochs.  Spill entries for
        a timestamp always carry higher ``seq`` than active-bucket entries
        for the same timestamp (they were scheduled later), so draining
        active before spill preserves global FIFO.
    ``_nowq``
        Plain FIFO of ``(callback, args)`` for events scheduled *at* the
        current timestamp (``delay == 0.0``).  These are always the
        youngest events of the timestamp, so they run last, in insertion
        order, with no ordering key at all.

    ``_horizon`` is the ladder fallback: future events within ``horizon``
    buckets of the active epoch bypass bucket storage and go straight to
    the spill heap.  Every activation that finds a nearly-empty bucket
    doubles the horizon, so persistently sparse schedules degenerate to a
    plain heap (which is optimal for them) instead of paying per-event
    bucket bookkeeping; dense schedules keep ``horizon == 1`` and get
    batched sort-and-scan drains.
    """

    __slots__ = ("_counter", "_now", "_running", "_stopped",
                 "_nowq", "_buckets", "_bucket_heap", "_active",
                 "_active_pos", "_active_index", "_spill", "_horizon",
                 "_free_lists")

    # Buckets are one virtual millisecond wide, so the bucket index of an
    # event due at ``when`` is ``int(when)``.

    #: Activations holding fewer events than this double the horizon.
    SPARSE_BUCKET_MIN = 16
    #: Upper bound on the ladder horizon, in buckets.
    MAX_HORIZON = 1 << 20

    def __init__(self) -> None:
        self._counter = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._nowq: deque = deque()
        self._buckets: Dict[int, list] = {}
        self._bucket_heap: List[int] = []
        self._active: list = []
        self._active_pos = 0
        self._active_index = -1
        self._spill: list = []
        self._horizon = 1
        self._free_lists: List[list] = []

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def schedule_seq(self) -> int:
        """Monotone admission stamp for future (``delay > 0``) events.

        Two reads returning the same value bracket a window in which no
        strictly-future event entered the queue.  The actor runtime's
        local-delivery batching uses this as its coalescing witness: a
        batch whose stamp is unchanged occupies consecutive sequence
        numbers, so delivering its messages in append order is exactly
        the order the unbatched events would have fired in.  Zero-delay
        admissions do not bump the stamp, but they can never land at a
        pending batch's strictly-future timestamp, so they never need to
        close one.
        """
        return self._counter

    def stop(self) -> None:
        """Halt the simulation after the current callback returns."""
        self._stopped = True

    def every(self, interval_ms: float,
              callback: Callable[[], Any]) -> Callable[[], None]:
        """Run ``callback()`` every ``interval_ms`` until cancelled.

        Returns a zero-argument cancel function.  The first call fires one
        interval from now.  Unlike a generator process, a periodic callback
        cannot block, which makes it the right shape for observers (the
        invariant checker's sweep) that must never perturb process
        scheduling order.
        """
        if interval_ms <= 0:
            raise SimulationError(
                f"periodic interval must be positive: {interval_ms!r}")
        state = {"cancelled": False}

        def tick() -> None:
            if state["cancelled"]:
                return
            callback()
            if not state["cancelled"]:
                self.schedule(interval_ms, tick)

        def cancel() -> None:
            state["cancelled"] = True

        self.schedule(interval_ms, tick)
        return cancel

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay runs the callback at
        the current timestamp, after all callbacks already scheduled for
        that timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        now = self._now
        when = now + delay
        if when == now:
            # Youngest event of the current timestamp: plain FIFO, no key.
            self._nowq.append((callback, args))
            return
        self._counter = seq = self._counter + 1
        index = int(when)
        if index - self._active_index < self._horizon:
            heapq.heappush(self._spill, (when, seq, callback, args))
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            lists = self._free_lists
            if lists:
                bucket = lists.pop()
                bucket.append((when, seq, callback, args))
                self._buckets[index] = bucket
            else:
                self._buckets[index] = [(when, seq, callback, args)]
            heapq.heappush(self._bucket_heap, index)
        else:
            bucket.append((when, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        now = self._now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when!r}, current time is {self._now!r}")
        if when == now:
            self._nowq.append((callback, args))
            return
        self._counter = seq = self._counter + 1
        index = int(when)
        if index - self._active_index < self._horizon:
            heapq.heappush(self._spill, (when, seq, callback, args))
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            lists = self._free_lists
            if lists:
                bucket = lists.pop()
                bucket.append((when, seq, callback, args))
                self._buckets[index] = bucket
            else:
                self._buckets[index] = [(when, seq, callback, args)]
            heapq.heappush(self._bucket_heap, index)
        else:
            bucket.append((when, seq, callback, args))

    def _activate(self) -> None:
        """Swap the lowest pending bucket in as the sorted active list."""
        old = self._active
        if old and len(self._free_lists) < 32:
            old.clear()
            self._free_lists.append(old)
        index = heapq.heappop(self._bucket_heap)
        lst = self._buckets.pop(index)
        if len(lst) < self.SPARSE_BUCKET_MIN and \
                self._horizon < self.MAX_HORIZON:
            self._horizon <<= 1
        # Appends are made in seq order, so same-timestamp runs are
        # already sorted and Timsort's run detection makes this pass
        # nearly linear for the common monotone patterns.
        lst.sort()
        self._active = lst
        self._active_pos = 0
        self._active_index = index

    def run(self, until: Optional[float] = None) -> float:
        """Run scheduled events in order.

        Without ``until``, runs until no events remain.  With ``until``,
        runs every event with timestamp <= ``until`` and then advances the
        clock to exactly ``until``.  Returns the final clock.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        limit = _INF if until is None else until
        nowq = self._nowq
        nowq_popleft = nowq.popleft
        heappop = heapq.heappop
        bheap = self._bucket_heap
        spill = self._spill
        try:
            while True:
                when = self._now
                if when > limit:
                    break
                # 1. Active-bucket events at exactly `when` (oldest seqs).
                active = self._active
                pos = self._active_pos
                if pos < len(active) and active[pos][0] == when:
                    end = bisect_right(active, (when, _INF), pos)
                    while pos < end:
                        rec = active[pos]
                        self._active_pos = pos = pos + 1
                        try:
                            rec[2](*rec[3])
                        except StopSimulation:
                            self._stopped = True
                        if self._stopped:
                            break
                    if self._stopped:
                        break
                # 2. Spill events at exactly `when` (scheduled later than
                #    any active-bucket event at `when`).
                if spill and spill[0][0] == when:
                    while spill and spill[0][0] == when:
                        rec = heappop(spill)
                        try:
                            rec[2](*rec[3])
                        except StopSimulation:
                            self._stopped = True
                        if self._stopped:
                            break
                    if self._stopped:
                        break
                # 3. Zero-delay events queued at `when` (youngest seqs).
                if nowq:
                    while nowq:
                        callback, args = nowq_popleft()
                        try:
                            callback(*args)
                        except StopSimulation:
                            self._stopped = True
                        if self._stopped:
                            break
                    if self._stopped:
                        break
                    continue
                # 4. Advance the clock to the next event.
                if pos < len(active):
                    head = active[pos]
                    if spill and spill[0] < head:
                        head = spill[0]
                    when = head[0]
                    if when > limit:
                        break
                    self._now = when
                    continue
                # Sparse epoch: the active bucket is exhausted and stays
                # exhausted until the next activation, so run a lean heap
                # loop over spill + nowq.  Preconditions from steps 2/3:
                # nowq is empty and the spill head is in the future.
                stop_run = False
                while spill:
                    head = spill[0]
                    when = head[0]
                    # A pending bucket may hold older events for this
                    # timestamp range; activate it first.  Fresh read of
                    # bheap[0] because callbacks create buckets.
                    if bheap and when >= bheap[0]:
                        break
                    if when > limit:
                        stop_run = True
                        break
                    heappop(spill)
                    self._now = when
                    try:
                        head[2](*head[3])
                    except StopSimulation:
                        self._stopped = True
                    if self._stopped:
                        stop_run = True
                        break
                    while spill and spill[0][0] == when:
                        rec = heappop(spill)
                        try:
                            rec[2](*rec[3])
                        except StopSimulation:
                            self._stopped = True
                        if self._stopped:
                            break
                    if self._stopped:
                        stop_run = True
                        break
                    if nowq:
                        while nowq:
                            callback, args = nowq_popleft()
                            try:
                                callback(*args)
                            except StopSimulation:
                                self._stopped = True
                            if self._stopped:
                                break
                        if self._stopped:
                            stop_run = True
                            break
                if stop_run:
                    break
                if not bheap:
                    if not spill and not nowq:
                        break
                    continue
                self._activate()
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def peek(self) -> Optional[float]:
        """Timestamp of the next scheduled event, or ``None`` if idle."""
        if self._nowq:
            return self._now
        best: Optional[float] = None
        active = self._active
        pos = self._active_pos
        if pos < len(active):
            best = active[pos][0]
        spill = self._spill
        if spill and (best is None or spill[0][0] < best):
            best = spill[0][0]
        bheap = self._bucket_heap
        if bheap:
            # The lowest-index bucket bounds every other bucket's minimum.
            low = min(self._buckets[bheap[0]])[0]
            if best is None or low < best:
                best = low
        return best

    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        total = len(self._nowq) + len(self._spill)
        total += len(self._active) - self._active_pos
        for bucket in self._buckets.values():
            total += len(bucket)
        return total
