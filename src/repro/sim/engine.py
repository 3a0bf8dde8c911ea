"""Discrete-event simulation engine.

The engine executes callbacks at virtual timestamps in timestamp order,
with ties broken by insertion order so runs are fully deterministic.  All
timestamps are floats in *milliseconds* of virtual time; the unit is a
convention shared by the rest of the library (the cluster and actor layers
document their costs in the same unit).

The event queue is a heap of distinct future timestamps, one callback
list per timestamp, and a zero-delay FIFO (see :class:`Simulator`).  Its
contract is the classic ``(timestamp, insertion order)``; ``tests/sim/
test_scheduler_differential.py`` holds it to that by diffing randomized
schedules against a plain binary-heap oracle.

Most users never schedule raw callbacks.  They start generator-based
processes (see :mod:`repro.sim.process`) and let those block on timeouts,
signals and completions.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import length_hint
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

    Event storage, in drain order for one timestamp:

    ``_lists``
        A dict from each future timestamp to its ``(callback, args)``
        list, in insertion order; ``_times`` is a heap of its keys.
        Everything in a timestamp's list was scheduled before the clock
        reached that timestamp, so it is older than anything scheduled
        at that timestamp and runs first.
    ``_nowq``
        Plain FIFO of ``(callback, args)`` for events scheduled *at* the
        current timestamp (``delay == 0.0``) — every process resume and
        mailbox wake-up in the actor runtime.  These are always the
        youngest events of the timestamp, so they run last, in insertion
        order, and never touch the heap.

    Running each timestamp's list, then the FIFO, then advancing to the
    heap's minimum is exactly ``(timestamp, insertion order)`` without a
    sequence counter.  ``_batch`` iterates the list being run, so
    :meth:`pending_events` and :meth:`peek` stay exact mid-batch.
    """

    __slots__ = ("now", "_running", "_stopped", "_nowq", "_times",
                 "_lists", "_batch")

    def __init__(self) -> None:
        #: Current virtual time in milliseconds.  A plain slot, read
        #: several times per actor message; only :meth:`run` moves it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._nowq: deque = deque()
        self._times: List[float] = []
        self._lists: Dict[float, list] = {}
        self._batch = iter(())

    def stop(self) -> None:
        """Halt the simulation after the current callback returns."""
        self._stopped = True

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be finite and non-negative; a zero delay runs the
        callback at the current timestamp, after all callbacks already
        scheduled for that timestamp.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule in the past or at a non-finite time: "
                f"{delay!r}")
        now = self.now
        when = now + delay
        if when == now:
            self._nowq.append((callback, args))
            return
        batch = self._lists.get(when)
        if batch is None:
            self._lists[when] = [(callback, args)]
            heapq.heappush(self._times, when)
        else:
            batch.append((callback, args))

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        now = self.now
        if not now <= when < _INF:
            raise SimulationError(
                f"cannot schedule at {when!r}, current time is {now!r}")
        if when == now:
            self._nowq.append((callback, args))
            return
        batch = self._lists.get(when)
        if batch is None:
            self._lists[when] = [(callback, args)]
            heapq.heappush(self._times, when)
        else:
            batch.append((callback, args))

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
        times = self._times
        lists = self._lists
        nowq = self._nowq
        nowq_popleft = nowq.popleft
        heappop = heapq.heappop
        when = self.now
        try:
            while when <= limit:
                self.now = when
                # 1. The timestamp's list, present on arrival or re-filed
                #    by a stop() inside it.
                batch = lists.pop(when, None)
                if batch is not None:
                    heappop(times)
                    self._batch = it = iter(batch)
                    for callback, args in it:
                        try:
                            callback(*args)
                        except StopSimulation:
                            self._stopped = True
                        if self._stopped:
                            break
                    if self._stopped:
                        break
                # 2. Zero-delay events queued at `when`.
                while nowq:
                    callback, args = nowq_popleft()
                    try:
                        callback(*args)
                    except StopSimulation:
                        self._stopped = True
                    if self._stopped:
                        break
                if self._stopped or not times:
                    break
                # 3. Advance to the next timestamp.
                when = times[0]
        finally:
            self._running = False
            if length_hint(self._batch):
                # Halted inside a batch (stop() or an exception): the
                # unrun tail keeps its place ahead of the FIFO.
                lists[self.now] = list(self._batch)
                heapq.heappush(times, self.now)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Timestamp of the next scheduled event, or ``None`` if idle."""
        if self._nowq or length_hint(self._batch):
            return self.now
        return self._times[0] if self._times else None

    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return (len(self._nowq) + length_hint(self._batch)
                + sum(map(len, self._lists.values())))
