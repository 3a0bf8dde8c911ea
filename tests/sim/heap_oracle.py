"""Reference event loop: one binary heap ordered by ``(when, seq)``.

It shares no code with :class:`repro.sim.Simulator` — that is the point:
the differential harness diffs the production kernel against this
twenty-line statement of the scheduling contract.
"""

import heapq

from repro.sim import SimulationError, StopSimulation


class HeapSimulator:
    """Same public API as :class:`repro.sim.Simulator`."""

    def __init__(self):
        self._heap = []  # (when, seq, callback, args)
        self._counter = 0
        self._now = 0.0
        self._running = False
        self._stopped = False

    @property
    def now(self):
        return self._now

    def stop(self):
        self._stopped = True

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        self._counter = seq = self._counter + 1
        heapq.heappush(self._heap, (self._now + delay, seq, callback, args))

    def schedule_at(self, when, callback, *args):
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}, current time is {self._now!r}")
        self._counter = seq = self._counter + 1
        heapq.heappush(self._heap, (when, seq, callback, args))

    def run(self, until=None):
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        limit = float("inf") if until is None else until
        try:
            while heap and not self._stopped:
                when = heap[0][0]
                if when > limit:
                    break
                _when, _seq, callback, args = heapq.heappop(heap)
                self._now = when
                try:
                    callback(*args)
                except StopSimulation:
                    self._stopped = True
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def pending_events(self):
        return len(self._heap)
