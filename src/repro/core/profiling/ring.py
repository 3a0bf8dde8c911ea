"""Ring-buffer windowed counters for the profiling hot path.

:class:`RingMeter` answers the same question as
:class:`repro.cluster.WindowedMeter` — "how much accumulated over the
trailing window?" — but in O(1) amortized time per query instead of a
scan over every retained bucket.  The elasticity profiling runtime calls
``total()`` for every meter of every actor every period, so this is the
difference between decision latency growing with history length and
staying flat (the Elasticutor-style incremental maintenance the
scalability goal needs).

Exactness contract
------------------
``RingMeter.total(w)`` returns a float **bit-identical** to
``WindowedMeter.total(w)`` over the same event sequence (for ``w`` up to
the configured window) — the brute-force reference
``tests/profiling/test_window_properties.py`` checks it against:

* both implementations accumulate each bucket in arrival order;
* the cached window total is maintained as the *same left-to-right
  association* a fresh sum over in-window buckets would use: a running
  prefix over closed buckets, plus the open bucket on top.  Appending a
  newly closed bucket extends the prefix on the right (associativity
  preserved); evicting an expired bucket on the left breaks the prefix,
  so eviction triggers a full left-to-right recompute.  Evictions happen
  at most once per bucket boundary, so the recompute is amortized O(1)
  per event.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ...sim import Simulator

__all__ = ["RingMeter"]


class RingMeter:
    """Windowed accumulator with O(1) adds and O(1) amortized totals.

    Parameters
    ----------
    window_ms:
        The window ``total()`` answers by default — and the retention
        horizon: data older than one window (rounded up to bucket
        granularity) is dropped.  Queries for a *smaller* window are
        answered exactly by a bucket scan; larger windows are not
        supported (the data is gone).
    bucket_ms:
        Bucket width; identical default to :class:`WindowedMeter` so the
        two implementations bucket events identically.
    """

    __slots__ = ("_sim", "_bucket_ms", "_window_ms", "_max_buckets",
                 "_buckets", "_closed_sum", "_stale", "_lifetime")

    def __init__(self, sim: Simulator, window_ms: float,
                 bucket_ms: float = 500.0) -> None:
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        if window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        self._sim = sim
        self._bucket_ms = bucket_ms
        self._window_ms = window_ms
        # Enough buckets to cover the window plus the partially expired
        # boundary bucket WindowedMeter's cutoff comparison still counts.
        self._max_buckets = int(window_ms // bucket_ms) + 2
        # [bucket index, total] pairs; allocated by the first ``add``, so
        # a meter of an actor that is never active owns no deque.
        self._buckets: Optional[Deque[List[float]]] = None
        self._closed_sum = 0.0   # left-to-right sum of all but the last bucket
        self._stale = False      # closed_sum needs a recompute (post-eviction)
        self._lifetime = 0.0

    @property
    def lifetime_total(self) -> float:
        """Total accumulated since creation (never forgotten)."""
        return self._lifetime

    @property
    def window_ms(self) -> float:
        return self._window_ms

    def add(self, amount: float, at: Optional[float] = None) -> None:
        """Record ``amount`` at time ``at`` (default: now)."""
        when = self._sim.now if at is None else at
        index = int(when // self._bucket_ms)
        self._lifetime += amount
        buckets = self._buckets
        if buckets:
            last = buckets[-1]
            if last[0] == index:
                last[1] += amount
                return
            self._closed_sum += last[1]
        elif buckets is None:
            buckets = self._buckets = deque()
        buckets.append([index, amount])
        # Bound memory without waiting for a query: anything this far
        # behind the newest bucket is below every future cutoff.
        floor = index - self._max_buckets
        while buckets[0][0] < floor:
            buckets.popleft()
            self._stale = True

    def total(self, window_ms: Optional[float] = None) -> float:
        """Sum recorded over the trailing window (default: configured).

        Matches ``WindowedMeter.total`` bit-for-bit: buckets whose index
        is at or above ``int((now - window) // bucket_ms)`` are included,
        summed oldest-first.
        """
        window = self._window_ms if window_ms is None else window_ms
        if window <= 0:
            return 0.0
        buckets = self._buckets
        if not buckets:
            return 0.0
        cutoff = int((self._sim.now - self._window_ms) // self._bucket_ms)
        while buckets and buckets[0][0] < cutoff:
            buckets.popleft()
            self._stale = True
        if not buckets:
            self._closed_sum = 0.0
            self._stale = False
            return 0.0
        if self._stale:
            closed = 0.0
            for position in range(len(buckets) - 1):
                closed += buckets[position][1]
            self._closed_sum = closed
            self._stale = False
        if window >= self._window_ms:
            return self._closed_sum + buckets[-1][1]
        # Narrower-than-configured window: rare path, exact bucket scan.
        narrow_cutoff = int((self._sim.now - window) // self._bucket_ms)
        result = 0.0
        for index, bucket_total in buckets:
            if index >= narrow_cutoff:
                result += bucket_total
        return result

    def rate_per_ms(self, window_ms: Optional[float] = None) -> float:
        """Average accumulation rate over the trailing window, with the
        divisor clamped to elapsed time (same contract as WindowedMeter)."""
        window = self._window_ms if window_ms is None else window_ms
        now = self._sim.now
        effective = min(window, now) if now > 0 else window
        if effective <= 0:
            return 0.0
        return self.total(window) / effective
