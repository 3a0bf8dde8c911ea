"""Rolling-window usage meters.

PLASMA's profiling runtime reports actor and server usage *per time
window* (the elasticity period), not lifetime averages.  Every actor and
server meter is a :class:`RingMeter`: usage goes into fixed-width time
buckets (:data:`BUCKET_MS`), old history is forgotten, and the total over
the configured window costs O(1) amortized per query, so decision
latency stays flat as history grows (the Elasticutor-style incremental
maintenance the scalability goal needs).

Exactness contract
------------------
``RingMeter.total(w)`` returns a float **bit-identical** to a fresh
bucket scan over the same events (for ``w`` up to the configured
window): bucket each event by ``int(t // BUCKET_MS)`` in arrival order,
then sum every bucket at or above ``int((now - w) // BUCKET_MS)``,
oldest first.  ``tests/profiling/test_window_properties.py`` checks it
with exact ``==`` against that scan (the oracle in
``tests/profiling/window_oracle.py``) and a brute-force reference.  The
cached window total is the *same left-to-right association* the scan
uses: a running prefix over closed buckets, plus the open bucket on top.
Appending a closed bucket extends the prefix on the right; evicting an
expired bucket on the left breaks it, so eviction triggers a full
left-to-right recompute, at most once per bucket boundary (amortized
O(1) per event).  A narrower window is answered by the scan itself.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim import Simulator

__all__ = ["BUCKET_MS", "RingMeter", "GaugeSeries", "AvailabilityMeter"]

#: Bucket width of every windowed meter: far finer than any elasticity
#: period used in the paper (60-180 s).
BUCKET_MS = 500.0


class RingMeter:
    """Windowed accumulator with O(1) adds and O(1) amortized totals.

    ``clock`` is anything with a ``now`` in milliseconds (the simulator,
    or the live runtime's wall clock).  ``window_ms`` is the window
    ``total()`` answers by default, and the retention horizon: data
    older than one window (rounded up to bucket granularity) is dropped.
    Queries for a *smaller* window are answered exactly by a bucket
    scan; larger windows are not supported (the data is gone).
    """

    __slots__ = ("_clock", "_window_ms", "_max_buckets",
                 "_buckets", "_closed_sum", "_stale", "_lifetime")

    def __init__(self, clock: Any, window_ms: float) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        self._clock = clock
        self._window_ms = window_ms
        # Enough buckets to cover the window plus the partially expired
        # boundary bucket the scan's cutoff comparison still counts.
        self._max_buckets = int(window_ms // BUCKET_MS) + 2
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

    def add(self, amount: float, index: Optional[int] = None) -> None:
        """Record ``amount`` now.

        ``index`` is the current bucket, ``int(now // BUCKET_MS)``,
        passed by a caller that adds to several meters in one instant
        and computes it once; by default the meter reads its clock.
        """
        if index is None:
            index = int(self._clock.now // BUCKET_MS)
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

        Buckets whose index is at or above
        ``int((now - window) // BUCKET_MS)`` are included, summed
        oldest-first.
        """
        window = self._window_ms if window_ms is None else window_ms
        if window <= 0:
            return 0.0
        buckets = self._buckets
        if not buckets:
            return 0.0
        now = self._clock.now
        cutoff = int((now - self._window_ms) // BUCKET_MS)
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
        # Narrower-than-configured window: exact bucket scan.
        narrow_cutoff = int((now - window) // BUCKET_MS)
        result = 0.0
        for index, bucket_total in buckets:
            if index >= narrow_cutoff:
                result += bucket_total
        return result


class GaugeSeries:
    """A recorded time series of (time, value) samples.

    Used by the bench harness to capture CPU%, actor counts and latency
    curves that reproduce the paper's figures.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def record(self, time_ms: float, value: float) -> None:
        self.samples.append((time_ms, value))

    def values(self) -> List[float]:
        return [value for _t, value in self.samples]

    def times(self) -> List[float]:
        return [t for t, _value in self.samples]

    def last(self) -> float:
        if not self.samples:
            raise ValueError(f"series {self.name!r} is empty")
        return self.samples[-1][1]

    def mean(self) -> float:
        values = self.values()
        if not values:
            raise ValueError(f"series {self.name!r} is empty")
        return sum(values) / len(values)

    def __len__(self) -> int:
        return len(self.samples)


class AvailabilityMeter:
    """Per-window request-outcome accounting for availability reporting.

    Clients (or any request source) record each request as ``success``,
    ``failure`` (error reply — typically the target actor is gone),
    ``timeout`` (no reply within the caller's deadline), ``rejected``
    (admission control turned it away with a retriable ``Overloaded``
    NACK), or ``shed`` (a bounded mailbox dropped it).  Outcomes are
    bucketed into fixed-width time windows so benchmarks can report
    availability *during* a fault window separately from availability
    after recovery, plus how long the disruption lasted.

    Accounting is conserved by construction: every recorded attempt is
    exactly one outcome, so ``sum(totals.values()) == issued``.

    Successful requests may also carry a latency sample; those feed a
    :class:`~repro.core.profiling.LatencyRecorder` so availability
    reports can show p50/p95/p99 next to the outcome counts (the same
    recorder type the live front door uses).
    """

    OUTCOMES = ("success", "failure", "timeout", "rejected", "shed")

    def __init__(self, sim: Simulator, window_ms: float = 5_000.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.sim = sim
        self.window_ms = window_ms
        self._samples: List[Tuple[float, str]] = []
        self.totals: Dict[str, int] = {o: 0 for o in self.OUTCOMES}
        self._first_disruption: Optional[float] = None
        self._last_disruption: Optional[float] = None
        # Imported lazily: cluster must not import core.profiling at
        # module load (core.profiling.collector imports cluster).
        from ..core.profiling.latency import LatencyRecorder
        #: Latency of successful requests (ms); populated only when
        #: callers pass ``latency_ms`` to :meth:`record`.
        self.latency = LatencyRecorder()

    # -- recording -----------------------------------------------------------

    def record(self, outcome: str, at: Optional[float] = None,
               latency_ms: Optional[float] = None) -> None:
        if outcome not in self.OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; "
                             f"expected one of {self.OUTCOMES}")
        when = self.sim.now if at is None else at
        self._samples.append((when, outcome))
        self.totals[outcome] += 1
        if latency_ms is not None:
            self.latency.record(latency_ms)
        if outcome != "success":
            if self._first_disruption is None:
                self._first_disruption = when
            self._last_disruption = when

    def record_success(self, latency_ms: Optional[float] = None) -> None:
        self.record("success", latency_ms=latency_ms)

    def record_failure(self) -> None:
        self.record("failure")

    def record_timeout(self) -> None:
        self.record("timeout")

    @property
    def issued(self) -> int:
        """Total attempts recorded, across all outcomes."""
        return len(self._samples)

    # -- queries -------------------------------------------------------------

    def counts_between(self, start_ms: float,
                       end_ms: float) -> Dict[str, int]:
        """Outcome counts over samples with ``start_ms <= t < end_ms``."""
        counts = {o: 0 for o in self.OUTCOMES}
        for when, outcome in self._samples:
            if start_ms <= when < end_ms:
                counts[outcome] += 1
        return counts

    def availability_between(self, start_ms: float, end_ms: float) -> float:
        """Fraction of requests in the interval that succeeded.

        An interval with no samples reports 1.0 — no request was denied.
        """
        counts = self.counts_between(start_ms, end_ms)
        total = sum(counts.values())
        if total == 0:
            return 1.0
        return counts["success"] / total

    def availability(self) -> float:
        """Lifetime success fraction (1.0 when nothing was recorded)."""
        total = sum(self.totals.values())
        if total == 0:
            return 1.0
        return self.totals["success"] / total

    def per_window(self) -> List[Tuple[float, Dict[str, int]]]:
        """(window start, outcome counts) for every non-empty window."""
        buckets: Dict[int, Dict[str, int]] = {}
        for when, outcome in self._samples:
            index = int(when // self.window_ms)
            counts = buckets.setdefault(index,
                                        {o: 0 for o in self.OUTCOMES})
            counts[outcome] += 1
        return [(index * self.window_ms, buckets[index])
                for index in sorted(buckets)]

    def recovery_time_ms(self) -> Optional[float]:
        """Span from the first to the last non-success outcome — how long
        the service was visibly degraded.  ``None`` if it never was."""
        if self._first_disruption is None:
            return None
        return self._last_disruption - self._first_disruption

    def latency_summary(self) -> Dict[str, object]:
        """p50/p95/p99/mean/max over recorded success latencies."""
        return self.latency.summary()

    def report(self) -> Dict[str, object]:
        """Outcome totals + availability + latency percentiles."""
        out: Dict[str, object] = dict(self.totals)
        out["issued"] = self.issued
        out["availability"] = self.availability()
        out["recovery_time_ms"] = self.recovery_time_ms()
        out["latency"] = self.latency_summary()
        return out

    def __len__(self) -> int:
        return len(self._samples)
