"""Rolling-window usage meters.

PLASMA's profiling runtime reports resource *percentages over the recent
past* (the elasticity period), not lifetime averages.  These meters
accumulate usage into fixed-width time buckets so that "CPU% over the last
N ms" is O(buckets) to answer and old history is forgotten automatically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim import Simulator

__all__ = ["WindowedMeter", "GaugeSeries", "AvailabilityMeter"]


class WindowedMeter:
    """Accumulates a quantity (busy-ms, bytes, message counts) into time
    buckets and answers windowed totals and rates.

    ``bucket_ms`` trades precision for memory; the default 500 ms is far
    finer than any elasticity period used in the paper (60–180 s).
    """

    def __init__(self, sim: Simulator, bucket_ms: float = 500.0,
                 keep_buckets: int = 720) -> None:
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        self._sim = sim
        self._bucket_ms = bucket_ms
        self._keep = keep_buckets
        self._buckets: List[Tuple[int, float]] = []  # (bucket index, total)
        self._lifetime = 0.0

    @property
    def lifetime_total(self) -> float:
        """Total accumulated since creation (never forgotten)."""
        return self._lifetime

    def add(self, amount: float, at: float = None) -> None:
        """Record ``amount`` at time ``at`` (default: now)."""
        when = self._sim.now if at is None else at
        index = int(when // self._bucket_ms)
        self._lifetime += amount
        if self._buckets and self._buckets[-1][0] == index:
            last_index, total = self._buckets[-1]
            self._buckets[-1] = (last_index, total + amount)
        else:
            self._buckets.append((index, amount))
            if len(self._buckets) > self._keep:
                del self._buckets[: len(self._buckets) - self._keep]

    def total(self, window_ms: float) -> float:
        """Sum recorded over the trailing ``window_ms``."""
        if window_ms <= 0:
            return 0.0
        cutoff = int((self._sim.now - window_ms) // self._bucket_ms)
        return sum(total for index, total in self._buckets
                   if index >= cutoff)

    def rate_per_ms(self, window_ms: float) -> float:
        """Average accumulation rate over the trailing window.

        The divisor is clamped to the elapsed simulation time so early
        queries (before one full window has passed) are not diluted.
        """
        effective = min(window_ms, self._sim.now) if self._sim.now > 0 else window_ms
        if effective <= 0:
            return 0.0
        return self.total(window_ms) / effective


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

    def mean_between(self, start_ms: float, end_ms: float) -> float:
        window = [v for t, v in self.samples if start_ms <= t <= end_ms]
        if not window:
            raise ValueError(
                f"series {self.name!r} has no samples in "
                f"[{start_ms}, {end_ms}]")
        return sum(window) / len(window)

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
