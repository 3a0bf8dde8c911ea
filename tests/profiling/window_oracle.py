"""Reference windowed meter: a list of ``(bucket index, total)`` tuples.

It shares no code with :class:`repro.cluster.metrics.RingMeter`, the
meter every actor and server uses.  It states the exactness contract
the ring must meet bit for bit: accumulate each bucket in arrival
order, keep the newest ``keep_buckets`` buckets, and answer a windowed
total by summing the surviving in-window buckets oldest-first.
"""


class WindowedMeter:
    """Accumulates a quantity (busy-ms, bytes, message counts) into time
    buckets and answers windowed totals.

    ``bucket_ms`` trades precision for memory; the default 500 ms is far
    finer than any elasticity period used in the paper (60–180 s).
    """

    def __init__(self, sim, bucket_ms=500.0, keep_buckets=720):
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        self._sim = sim
        self._bucket_ms = bucket_ms
        self._keep = keep_buckets
        self._buckets = []  # (bucket index, total)
        self._lifetime = 0.0

    @property
    def lifetime_total(self):
        """Total accumulated since creation (never forgotten)."""
        return self._lifetime

    def add(self, amount):
        """Record ``amount`` now."""
        index = int(self._sim.now // self._bucket_ms)
        self._lifetime += amount
        if self._buckets and self._buckets[-1][0] == index:
            last_index, total = self._buckets[-1]
            self._buckets[-1] = (last_index, total + amount)
        else:
            self._buckets.append((index, amount))
            if len(self._buckets) > self._keep:
                del self._buckets[: len(self._buckets) - self._keep]

    def total(self, window_ms):
        """Sum recorded over the trailing ``window_ms``."""
        if window_ms <= 0:
            return 0.0
        cutoff = int((self._sim.now - window_ms) // self._bucket_ms)
        return sum(total for index, total in self._buckets
                   if index >= cutoff)
