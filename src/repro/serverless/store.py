"""Cloud storage tier (the DynamoDB stand-in).

Stateless serverless functions must externalize state to a storage tier
between invocations.  The paper's §2.1 measures why that's untenable for
stateful applications: ~25 ms per DynamoDB write and >70 s to persist a
22 MB graph.  This model reproduces those characteristics: per-request
base latency, size-dependent transfer time, and a concurrency limit
(provisioned throughput) that queues excess requests.

Workers are a count, not processes: the tier keeps how many workers
wait for a request and a FIFO of requests waiting for a worker, and a
request's life is two scheduled callbacks (start on a worker, finish).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from ..sim import Signal, Simulator

__all__ = ["StorageTier", "StorageStats"]

#: A queued request: op, key, value, size, completion signal, enqueue time.
_Request = Tuple[str, str, Any, float, Signal, float]


@dataclass
class StorageStats:
    reads: int = 0
    writes: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    total_latency_ms: float = 0.0

    def operations(self) -> int:
        return self.reads + self.writes


class StorageTier:
    """A remote key-value storage service with realistic latency.

    Parameters mirror the paper's measurements: ``write_latency_ms=25``
    is the DynamoDB average the authors report; reads are cheaper;
    ``bytes_per_ms`` models the item-size-dependent transfer cost that
    turns a 22 MB graph into a >70 s upload; ``concurrency`` is the
    provisioned-throughput limit beyond which requests queue.
    """

    def __init__(self, sim: Simulator,
                 read_latency_ms: float = 10.0,
                 write_latency_ms: float = 25.0,
                 bytes_per_ms: float = 300.0 * 1024.0 / 1000.0,
                 concurrency: int = 32) -> None:
        self.sim = sim
        self.read_latency_ms = read_latency_ms
        self.write_latency_ms = write_latency_ms
        self.bytes_per_ms = bytes_per_ms
        self.concurrency = concurrency
        self.stats = StorageStats()
        self._data: Dict[str, Tuple[Any, float]] = {}
        #: Workers waiting for a request.
        self._free_workers = 0
        #: Requests waiting for a worker, allocated by the first request
        #: that has to wait.
        self._requests: Optional[Deque[_Request]] = None
        # One arm event per worker: requests start at the same steps a
        # process per worker would start them.
        for _ in range(concurrency):
            sim.schedule(0.0, self._next_request)

    # -- client API (yield the returned signal) ---------------------------------

    def get(self, key: str) -> Signal:
        """Read ``key``; the signal resolves to the stored value or None."""
        done = Signal(self.sim)
        self._submit(("get", key, None, 0.0, done, self.sim.now))
        return done

    def put(self, key: str, value: Any, size_bytes: float) -> Signal:
        """Write ``key``; the signal resolves to True when durable."""
        done = Signal(self.sim)
        self._submit(("put", key, value, size_bytes, done, self.sim.now))
        return done

    # -- service ------------------------------------------------------------------

    def _submit(self, request: _Request) -> None:
        """Hand ``request`` to a waiting worker (it starts at the next
        step), or queue it behind the requests already waiting."""
        if self._free_workers:
            self._free_workers -= 1
            self.sim.schedule(0.0, self._start, request)
            return
        requests = self._requests
        if requests is None:
            requests = self._requests = deque()
        requests.append(request)

    def _next_request(self) -> None:
        """A worker is free: take the oldest waiting request, or wait."""
        if self._requests:
            self.sim.schedule(0.0, self._start, self._requests.popleft())
        else:
            self._free_workers += 1

    def _start(self, request: _Request) -> None:
        """A worker takes ``request``.  A read is sized by what is stored
        when it starts, and returns that."""
        op, key, _value, size, _done, _enqueued = request
        stored = None
        if op == "get":
            stored = self._data.get(key)
            size = stored[1] if stored else 0.0
            delay = self.read_latency_ms + size / self.bytes_per_ms
        else:
            delay = self.write_latency_ms + size / self.bytes_per_ms
        self.sim.schedule(delay, self._finish, request, stored)

    def _finish(self, request: _Request,
                stored: Optional[Tuple[Any, float]]) -> None:
        op, key, value, size, done, enqueued = request
        stats = self.stats
        if op == "get":
            stats.reads += 1
            stats.bytes_read += stored[1] if stored else 0.0
            result = stored[0] if stored else None
        else:
            self._data[key] = (value, size)
            stats.writes += 1
            stats.bytes_written += size
            result = True
        stats.total_latency_ms += self.sim.now - enqueued
        done.trigger(result)
        self._next_request()

    # -- inspection ---------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether ``key`` is durably stored (no latency; test use)."""
        return key in self._data

    def mean_latency_ms(self) -> float:
        """Mean request latency including queueing, over all requests."""
        ops = self.stats.operations()
        return self.stats.total_latency_ms / ops if ops else 0.0
