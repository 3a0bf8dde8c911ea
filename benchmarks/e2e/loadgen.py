"""The benchmark's own open-loop HTTP client.

Deliberately not ``repro.live.loadgen``: a later PR that edits the
repo's load generator must not be able to change this instrument.

Open loop: a dispatcher releases each request at its scheduled arrival
whether or not earlier ones were answered, and latency runs from the
*scheduled* arrival, so a stall in the server is charged to every request
that had to wait behind it (no coordinated omission).  Requests travel
over a fixed, small number of keep-alive connections (one per core of
the sandbox); a request released while all of them are busy waits in the
client's queue, and that wait is part of its latency.  The dispatcher
also records how late it released each request, so a run in which the
generator itself fell behind can be declared invalid.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter
from typing import List, Optional, Tuple

__all__ = ["OpenLoopClient", "chat_schedule"]


def chat_schedule(seed: int, rate_per_s: float, seconds: float, rooms: int,
                  hot_fraction: float = 0.5, read_fraction: float = 0.02,
                  ) -> List[Tuple[float, int, bytes]]:
    """Poisson arrivals of chatroom requests: (due_s, room, raw HTTP).

    ``hot_fraction`` of the traffic goes to room 0, the rest is uniform;
    ``read_fraction`` of requests are stats reads, the rest posts.
    """
    rng = random.Random(seed)
    body = b'{"msg": "hi"}'
    schedule = []
    now = rng.expovariate(rate_per_s)
    while now < seconds:
        room = 0 if rng.random() < hot_fraction else rng.randrange(rooms)
        if rng.random() < read_fraction:
            raw = (f"GET /chat/{room}/stats HTTP/1.1\r\n"
                   f"Host: bench\r\n\r\n").encode("ascii")
        else:
            raw = (f"POST /chat/{room}/post HTTP/1.1\r\nHost: bench\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n"
                   ).encode("ascii") + body
        schedule.append((now, room, raw))
        now += rng.expovariate(rate_per_s)
    return schedule


class OpenLoopClient:
    """Plays a schedule against ``host:port``; results are parallel lists
    indexed like the schedule."""

    def __init__(self, host: str, port: int,
                 schedule: List[Tuple[float, int, bytes]],
                 connections: int) -> None:
        self.host = host
        self.port = port
        self.schedule = schedule
        self.connections = connections
        count = len(schedule)
        #: ms from scheduled arrival to the full response; None = no answer.
        self.latency_ms: List[Optional[float]] = [None] * count
        self.status: List[Optional[int]] = [None] * count
        #: ms the dispatcher released each request after it was due.
        self.late_ms: List[float] = [0.0] * count
        #: perf_counter value of schedule offset 0.
        self.origin = 0.0
        self.finished = 0.0
        self.answered = 0
        self._streams: List[Tuple[asyncio.StreamReader,
                                  asyncio.StreamWriter]] = []

    async def connect(self) -> None:
        self._streams = [
            await asyncio.open_connection(self.host, self.port)
            for _ in range(self.connections)]

    async def play(self, origin: float) -> None:
        """Release the schedule; ``origin`` is the ``perf_counter`` value
        of schedule offset 0 (a little in the future)."""
        self.origin = origin
        queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()
        workers = [asyncio.ensure_future(self._worker(reader, writer, queue))
                   for reader, writer in self._streams]
        try:
            for index, (due_s, _room, _raw) in enumerate(self.schedule):
                due = origin + due_s
                delay = due - perf_counter()
                if delay > 0.0:
                    await asyncio.sleep(delay)
                self.late_ms[index] = max(0.0, perf_counter() - due) * 1e3
                queue.put_nowait(index)
            for _ in workers:
                queue.put_nowait(None)
            await asyncio.gather(*workers)
        finally:
            for worker in workers:
                worker.cancel()
        self.finished = perf_counter()

    async def close(self) -> None:
        for _reader, writer in self._streams:
            writer.close()
        for _reader, writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _worker(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      queue: "asyncio.Queue[Optional[int]]") -> None:
        while True:
            index = await queue.get()
            if index is None:
                return
            due_s, _room, raw = self.schedule[index]
            writer.write(raw)
            await writer.drain()
            status = await _read_response(reader)
            self.latency_ms[index] = (
                perf_counter() - self.origin - due_s) * 1e3
            self.status[index] = status
            if status is not None and 200 <= status < 300:
                self.answered += 1


async def _read_response(reader: asyncio.StreamReader) -> Optional[int]:
    """Consume one HTTP/1.1 response; returns its status (None on EOF)."""
    line = await reader.readline()
    if not line:
        return None
    status = int(line.split(None, 2)[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if length:
        await reader.readexactly(length)
    return status
