"""Simulated server: vCPU cores, memory, and a NIC meter.

The CPU model is a per-server multi-core run queue.  Work arrives as jobs
declaring a CPU demand in milliseconds; each of the server's ``vcpus``
cores services jobs FIFO, scaled by the instance type's ``cpu_speed``.
This reproduces the contention behaviour elasticity management reacts to:
when offered load exceeds ``vcpus * cpu_speed`` CPU-ms per ms, queueing
delay grows and the windowed CPU utilization saturates near 100%.

Cores are a count, not processes: a server keeps how many cores wait for
work and a FIFO of jobs waiting for a core, and a job's life is two
scheduled callbacks (start on a core, finish).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Optional

from ..sim import Signal, Simulator
from .instances import InstanceType
from .metrics import WindowedMeter

__all__ = ["Server", "ServerGauges", "CpuJob"]

_server_ids = itertools.count(1)


class CpuJob:
    """A unit of CPU work queued on a server.

    ``owner`` is an opaque tag (the actor, in practice) used by callers for
    accounting; the server itself only needs the demand.
    """

    __slots__ = ("demand_ms", "owner", "done")

    def __init__(self, sim: Simulator, demand_ms: float, owner: Any = None) -> None:
        self.demand_ms = demand_ms
        self.owner = owner
        self.done = Signal(sim)


class ServerGauges:
    """What a placement domain answers regardless of how it executes
    work: an instance type, a memory ledger, and windowed CPU/NIC meters
    read as the utilization percentages PLASMA rules consume.  ``clock``
    is anything with a ``now`` in milliseconds (the simulator, or the
    live runtime's wall clock)."""

    def __init__(self, clock: Any, itype: InstanceType, server_id: int,
                 name: str) -> None:
        self.clock = clock
        self.itype = itype
        self.server_id = server_id
        self.name = name
        self.started_at = clock.now
        self.running = True
        self.cpu_meter = WindowedMeter(clock)
        self.net_meter = WindowedMeter(clock)
        self.memory_used_mb = 0.0

    # -- memory --------------------------------------------------------------

    def allocate_memory(self, mb: float) -> None:
        """Claim ``mb`` of memory.  Oversubscription is permitted (the paper's
        runtime does not kill actors on memory pressure) but shows up in
        :meth:`memory_percent` > 100, which memory rules can react to."""
        if mb < 0:
            raise ValueError(f"negative memory allocation: {mb!r}")
        self.memory_used_mb += mb

    def free_memory(self, mb: float) -> None:
        self.memory_used_mb = max(0.0, self.memory_used_mb - mb)

    # -- utilization percentages --------------------------------------------

    def _effective_window(self, window_ms: float) -> float:
        uptime = self.clock.now - self.started_at
        if uptime <= 0:
            return 0.0
        return min(window_ms, uptime)

    def cpu_percent(self, window_ms: float) -> float:
        """CPU utilization (0–100) over the trailing window."""
        effective = self._effective_window(window_ms)
        if effective <= 0:
            return 0.0
        capacity = effective * self.itype.vcpus
        return min(100.0, 100.0 * self.cpu_meter.total(window_ms) / capacity)

    def memory_percent(self, window_ms: float = 0.0) -> float:
        """Memory utilization (instantaneous; window kept for symmetry)."""
        return 100.0 * self.memory_used_mb / self.itype.memory_mb

    def net_percent(self, window_ms: float) -> float:
        """NIC utilization (0–100) over the trailing window."""
        effective = self._effective_window(window_ms)
        if effective <= 0:
            return 0.0
        capacity = effective * self.itype.net_bytes_per_ms()
        return min(100.0, 100.0 * self.net_meter.total(window_ms) / capacity)

    def resource_percent(self, resource: str, window_ms: float) -> float:
        """Utilization of ``cpu`` or ``net`` over the trailing window;
        any other resource name reads memory."""
        if resource == "cpu":
            return self.cpu_percent(window_ms)
        if resource == "net":
            return self.net_percent(window_ms)
        return self.memory_percent()


class Server(ServerGauges):
    """One simulated machine in the cluster.

    Public resource API:

    - :meth:`execute` — submit CPU work, returns a waitable.
    - :meth:`allocate_memory` / :meth:`free_memory`.
    - :meth:`cpu_percent`, :meth:`memory_percent`, :meth:`net_percent` —
      windowed utilization percentages, the signals PLASMA rules consume.
    """

    def __init__(self, sim: Simulator, itype: InstanceType,
                 name: Optional[str] = None) -> None:
        server_id = next(_server_ids)
        super().__init__(sim, itype, server_id,
                         name or f"{itype.name}-{server_id}")
        self.sim = sim
        #: Chaos "limping server" multiplier: effective core speed is
        #: ``itype.cpu_speed * speed_factor``.  1.0 = healthy.
        self.speed_factor = 1.0

        #: Cores waiting for a job.
        self._free_cores = 0
        #: Jobs waiting for a core, allocated by the first job that has
        #: to wait; ``None`` entries are shutdown sentinels.
        self._jobs: Optional[Deque[Optional[CpuJob]]] = None
        # One arm event per core: the schedule order the golden digests
        # and the dispatch differential pin.
        for _ in range(itype.vcpus):
            sim.schedule(0.0, self._next_job)

    def __repr__(self) -> str:
        return f"<Server {self.name}>"

    # -- CPU ---------------------------------------------------------------

    def execute(self, demand_ms: float, owner: Any = None) -> Signal:
        """Submit ``demand_ms`` of CPU work; returns the completion signal.

        The signal's value is the *scaled* busy time the job occupied a
        core for, letting callers charge per-actor CPU accounting.
        """
        if demand_ms < 0:
            raise ValueError(f"negative CPU demand: {demand_ms!r}")
        job = CpuJob(self.sim, demand_ms, owner)
        self._submit(job)
        return job.done

    def _submit(self, job: Optional[CpuJob]) -> None:
        """Hand ``job`` to a waiting core (it starts at the next step),
        or queue it behind the jobs already waiting."""
        if self._free_cores:
            self._free_cores -= 1
            self.sim.schedule(0.0, self._start_job, job)
            return
        jobs = self._jobs
        if jobs is None:
            jobs = self._jobs = deque()
        jobs.append(job)

    def _next_job(self) -> None:
        """A core is free: take the oldest waiting job, or wait."""
        if self._jobs:
            self.sim.schedule(0.0, self._start_job, self._jobs.popleft())
        else:
            self._free_cores += 1

    def _start_job(self, job: Optional[CpuJob]) -> None:
        if job is None:  # shutdown sentinel: this core stops
            return
        scaled = job.demand_ms / (self.itype.cpu_speed * self.speed_factor)
        if scaled > 0:
            self.sim.schedule(scaled, self._end_job, job, scaled)
        else:
            self._end_job(job, scaled)

    def _end_job(self, job: CpuJob, scaled: float) -> None:
        if self.running:
            self.cpu_meter.add(scaled)
        job.done.trigger(scaled)
        self._next_job()

    def run_queue_length(self) -> int:
        """Jobs waiting for a core (excludes jobs currently executing)."""
        return len(self._jobs) if self._jobs is not None else 0

    def idle_cpu_headroom(self, window_ms: float) -> float:
        """Unused CPU capacity, in CPU-ms per ms (used by admission checks)."""
        used_fraction = self.cpu_percent(window_ms) / 100.0
        return (1.0 - used_fraction) * self.itype.cpu_capacity_ms_per_ms()

    def set_speed_factor(self, factor: float) -> None:
        """Scale core speed (chaos "limping server" fault).  Applies to
        jobs dequeued from now on; a job already on a core finishes at
        the speed it started with."""
        if factor <= 0:
            raise ValueError(f"speed_factor must be positive: {factor!r}")
        self.speed_factor = factor

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the server's cores.

        Each core stops on a sentinel queued *behind* the work already
        waiting, so jobs submitted before shutdown still run to
        completion and fire their ``done`` signals; from now on no job
        is added to the CPU meter.  Work submitted after shutdown is
        never run.
        """
        if not self.running:
            return
        self.running = False
        for _ in range(self.itype.vcpus):
            self._submit(None)
