"""Logical servers for the live runtime.

A :class:`LiveServer` is a placement domain, not an OS process: actors
"on" it share one asyncio event loop with every other server, but the
directory, the profiler, and the EMR treat it exactly like a simulated
:class:`~repro.cluster.Server` — both are
:class:`~repro.cluster.ServerGauges`: an instance type, windowed CPU and
NIC meters, a memory ledger, and the same ``cpu_percent`` /
``memory_percent`` / ``net_percent`` answers.

CPU accounting is *charge-based*, mirroring the simulator: handlers
declare their cost through ``LiveActor.compute(cpu_ms)`` and those
charges land on the hosting server's meter.  Wall-clock interpreter
overhead is deliberately not attributed (see docs/live-runtime.md).
"""

from __future__ import annotations

from ..cluster import ServerGauges

__all__ = ["LiveServer"]


class LiveServer(ServerGauges):
    """One placement domain in a live actor system."""

    # -- metering ------------------------------------------------------

    def note_busy(self, busy_ms: float) -> None:
        """Charge ``busy_ms`` of CPU demand to this server's meter."""
        if busy_ms > 0.0:
            self.cpu_meter.add(busy_ms)

    def note_net(self, nbytes: float) -> None:
        if nbytes > 0.0:
            self.net_meter.add(nbytes)

    def execute(self, demand_ms: float, owner: object = None) -> None:
        """Meter-only counterpart of ``Server.execute``.

        The profiling runtime calls this to charge its own overhead;
        live handlers run on the event loop, so there is no run queue to
        join — the demand is just accounted.
        """
        self.note_busy(demand_ms)

    # -- lifecycle -----------------------------------------------------

    def shutdown(self) -> None:
        self.running = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LiveServer {self.name} running={self.running}>"
