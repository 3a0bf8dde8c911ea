"""Time-series recording for experiments.

The paper's figures plot per-server CPU%, per-server actor counts, fleet
size, and client latency over time.  :class:`ClusterRecorder` samples the
first three on a fixed cadence; latency curves come from bucketing the
clients' raw samples with :func:`latency_curve`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..actors import ActorSystem, Client
from ..cluster import GaugeSeries
from ..sim import Timeout, spawn

__all__ = ["ClusterRecorder", "latency_curve", "mean"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence (silent zeros hide
    broken experiments)."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


class ClusterRecorder:
    """Samples cluster state every ``sample_ms`` of virtual time.

    Per-server series are keyed by server name; servers that join later
    begin their series at their first sample.
    """

    def __init__(self, system: ActorSystem, sample_ms: float = 5_000.0,
                 window_ms: float = 10_000.0) -> None:
        self.system = system
        self.sample_ms = sample_ms
        self.window_ms = window_ms
        self.cpu: Dict[str, GaugeSeries] = {}
        self.net: Dict[str, GaugeSeries] = {}
        self.actor_counts: Dict[str, GaugeSeries] = {}
        self.fleet_size = GaugeSeries("fleet_size")
        self._running = False

    def start(self) -> None:
        self._running = True
        spawn(self.system.sim, self._sample_loop(), name="recorder")

    def stop(self) -> None:
        self._running = False

    def _sample_loop(self):
        sim = self.system.sim
        while self._running:
            yield Timeout(sim, self.sample_ms)
            self.sample()

    def sample(self) -> None:
        now = self.system.sim.now
        servers = self.system.provisioner.servers
        self.fleet_size.record(now, len(servers))
        for server in servers:
            cpu = self.cpu.setdefault(
                server.name, GaugeSeries(f"cpu/{server.name}"))
            cpu.record(now, server.cpu_percent(self.window_ms))
            net = self.net.setdefault(
                server.name, GaugeSeries(f"net/{server.name}"))
            net.record(now, server.net_percent(self.window_ms))
            count = self.actor_counts.setdefault(
                server.name, GaugeSeries(f"actors/{server.name}"))
            count.record(now, self.system.directory.count_on(server))


def latency_curve(clients: Iterable[Client], bucket_ms: float
                  ) -> List[Tuple[float, float]]:
    """Aggregate client latency samples into time buckets.

    Returns (bucket start ms, mean latency ms) pairs, sorted — the series
    behind the paper's latency-over-time figures.
    """
    buckets: Dict[int, List[float]] = {}
    for client in clients:
        for when, value in client.latencies.samples:
            buckets.setdefault(int(when // bucket_ms), []).append(value)
    return [(index * bucket_ms, mean(values))
            for index, values in sorted(buckets.items())]
