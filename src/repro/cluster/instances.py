"""Simulated cloud instance type catalog.

The profiles mirror the AWS instance types used in the paper's evaluation.
Absolute magnitudes are simulation conventions; what matters for elasticity
decisions is the *relative* capacity between types (e.g. an m5.large has
two vCPUs, an m1.small one slow vCPU) because PLASMA's rules consume
resource percentages, not absolute throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["InstanceType", "INSTANCE_TYPES", "instance_type"]


@dataclass(frozen=True)
class InstanceType:
    """Resource profile for a server class.

    ``cpu_speed`` scales CPU demand: a job declaring 10 ms of work occupies
    a core for ``10 / cpu_speed`` ms.  ``net_mbps`` is NIC bandwidth,
    ``memory_mb`` the memory capacity used by `reserve`/memory rules.
    """

    name: str
    vcpus: int
    cpu_speed: float
    memory_mb: int
    net_mbps: float
    hourly_cost: float

    def net_bytes_per_ms(self) -> float:
        """NIC throughput in bytes per millisecond."""
        return self.net_mbps * 1e6 / 8.0 / 1000.0


INSTANCE_TYPES: Dict[str, InstanceType] = {
    # First-generation instances used for the latency-oriented experiments.
    "m1.small": InstanceType(
        name="m1.small", vcpus=1, cpu_speed=0.5, memory_mb=1700,
        net_mbps=250.0, hourly_cost=0.044),
    "m1.medium": InstanceType(
        name="m1.medium", vcpus=1, cpu_speed=1.0, memory_mb=3750,
        net_mbps=500.0, hourly_cost=0.087),
    # The PageRank experiments use m5.large: 2 vCPU, 8 GB, 10 Gbps links.
    "m5.large": InstanceType(
        name="m5.large", vcpus=2, cpu_speed=1.0, memory_mb=8192,
        net_mbps=10000.0, hourly_cost=0.096),
    "m5.xlarge": InstanceType(
        name="m5.xlarge", vcpus=4, cpu_speed=1.0, memory_mb=16384,
        net_mbps=10000.0, hourly_cost=0.192),
}


def instance_type(name: str) -> InstanceType:
    """Look up an instance type by name, with a helpful error."""
    try:
        return INSTANCE_TYPES[name]
    except KeyError:
        known = ", ".join(sorted(INSTANCE_TYPES))
        raise KeyError(f"unknown instance type {name!r}; known: {known}")
