"""Simulated cloud substrate: instance types, servers, network, provisioning.

This package stands in for the Amazon EC2 deployment used in the paper.
See DESIGN.md §2 for the substitution rationale.
"""

from .groups import ServerGroupMap
from .instances import INSTANCE_TYPES, InstanceType, instance_type
from .metrics import AvailabilityMeter, GaugeSeries, RingMeter
from .network import NetworkFabric
from .provisioner import Provisioner
from .server import CpuJob, Server, ServerGauges

__all__ = [
    "InstanceType",
    "INSTANCE_TYPES",
    "instance_type",
    "Server",
    "ServerGauges",
    "ServerGroupMap",
    "CpuJob",
    "NetworkFabric",
    "Provisioner",
    "RingMeter",
    "GaugeSeries",
    "AvailabilityMeter",
]
