"""Elasticity profiling runtime (EPR): actor & server runtime tracking."""

from ...cluster.metrics import RingMeter
from .collector import ProfilingRuntime
from .latency import LatencyRecorder
from .snapshot import ActorSnapshot, ServerSnapshot
from .stats import ActorStats

__all__ = ["ProfilingRuntime", "ActorSnapshot", "ServerSnapshot",
           "ActorStats", "RingMeter", "LatencyRecorder"]
