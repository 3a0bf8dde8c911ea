"""PLASMA reproduction: programmable elasticity for stateful cloud apps.

Reproduces Sang et al., "PLASMA: Programmable Elasticity for Stateful
Cloud Computing Applications" (EuroSys 2020) as a pure-Python library on
top of a deterministic discrete-event cloud simulation.

Quick start::

    from repro import (Simulator, Provisioner, ActorSystem, Actor, Client,
                       compile_source, ElasticityManager, EmrConfig)

See README.md and the examples/ directory.
"""

from .actors import (Actor, ActorRef, ActorSystem, Client, DeadLetter,
                     RuntimeHooks, describe_actor_class)
from .chaos import (ChaosEngine, CrashServer, DegradeNetwork, FaultPlan,
                    KillGem, SlowServer)
from .cluster import (INSTANCE_TYPES, AvailabilityMeter, GaugeSeries,
                      InstanceType, NetworkFabric, Provisioner, Server,
                      WindowedMeter, instance_type)
from .core import (CompiledPolicy, ElasticityManager, EmrConfig,
                   ProfilingRuntime, compile_policy, compile_source,
                   parse_policy)
from .core.profiling import LatencyRecorder
from .durability import DurabilityConfig, DurabilityManager, StateStore
from .live import (FrontDoor, LiveActor, LiveActorSystem, LiveBackend,
                   LiveClock, LiveElasticityManager, LiveServer)
from .runtime import RuntimeBackend, SimBackend
from .sim import RandomStreams, Signal, Simulator, Timeout, spawn

__version__ = "1.0.0"

__all__ = [
    "Actor", "ActorRef", "ActorSystem", "Client", "DeadLetter",
    "RuntimeHooks", "describe_actor_class",
    "ChaosEngine", "CrashServer", "DegradeNetwork", "FaultPlan", "KillGem",
    "SlowServer",
    "INSTANCE_TYPES", "AvailabilityMeter", "GaugeSeries", "InstanceType",
    "NetworkFabric", "Provisioner", "Server", "instance_type",
    "CompiledPolicy", "ElasticityManager", "EmrConfig", "ProfilingRuntime",
    "compile_policy", "compile_source", "parse_policy",
    "DurabilityConfig", "DurabilityManager", "StateStore",
    "RandomStreams", "Signal", "Simulator", "Timeout", "spawn",
    "WindowedMeter", "LatencyRecorder",
    "RuntimeBackend", "SimBackend",
    "LiveClock", "LiveServer", "LiveActor", "LiveActorSystem",
    "LiveBackend", "LiveElasticityManager", "FrontDoor",
    "__version__",
]
