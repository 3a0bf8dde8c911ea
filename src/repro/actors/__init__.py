"""Actor runtime substrate (the AEON stand-in).

Public surface:

- :class:`Actor` — base class for application actors.
- :class:`ActorRef` — location-transparent handle.
- :class:`ActorSystem` — creation, messaging, live migration.
- :class:`Client` — external request source with latency recording.
- :class:`RuntimeHooks` — observation interface used by profiling.
- :func:`describe_actor_class`, :class:`ActorTypeSchema` — program schema
  extraction consumed by the EPL compiler.
"""

from .actor import ANY_TYPE, Actor, ActorTypeSchema, describe_actor_class
from .client import Client, DeadLetter
from .directory import ActorRecord, Directory
from .hooks import RuntimeHooks
from .message import CLIENT_KIND, Message, Overloaded
from .refs import ActorRef
from .system import ActorSystem, PlacementPolicy

__all__ = [
    "Actor",
    "ActorRef",
    "ActorRecord",
    "ActorSystem",
    "ActorTypeSchema",
    "ANY_TYPE",
    "CLIENT_KIND",
    "Client",
    "DeadLetter",
    "Directory",
    "Message",
    "Overloaded",
    "PlacementPolicy",
    "RuntimeHooks",
    "describe_actor_class",
]
