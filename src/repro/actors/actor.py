"""Actor base class and actor-program schema extraction.

Application actors subclass :class:`Actor`.  Handler methods are regular
(or generator) methods; a handler that needs CPU time yields
``self.compute(cpu_ms)`` and one that calls another actor yields
``self.call(ref, "function", ...)``.  Messages to one actor are processed
strictly sequentially (classic actor semantics), so handlers never need
locks.

The EPL compiler validates elasticity rules against the *actor program
schema* — the set of actor types with their properties and functions —
which :func:`describe_actor_class` extracts from the Python class:
class-level annotations become declared properties, public methods become
functions.  This mirrors the paper's Fig. 3.I grammar where an
``aclass`` declares ``prop`` and ``func`` items.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, TYPE_CHECKING

from ..sim import Waitable
from .message import DEFAULT_MESSAGE_BYTES
from .refs import ActorRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .directory import ActorRecord
    from .system import ActorSystem

__all__ = ["Actor", "ActorTypeSchema", "describe_actor_class",
           "ANY_TYPE"]

ANY_TYPE = "any"

_RESERVED_METHODS = frozenset({
    "compute", "call", "tell", "sleep", "on_start", "on_migrated",
    "snapshot_state", "restore_state", "storm_tick",
})


@dataclass(frozen=True)
class ActorTypeSchema:
    """Declared shape of one actor type, used for EPL validation."""

    name: str
    properties: FrozenSet[str]
    functions: FrozenSet[str]

    def has_property(self, pname: str) -> bool:
        return pname in self.properties

    def has_function(self, fname: str) -> bool:
        return fname in self.functions


def describe_actor_class(cls: type) -> ActorTypeSchema:
    """Extract the schema (properties, functions) from an actor class."""
    if not (isinstance(cls, type) and issubclass(cls, Actor)):
        raise TypeError(f"{cls!r} is not an Actor subclass")
    properties = set()
    for klass in cls.__mro__:
        if klass in (Actor, object):
            continue
        properties.update(getattr(klass, "__annotations__", {}))
    functions = set()
    for name, member in inspect.getmembers(cls, callable):
        if name.startswith("_") or name in _RESERVED_METHODS:
            continue
        if inspect.isfunction(member) or inspect.ismethod(member):
            functions.add(name)
    return ActorTypeSchema(
        name=cls.__name__,
        properties=frozenset(properties),
        functions=frozenset(functions))


class Actor:
    """Base class for all application actors.

    Class-level knobs subclasses may override:

    - ``state_size_mb``: memory footprint, charged to the hosting server
      and proportional to migration transfer cost.
    - ``message_bytes``: default payload size for calls made *by* this
      actor.

    The runtime injects ``actor_id``, ``ref``, and internal wiring when
    the actor is created through :meth:`ActorSystem.create_actor`.
    """

    state_size_mb: float = 1.0
    message_bytes: float = DEFAULT_MESSAGE_BYTES

    # Injected by the runtime at creation:
    actor_id: int = -1
    ref: Optional[ActorRef] = None
    _system: "ActorSystem" = None  # type: ignore[assignment]
    #: This incarnation's directory record: the primitives below act for
    #: it even after a resurrection re-registered the id.
    _record: "ActorRecord" = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__}#{self.actor_id}>"

    @property
    def type_name(self) -> str:
        return type(self).__name__

    # -- handler-side primitives -------------------------------------------

    def compute(self, cpu_ms: float) -> Waitable:
        """Consume ``cpu_ms`` of CPU on the hosting server.

        Yield the result inside a handler.  The time actually taken
        depends on the server's speed and current contention.
        """
        return self._system._actor_compute(self, cpu_ms)

    def call(self, ref: ActorRef, function: str, *args: Any,
             size_bytes: Optional[float] = None) -> Waitable:
        """Invoke ``function`` on ``ref`` and wait for the reply.

        Yield the result inside a handler; the yielded value resumes with
        the callee's return value.
        """
        return self._system._actor_call(
            self, ref, function, args,
            size_bytes if size_bytes is not None else self.message_bytes)

    def tell(self, ref: ActorRef, function: str, *args: Any,
             size_bytes: Optional[float] = None) -> None:
        """Fire-and-forget invocation (no reply)."""
        self._system._actor_tell(
            self, ref, function, args,
            size_bytes if size_bytes is not None else self.message_bytes)

    def sleep(self, delay_ms: float) -> Waitable:
        """Suspend the current handler for ``delay_ms`` of virtual time."""
        return self._system._actor_sleep(delay_ms)

    # -- lifecycle hooks (override freely) -----------------------------------

    def on_start(self) -> None:
        """Called once after the actor is placed on its first server."""

    def on_migrated(self, old_server: Any, new_server: Any) -> None:
        """Called after a live migration completes."""

    # -- chaos surface (repro.chaos) -----------------------------------------

    def storm_tick(self, cpu_ms: float = 0.0):
        """Handler targeted by ``EventStorm``/``HotKeyFlood`` faults.

        Burns ``cpu_ms`` of CPU and returns nothing — a unit of junk
        load every actor type accepts.  Reserved (not part of the EPL
        schema) so injecting a storm cannot change rule validation.
        """
        if cpu_ms > 0.0:
            yield self.compute(cpu_ms)

    # -- durable state (repro.durability) ------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Capture this actor's durable state as a plain dict.

        The default captures every public instance field (runtime-
        injected ``actor_id``/``ref`` excluded), deep-copied so later
        handler mutations cannot reach into the checkpoint.  Subclasses
        with derived or non-copyable fields override this together with
        :meth:`restore_state`.
        """
        return {name: copy.deepcopy(value)
                for name, value in vars(self).items()
                if not name.startswith("_")
                and name not in ("actor_id", "ref")}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a previously captured snapshot.

        Called on a freshly constructed instance during recovery (and on
        the source instance during a migration rollback); the caller
        passes a private deep copy, so the default may install the
        values directly.
        """
        for name, value in state.items():
            setattr(self, name, value)

    # -- introspection used by the elasticity runtime ------------------------

    def property_refs(self, pname: str) -> Iterable[ActorRef]:
        """Resolve property ``pname`` to the actor refs it holds.

        Supports a single ref, or any iterable / dict of refs.  Missing or
        empty properties resolve to no refs (EPL ``in ref(...)``
        conditions then simply select nothing).
        """
        value = getattr(self, pname, None)
        if value is None:
            return ()
        if isinstance(value, ActorRef):
            return (value,)
        if isinstance(value, dict):
            value = value.values()
        refs = []
        try:
            for item in value:
                if isinstance(item, ActorRef):
                    refs.append(item)
        except TypeError:
            return ()
        return tuple(refs)
