"""Actor references.

An :class:`ActorRef` is the only way application code (and EPL rules at
runtime) names an actor: a stable id plus the actor's type name.  Refs are
location-transparent — the directory resolves them to a server at send
time, so migration is invisible to callers.

Refs are hashable and compare by id, which lets actor properties hold
refs (or collections of refs) that EPL ``in ref(...)`` conditions inspect.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ActorRef"]


@dataclass(frozen=True, slots=True)
class ActorRef:
    """Stable, location-transparent handle for one actor."""

    actor_id: int
    type_name: str

    def __repr__(self) -> str:
        return f"<{self.type_name}#{self.actor_id}>"
