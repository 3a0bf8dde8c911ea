"""Messages exchanged between actors (and from external clients).

A message is one function invocation: it names the target actor and
function, carries arguments and a payload size (which determines network
cost), and holds the reply the caller blocks on.  ``caller_kind``
is ``"client"`` for external callers or the calling actor's type name —
exactly the distinction PLASMA's EPL makes in ``cllr.call(...)`` features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..sim import Completion

__all__ = ["Message", "Overloaded", "CLIENT_KIND",
           "DEFAULT_MESSAGE_BYTES", "DEFAULT_REPLY_BYTES"]

CLIENT_KIND = "client"
DEFAULT_MESSAGE_BYTES = 512.0
DEFAULT_REPLY_BYTES = 256.0


class Overloaded:
    """Retriable NACK delivered as a reply when overload protection
    refuses a client call.

    ``reason`` is ``"admission"`` (server-level admission control turned
    the request away before it queued) or ``"shed"`` (the target's
    bounded mailbox dropped it).  Clients treat both as retriable —
    unlike a timeout, the server paid almost nothing to say no.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"Overloaded({self.reason!r})"


@dataclass(slots=True)
class Message:
    """One in-flight function invocation.  ``message_id`` comes from
    the sending runtime's own counter."""

    message_id: int
    target_id: int
    function: str
    args: Tuple[Any, ...]
    caller_kind: str
    caller_id: Optional[int]
    size_bytes: float
    reply: Optional[Completion]
    reply_bytes: float = DEFAULT_REPLY_BYTES
    sent_at: float = 0.0
    #: Absolute sim time after which the caller no longer wants the
    #: reply.  Only set by clients when overload protection is active;
    #: the ``deadline`` shedding policy drops expired messages on
    #: arrival instead of wasting a saturated server's cycles.
    deadline_ms: Optional[float] = None
    forwards: int = 0
    remote: bool = False  # set at routing time: crossed a server boundary

    def is_client_call(self) -> bool:
        return self.caller_kind == CLIENT_KIND
