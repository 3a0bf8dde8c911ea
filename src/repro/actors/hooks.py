"""Observation hooks the actor runtime exposes.

PLASMA's design keeps the elasticity profiling runtime (EPR) *outside*
the application runtime: "the EPR only collects runtime data of actors"
(§2.2).  The actor system therefore publishes events through this narrow
interface and the EPR subscribes to it; disabling profiling is simply not
subscribing, which is how the Table 3 overhead experiment runs its
vanilla configuration.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Server
    from .directory import ActorRecord
    from .message import Message

__all__ = ["RuntimeHooks"]


class RuntimeHooks:
    """Subscriber interface for actor runtime events.  All methods are
    no-ops by default; subclasses override what they observe."""

    def on_actor_created(self, record: "ActorRecord") -> None:
        """A new actor was placed on ``record.server``."""

    def on_actor_destroyed(self, record: "ActorRecord") -> None:
        """An actor was removed from the system."""

    def on_message_delivered(self, record: "ActorRecord",
                             message: "Message") -> None:
        """``message`` entered ``record``'s mailbox on its current server."""

    def on_message_shed(self, record: "ActorRecord", message: "Message",
                        reason: str) -> None:
        """``message`` was dropped by ``record``'s bounded mailbox.
        ``reason`` is ``"shed"`` (mailbox full) or ``"deadline"`` (the
        client's deadline expired before arrival)."""

    def on_request_rejected(self, record: "ActorRecord",
                            message: "Message") -> None:
        """Server-level admission control refused the client call
        ``message`` before it entered ``record``'s mailbox."""

    def on_compute(self, record: "ActorRecord", busy_ms: float) -> None:
        """``record`` occupied a core for ``busy_ms`` (speed-scaled)."""

    def on_bytes_sent(self, record: "ActorRecord", nbytes: float) -> None:
        """``record`` sent ``nbytes`` over the network (remote only)."""

    def on_bytes_received(self, record: "ActorRecord", nbytes: float) -> None:
        """``record`` received ``nbytes`` over the network (remote only)."""

    def on_actor_migrated(self, record: "ActorRecord", old_server: "Server",
                          new_server: "Server") -> None:
        """A live migration of ``record`` completed."""

    def on_migration_aborted(self, record: "ActorRecord", source: "Server",
                             target: "Server", reason: str) -> None:
        """A started migration was abandoned mid-transfer.  ``reason`` is
        ``"actor-lost"`` (the actor died with its source server) or
        ``"target-crashed"`` (the destination died during the transfer;
        the actor stays on ``source``)."""

    def on_server_joined(self, server: "Server") -> None:
        """``server`` joined the fleet."""

    def on_server_retired(self, server: "Server") -> None:
        """``server`` is being retired; it is still in the fleet."""

    def on_server_crashed(self, server: "Server",
                          lost: "List[ActorRecord]") -> None:
        """``server`` failed.  ``lost`` holds the (now dead) directory
        records of every actor that was hosted there — consumers such as
        the elasticity runtime keep them as tombstones for resurrection."""

    def on_actor_resurrected(self, record: "ActorRecord") -> None:
        """An actor lost to a server crash was re-created (same ref,
        fresh state) on ``record.server``."""
