"""Server-group membership for the two-tier control plane.

A :class:`ServerGroupMap` partitions the fleet into contiguous groups by
join order: the first ``group_size`` servers form group 0, the next
``group_size`` group 1, and so on.  A server booted mid-run joins the
newest group with capacity, or opens a new group.  Membership is
single-authority by construction — a server belongs to exactly one group
for its whole life (crashed servers keep their slot so ids never
reshuffle), which is what the ``cross-group-single-authority`` invariant
re-derives from the event stream.

``group_size=None`` is the single-group tree: one group spans the whole
fleet regardless of later joins — the paper's flat control plane.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["ServerGroupMap"]


class ServerGroupMap:
    """Contiguous, join-order server grouping."""

    def __init__(self, group_size: Optional[int] = None) -> None:
        if group_size is not None and group_size < 1:
            raise ValueError("group_size must be positive (or None)")
        self.group_size = group_size
        self._group_of: Dict[int, int] = {}
        self._members: List[List[int]] = []

    def assign(self, server: "Server") -> int:
        """Add ``server`` to the newest group with capacity (opening a
        new group when full) and return its group id.  Idempotent."""
        server_id = server.server_id
        existing = self._group_of.get(server_id)
        if existing is not None:
            return existing
        if self._members and (
                self.group_size is None
                or len(self._members[-1]) < self.group_size):
            group = len(self._members) - 1
        else:
            group = len(self._members)
            self._members.append([])
        self._members[group].append(server_id)
        self._group_of[server_id] = group
        return group

    def group_of(self, server_id: int) -> Optional[int]:
        """Group owning ``server_id``, or ``None`` if never assigned."""
        return self._group_of.get(server_id)

    def members(self, group: int) -> List[int]:
        """Server ids assigned to ``group`` (join order, crashed
        included — membership never reshuffles)."""
        if 0 <= group < len(self._members):
            return list(self._members[group])
        return []

    def group_count(self) -> int:
        return len(self._members)

    def groups(self) -> Iterable[int]:
        return range(len(self._members))
