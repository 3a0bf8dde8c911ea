"""Blocking FIFO queues for simulation processes.

:class:`Queue` is the mailbox primitive used throughout the actor runtime:
``put`` never blocks (mailboxes are unbounded, as in AEON/Orleans) while
``get`` returns a waitable that resumes the caller with the next item.
Items are delivered to getters in FIFO order on both sides.

A queue allocates its item and in-flight buffers on first use: the
mailbox of an actor that is never messaged owns no buffer at all, only
the list holding its dispatcher's pending ``get``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generic, List, Optional, TypeVar

from .engine import Simulator
from .process import Waitable

__all__ = ["Queue", "QueueGet"]

T = TypeVar("T")


def _ignore(value: Any) -> None:
    """Callback of a getter nobody has subscribed to yet."""


class QueueGet(Waitable, Generic[T]):
    """Waitable returned by :meth:`Queue.get`."""

    __slots__ = ("_queue", "_callback")

    def __init__(self, queue: "Queue[T]") -> None:
        self._queue = queue
        self._callback: Callable[[Any], None] = _ignore

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        self._callback = callback
        self._queue._register_getter(self)

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        self._queue._drop_getter(self)

    def _deliver(self, item: T) -> None:
        # The hop through the event queue keeps delivery asynchronous, but
        # it also means the item is in flight for the rest of the current
        # timestamp.  Track each delivery on the queue so Queue.clear()
        # can reclaim it instead of handing a getter a stale item.  The
        # cancel flag lives on the per-delivery entry, not the getter: a
        # reclaimed getter can be re-delivered in the same timestamp,
        # while the cancelled fire is still pending.
        entry = [self, item, False]  # [getter, item, cancelled]
        queue = self._queue
        inflight = queue._inflight
        if inflight is None:
            inflight = queue._inflight = deque()
        inflight.append(entry)
        queue._sim.schedule(0.0, self._fire, entry)

    def _fire(self, entry: list) -> None:
        if entry[2]:
            return  # reclaimed by Queue.clear()
        # Live deliveries fire in FIFO order (zero-delay events scheduled
        # in append order) and clear() removes reclaimed entries, so this
        # entry is the deque head.
        self._queue._inflight.popleft()
        self._callback(entry[1])


class Queue(Generic[T]):
    """Unbounded FIFO queue with blocking ``get``.

    >>> # inside a process generator:
    >>> # item = yield queue.get()
    """

    __slots__ = ("_sim", "_items", "_getters", "_inflight")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        # Allocated by the first put that finds no waiting getter.
        self._items: Optional[Deque[T]] = None
        # A plain list: an empty deque costs ~770 bytes against a list's
        # ~60, and no queue in the tree has more than a few dozen waiters
        # (a mailbox has its dispatcher, a run queue one per vCPU), so
        # popping the oldest from the front stays cheap.
        self._getters: List[QueueGet[T]] = []
        # Deliveries handed to a getter but not yet fired (the zero-delay
        # hop in QueueGet._deliver), allocated by the first delivery.
        # clear() reclaims these.
        self._inflight: Optional[Deque[list]] = None

    def __len__(self) -> int:
        items = self._items
        return len(items) if items is not None else 0

    def put(self, item: T) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        getters = self._getters
        if getters:
            getters.pop(0)._deliver(item)
            return
        items = self._items
        if items is None:
            items = self._items = deque()
        items.append(item)

    def get(self) -> QueueGet[T]:
        """Return a waitable that resumes with the next item."""
        return QueueGet(self)

    def get_nowait(self) -> T:
        """Dequeue immediately; raises :class:`IndexError` when empty."""
        items = self._items
        if not items:
            raise IndexError("get_nowait() on an empty queue")
        return items.popleft()

    def peek_all(self) -> List[T]:
        """Snapshot of queued items without consuming them."""
        items = self._items
        return list(items) if items is not None else []

    def clear(self) -> List[T]:
        """Drop and return all queued *and in-flight* items (used when
        draining mailboxes during actor migration).

        An item handed to a getter in the current timestamp but not yet
        delivered is reclaimed: its scheduled delivery is cancelled and
        the getter goes back to waiting, ahead of any younger waiters, so
        a getter subscribed before ``clear()`` never observes a stale
        item afterward.
        """
        inflight = self._inflight
        items: List[T] = []
        if inflight:
            getters = []
            while inflight:
                entry = inflight.popleft()
                entry[2] = True  # the pending _fire becomes a no-op
                getters.append(entry[0])
                items.append(entry[1])
            # Reclaimed getters were dequeued before anyone currently in
            # _getters arrived; restore them at the front, oldest first.
            self._getters[:0] = getters
        if self._items is not None:
            # Kept, not dropped: a cleared mailbox is put its _STOP next,
            # and a free-then-reallocate per destroyed busy actor raised
            # the churn-heavy chaos runs' peak RSS.
            items.extend(self._items)
            self._items.clear()
        return items

    # -- plumbing for QueueGet --------------------------------------------

    def _register_getter(self, getter: QueueGet[T]) -> None:
        if self._items:
            getter._deliver(self._items.popleft())
        else:
            self._getters.append(getter)

    def _drop_getter(self, getter: QueueGet[T]) -> None:
        try:
            self._getters.remove(getter)
        except ValueError:
            pass
