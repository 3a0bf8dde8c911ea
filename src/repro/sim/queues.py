"""Blocking FIFO queues for simulation processes.

:class:`Queue` hands items from producer code to waiting processes:
``put`` never blocks (the queue is unbounded) while ``get`` returns a
waitable that resumes the caller with the next item.  Items are
delivered to getters in FIFO order on both sides.

A queue allocates its item buffer on first use: a queue whose getters
always wait for the next item owns no buffer at all.
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
        # One hop through the event queue keeps delivery asynchronous:
        # the getter resumes at the next step, never inside put().
        self._queue._sim.schedule(0.0, self._callback, item)


class Queue(Generic[T]):
    """Unbounded FIFO queue with blocking ``get``.

    >>> # inside a process generator:
    >>> # item = yield queue.get()
    """

    __slots__ = ("_sim", "_items", "_getters")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        # Allocated by the first put that finds no waiting getter.
        self._items: Optional[Deque[T]] = None
        # A plain list: an empty deque costs ~770 bytes against a list's
        # ~60, and no queue in the tree has more than a few dozen
        # waiters, so popping the oldest from the front stays cheap.
        self._getters: List[QueueGet[T]] = []

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
