"""Unit tests for the blocking FIFO queue.

The ``clear`` tests at the end pin the old mailbox queue's in-flight
reclaim.  That queue survives only as the dispatch oracle's
``OracleQueue``; the callback mailbox's destroy is diffed against it in
``tests/actors/test_dispatch_differential.py``, so its semantics are
checked here.
"""

import os
import sys

from repro.sim import Queue, Simulator, Timeout, spawn

# The oracle lives beside the dispatch differential; make it importable
# even when only this file is collected.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "actors"))

from dispatch_oracle import OracleQueue  # noqa: E402


def test_put_then_get_returns_item():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("x")
    seen = []

    def body():
        item = yield queue.get()
        seen.append(item)

    spawn(sim, body())
    sim.run()
    assert seen == ["x"]


def test_get_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)
    seen = []

    def consumer():
        item = yield queue.get()
        seen.append((sim.now, item))

    spawn(sim, consumer())
    sim.schedule(9.0, queue.put, "late")
    sim.run()
    assert seen == [(9.0, "late")]


def test_fifo_order_for_items_and_getters():
    sim = Simulator()
    queue = Queue(sim)
    seen = []

    def consumer(name):
        item = yield queue.get()
        seen.append((name, item))

    spawn(sim, consumer("g1"))
    spawn(sim, consumer("g2"))
    sim.schedule(1.0, queue.put, "first")
    sim.schedule(2.0, queue.put, "second")
    sim.run()
    assert seen == [("g1", "first"), ("g2", "second")]


def test_len_counts_buffered_items():
    sim = Simulator()
    queue = Queue(sim)
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
    seen = []

    def consumer():
        seen.append((yield queue.get()))

    spawn(sim, consumer())
    sim.run()
    assert seen == [1] and len(queue) == 1


def test_producer_consumer_pipeline():
    sim = Simulator()
    queue = Queue(sim)
    consumed = []

    def producer():
        for index in range(5):
            yield Timeout(sim, 2.0)
            queue.put(index)

    def consumer():
        for _ in range(5):
            item = yield queue.get()
            consumed.append((sim.now, item))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert consumed == [(2.0, 0), (4.0, 1), (6.0, 2), (8.0, 3), (10.0, 4)]


def test_interrupted_getter_loses_no_items():
    sim = Simulator()
    queue = Queue(sim)
    seen = []

    def impatient():
        try:
            yield queue.get()
        except BaseException:
            pass

    def patient():
        item = yield queue.get()
        seen.append(item)

    proc = spawn(sim, impatient())
    spawn(sim, patient())
    sim.schedule(1.0, proc.interrupt)
    sim.schedule(2.0, queue.put, "only")
    sim.run()
    # The interrupted getter was unsubscribed; the patient one gets it.
    assert seen == ["only"]


# -- buffers allocated on first use -----------------------------------------


def _takes(sim, queue, count):
    """Spawn a consumer taking ``count`` items; returns what it took."""
    taken = []

    def consumer():
        for _ in range(count):
            taken.append((yield queue.get()))

    spawn(sim, consumer())
    return taken


def test_fresh_queue_behaves_empty():
    sim = Simulator()
    queue = Queue(sim)
    assert len(queue) == 0
    taken = _takes(sim, queue, 1)
    sim.run()
    assert taken == [] and len(queue) == 0  # the getter waits
    queue.put("a")
    sim.run()
    assert taken == ["a"] and len(queue) == 0


def test_drained_queue_behaves_empty():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("a")
    taken = _takes(sim, queue, 2)
    sim.run()
    assert taken == ["a"] and len(queue) == 0
    queue.put("b")
    queue.put("c")
    sim.run()
    assert taken == ["a", "b"] and len(queue) == 1


def test_fifo_order_over_many_waiting_getters():
    sim = Simulator()
    queue = Queue(sim)
    seen = []

    def consumer(name):
        item = yield queue.get()
        seen.append((name, item))

    names = [f"g{i}" for i in range(5)]
    for name in names:
        spawn(sim, consumer(name))

    def burst():
        for index in range(5):
            queue.put(index)

    sim.schedule(1.0, burst)
    sim.run()
    assert seen == list(zip(names, range(5)))


def test_mailbox_whose_getter_waits_buffers_nothing():
    sim = Simulator()
    queue = Queue(sim)

    def consumer():
        yield queue.get()

    spawn(sim, consumer())
    sim.run()
    assert queue._items is None


# -- the oracle mailbox's clear, with its in-flight reclaim --------------------


def test_clear_returns_and_drops_items():
    sim = Simulator()
    queue = OracleQueue(sim)
    queue.put("a")
    queue.put("b")
    assert queue.clear() == ["a", "b"]
    assert len(queue) == 0


def test_clear_reclaims_inflight_delivery():
    """An item handed to a getter in the current timestamp (but not yet
    delivered — the zero-delay hop) is reclaimed by ``clear()``, not
    delivered stale afterwards."""
    sim = Simulator()
    queue = OracleQueue(sim)
    seen = []
    cleared = []

    def consumer():
        while True:
            item = yield queue.get()
            seen.append((sim.now, item))

    spawn(sim, consumer())

    def put_then_clear():
        # The waiting getter is woken synchronously by put(), but the
        # item is still in flight when clear() runs a moment later in
        # the same timestamp.
        queue.put("stale")
        cleared.append(queue.clear())
        queue.put("fresh")

    sim.schedule(5.0, put_then_clear)
    sim.run()
    # clear() owns the in-flight item; the getter never observes it and
    # is re-registered in time to receive the next put.
    assert cleared == [["stale"]]
    assert seen == [(5.0, "fresh")]


def test_clear_orders_inflight_before_queued_items():
    sim = Simulator()
    queue = OracleQueue(sim)

    def consumer():
        yield queue.get()

    spawn(sim, consumer())
    collected = []

    def fill_then_clear():
        queue.put("inflight")   # woken getter, delivery pending
        queue.put("queued-1")   # no getters left: plain backlog
        queue.put("queued-2")
        collected.append(queue.clear())

    sim.schedule(1.0, fill_then_clear)
    sim.run()
    assert collected == [["inflight", "queued-1", "queued-2"]]
    assert len(queue) == 0


def test_clear_restores_reclaimed_getter_ahead_of_younger_waiters():
    sim = Simulator()
    queue = OracleQueue(sim)
    seen = []

    def consumer(name):
        item = yield queue.get()
        seen.append((name, item))

    spawn(sim, consumer("old"))
    spawn(sim, consumer("new"))  # younger waiter, behind "old"

    def scramble():
        queue.put("reclaimed")  # wakes "old"; delivery is in flight
        queue.clear()           # reclaims it; "old" goes back to the front
        queue.put("first")
        queue.put("second")

    sim.schedule(1.0, scramble)
    sim.run()
    assert seen == [("old", "first"), ("new", "second")]
