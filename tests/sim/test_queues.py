"""Unit tests for the dispatch oracle's mailbox queue.

These pin the old mailbox queue's in-flight reclaim on ``clear``.  That
queue survives only as the dispatch oracle's ``OracleQueue``; the
callback mailbox's destroy is diffed against it in
``tests/actors/test_dispatch_differential.py``, so its semantics are
checked here.
"""

import os
import sys

from repro.sim import Simulator, spawn

# The oracle lives beside the dispatch differential; make it importable
# even when only this file is collected.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "actors"))

from dispatch_oracle import OracleQueue  # noqa: E402


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
