"""Unit tests for the blocking FIFO queue."""

import pytest

from repro.sim import Queue, Simulator, Timeout, spawn


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


def test_len_and_get_nowait():
    sim = Simulator()
    queue = Queue(sim)
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
    assert queue.get_nowait() == 1
    assert len(queue) == 1


def test_get_nowait_empty_raises():
    sim = Simulator()
    queue = Queue(sim)
    with pytest.raises(IndexError):
        queue.get_nowait()


def test_clear_returns_and_drops_items():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("a")
    queue.put("b")
    assert queue.clear() == ["a", "b"]
    assert len(queue) == 0


def test_peek_all_does_not_consume():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("a")
    assert queue.peek_all() == ["a"]
    assert len(queue) == 1


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


def test_clear_reclaims_inflight_delivery():
    """Regression: an item handed to a getter in the current timestamp
    (but not yet delivered — the zero-delay hop) must be reclaimed by
    ``clear()``, not delivered stale afterwards.

    The old implementation only dropped queued items: the destroy/clear
    +repopulate pattern used by ``destroy_actor`` could hand a waiting
    dispatcher an item that ``clear()`` claimed to have returned.
    """
    sim = Simulator()
    queue = Queue(sim)
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
    queue = Queue(sim)

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
    queue = Queue(sim)
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


def test_fresh_queue_behaves_empty():
    queue = Queue(Simulator())
    assert len(queue) == 0
    assert queue.peek_all() == []
    with pytest.raises(IndexError):
        queue.get_nowait()
    assert queue.clear() == []
    assert len(queue) == 0


def test_drained_queue_behaves_empty():
    queue = Queue(Simulator())
    queue.put("a")
    assert queue.get_nowait() == "a"
    with pytest.raises(IndexError):
        queue.get_nowait()
    queue.put("b")
    assert queue.clear() == ["b"]
    with pytest.raises(IndexError):
        queue.get_nowait()
    queue.put("c")
    assert queue.peek_all() == ["c"]


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
    assert queue._items is None and queue._inflight is None
