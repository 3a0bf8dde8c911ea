"""The per-message hook tables of :class:`ActorSystemBase`.

Every message and compute calls ``on_message_delivered``,
``on_bytes_received``, ``on_bytes_sent`` and ``on_compute``.  The system
keeps one table of bound methods per such hook, holding only the
subscribers whose class overrides it, rebuilt by ``add_hooks`` and
``remove_hooks``; ``hooks`` itself is a tuple, so nothing can bypass
them.
"""

import pytest

from repro.actors import Actor, Client, RuntimeHooks
from repro.bench import build_cluster
from repro.sim import spawn

HOT = ("on_message_delivered", "on_bytes_received", "on_bytes_sent",
       "on_compute")


class Caller(Actor):
    """Computes, then calls a peer (placed on another server)."""

    def __init__(self, peer=None):
        self.peer = peer

    def ask(self):
        yield self.compute(1.0)
        if self.peer is not None:
            yield self.call(self.peer, "ask")
        return True


class Log(RuntimeHooks):
    """Overrides every hot hook; logs (hook, actor id) in call order."""

    def __init__(self):
        self.events = []

    def on_message_delivered(self, record, message):
        self.events.append(("delivered", record.ref.actor_id))

    def on_bytes_received(self, record, nbytes):
        self.events.append(("received", record.ref.actor_id))

    def on_bytes_sent(self, record, nbytes):
        self.events.append(("sent", record.ref.actor_id))

    def on_compute(self, record, busy_ms):
        self.events.append(("compute", record.ref.actor_id))


class CrashOnly(RuntimeHooks):
    """Overrides no hot hook, like the elasticity manager's crash hook."""

    def on_server_crashed(self, server, lost):
        pass


def _bed():
    bed = build_cluster(2, seed=3)
    far = bed.system.create_actor(Caller, server=bed.servers[1])
    near = bed.system.create_actor(Caller, far, server=bed.servers[0])
    return bed, near


def _ask(bed, ref, count, start_ms):
    client = Client(bed.system)

    def loop():
        for _ in range(count):
            yield client.call(ref, "ask")

    bed.sim.schedule(start_ms, lambda: spawn(bed.sim, loop()))


def test_hooks_is_a_tuple_so_a_direct_append_fails():
    bed, _ = _bed()
    assert bed.system.hooks == ()
    with pytest.raises(AttributeError):
        bed.system.hooks.append(Log())


def test_subscribers_added_and_removed_after_start_are_seen_on_every_hook():
    bed, near = _bed()
    early, late = Log(), Log()
    bed.system.add_hooks(early)
    _ask(bed, near, 3, 0.0)
    bed.run(until_ms=1_000.0)
    bed.system.add_hooks(late)
    _ask(bed, near, 3, 0.0)
    bed.run(until_ms=2_000.0)
    bed.system.remove_hooks(early)
    seen_by_early = len(early.events)
    _ask(bed, near, 3, 0.0)
    bed.run(until_ms=3_000.0)

    for log in (early, late):
        assert {hook for hook, _ in log.events} == {
            "delivered", "received", "sent", "compute"}
    # The late subscriber saw the last two rounds, the early one only
    # the first two: each round is the same traffic.
    assert len(early.events) == seen_by_early
    assert len(late.events) == seen_by_early
    assert bed.system.hooks == (late,)
    for name in HOT:
        assert getattr(bed.system, "_" + name) == (getattr(late, name),)


def test_a_base_class_no_op_is_never_called(monkeypatch):
    called = []
    for name in HOT:
        monkeypatch.setattr(RuntimeHooks, name,
                            lambda self, *args, name=name: called.append(name))
    bed, near = _bed()
    quiet, log = CrashOnly(), Log()
    bed.system.add_hooks(quiet)
    bed.system.add_hooks(log)
    _ask(bed, near, 3, 0.0)
    bed.run(until_ms=1_000.0)
    assert called == []
    assert {hook for hook, _ in log.events} == {
        "delivered", "received", "sent", "compute"}
    for name in HOT:
        assert getattr(bed.system, "_" + name) == (getattr(log, name),)


def test_each_subscriber_sees_delivery_before_the_bytes_received():
    bed, near = _bed()
    logs = [Log(), Log()]
    for log in logs:
        bed.system.add_hooks(log)
    _ask(bed, near, 4, 0.0)
    bed.run(until_ms=1_000.0)
    for log in logs:
        arrivals = [event for event in log.events
                    if event[0] in ("delivered", "received")]
        received = [i for i, event in enumerate(arrivals)
                    if event[0] == "received"]
        assert received  # every call crosses to the far server
        for index in received:
            assert arrivals[index - 1] == ("delivered", arrivals[index][1])
    assert logs[0].events == logs[1].events
