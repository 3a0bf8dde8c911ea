"""Data-plane overload protection: bounded mailboxes, shedding policies,
admission control, and the disposition ledger.

These tests install an :class:`OverloadManager` directly on an
``ActorSystem`` (no elasticity manager), the unit-level wiring the
config docstring promises, so every policy branch is pinned without a
whole EMR scenario.
"""

import pytest

from repro.actors import Actor, Client, Overloaded
from repro.bench import build_cluster
from repro.overload import (DISPOSITIONS, MAILBOX_POLICIES, OverloadConfig,
                            OverloadManager)
from repro.sim import Timeout, spawn


class Worker(Actor):
    def work(self, cpu_ms):
        yield self.compute(cpu_ms)
        return "done"

    def quick(self):
        yield self.compute(0.01)
        return "ok"


def _protect(bed, **kwargs):
    manager = OverloadManager(bed.system, OverloadConfig(**kwargs))
    bed.system.overload = manager
    return manager


def _flood(bed, client, ref, count, cpu_ms=50.0):
    """Issue ``count`` back-to-back calls; return their reply signals."""
    return [client.call(ref, "work", cpu_ms) for _ in range(count)]


# -- config validation -------------------------------------------------


def test_config_validation():
    assert set(MAILBOX_POLICIES) == {"block", "shed", "deadline"}
    with pytest.raises(ValueError):
        OverloadConfig(policy="drop-oldest")
    with pytest.raises(ValueError):
        OverloadConfig(mailbox_capacity=-1)
    with pytest.raises(ValueError):
        OverloadConfig(block_retry_ms=0.0)
    with pytest.raises(ValueError):
        OverloadConfig(admission_cpu_perc=150.0)
    with pytest.raises(ValueError):
        # Exit watermark must sit strictly below enter (hysteresis).
        OverloadConfig(brownout_enter_cpu_perc=60.0,
                       brownout_exit_cpu_perc=60.0)
    with pytest.raises(ValueError):
        OverloadConfig(brownout_stretch=0)


def test_dispositions_catalogue():
    assert len(set(DISPOSITIONS)) == len(DISPOSITIONS)
    assert "consumed" in DISPOSITIONS and "shed" in DISPOSITIONS


# -- shed policy -------------------------------------------------------


def test_shed_policy_bounds_mailbox_and_nacks_clients():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=4, policy="shed")
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)
    replies = []

    def body():
        signals = _flood(bed, client, ref, 12)
        for signal in signals:
            replies.append((yield signal))

    spawn(bed.sim, body())
    bed.run(until_ms=60_000.0)
    nacks = [r for r in replies if isinstance(r, Overloaded)]
    done = [r for r in replies if r == "done"]
    # One in flight + 4 queued can survive; the rest are shed-newest.
    assert len(done) == 5
    assert len(nacks) == 7
    assert all(nack.reason == "shed" for nack in nacks)
    assert overload.peak_mailbox_depth <= 4
    assert overload.total_shed() == 7
    assert overload.shed_by_actor == {ref.actor_id: 7}
    [(server_name, count)] = overload.shed_by_server.items()
    assert count == 7


def test_shed_conservation_ledger_balances():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=4, policy="shed")
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)

    def body():
        signals = _flood(bed, client, ref, 12)
        for signal in signals:
            yield signal

    spawn(bed.sim, body())
    bed.run(until_ms=60_000.0)
    balance = overload.ledger.as_dict()
    assert balance["issued"] == 12
    assert balance["consumed"] == 5
    assert balance["shed"] == 7
    assert balance["outstanding"] == 0
    assert overload.ledger.outstanding == 0
    assert overload.ledger.double_dispositions == []
    total = sum(balance[kind] for kind in DISPOSITIONS)
    assert balance["issued"] == total + balance["outstanding"]


# -- block policy ------------------------------------------------------


def test_block_policy_delivers_everything_late():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=2, policy="block",
                        block_retry_ms=1.0)
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)
    replies = []

    def body():
        signals = _flood(bed, client, ref, 10, cpu_ms=5.0)
        for signal in signals:
            replies.append((yield signal))

    spawn(bed.sim, body())
    bed.run(until_ms=60_000.0)
    # Backpressure defers delivery instead of dropping: all complete.
    assert replies == ["done"] * 10
    assert overload.total_shed() == 0
    assert overload.backpressure_waits > 0
    assert overload.peak_mailbox_depth <= 2
    balance = overload.ledger.as_dict()
    assert balance["consumed"] == 10 and balance["outstanding"] == 0


# -- deadline policy ---------------------------------------------------


def test_deadline_policy_drops_expired_on_arrival():
    bed = build_cluster(2)
    _protect(bed, mailbox_capacity=0, policy="deadline")
    overload = bed.system.overload
    ref = bed.system.create_actor(Worker, server=bed.servers[1])
    client = Client(bed.system)
    replies = []

    def body():
        # Deadline already in the past when the message arrives at the
        # remote mailbox (network latency > 0): dropped as waste.
        replies.append((yield client.call(ref, "work", 1.0,
                                          deadline_ms=bed.sim.now)))
        # Generous deadline: delivered normally.
        replies.append((yield client.call(ref, "work", 1.0,
                                          deadline_ms=bed.sim.now
                                          + 10_000.0)))

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    assert isinstance(replies[0], Overloaded)
    assert replies[0].reason == "deadline"
    assert replies[1] == "done"
    assert overload.ledger.counts["deadline"] == 1
    assert overload.ledger.counts["consumed"] == 1


def test_deadline_ignored_without_overload_manager():
    bed = build_cluster(2)
    ref = bed.system.create_actor(Worker, server=bed.servers[1])
    client = Client(bed.system)
    replies = []

    def body():
        replies.append((yield client.call(ref, "work", 1.0,
                                          deadline_ms=0.0)))

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    assert replies == ["done"]


# -- admission control -------------------------------------------------


def test_admission_queue_depth_rejects_clients():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=0,
                        admission_queue_depth=3)
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)
    replies = []

    def body():
        signals = _flood(bed, client, ref, 10)
        for signal in signals:
            replies.append((yield signal))

    spawn(bed.sim, body())
    bed.run(until_ms=60_000.0)
    rejected = [r for r in replies if isinstance(r, Overloaded)]
    assert len(rejected) == 6          # 1 in flight + 3 queued survive
    assert all(r.reason == "admission" for r in rejected)
    assert overload.ledger.counts["rejected"] == 6
    assert overload.total_shed() == 0  # rejected, not shed


def test_admission_spares_actor_to_actor_traffic():
    class Fanout(Actor):
        def fan(self, peer, n):
            for _ in range(n):
                yield self.call(peer, "quick")
            return "fanned"

    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=0, admission_queue_depth=1)
    peer = bed.system.create_actor(Worker)
    fan = bed.system.create_actor(Fanout)
    client = Client(bed.system)
    replies = []

    def body():
        # Sequential asks never queue more than one message, but the
        # point stands: actor-to-actor traffic bypasses admission.
        replies.append((yield client.call(fan, "fan", peer, 5)))

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    assert replies == ["fanned"]
    assert overload.ledger.counts["rejected"] == 0


def test_admission_cpu_threshold_rejects_under_load():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=0, admission_cpu_perc=50.0)
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)
    replies = []

    def body():
        # Saturate the server's CPU with a stream of short jobs (CPU
        # time is booked per completed job), then knock on the door once
        # the flood has filled the whole 1 s admission window.
        signals = _flood(bed, client, ref, 40, cpu_ms=50.0)
        yield Timeout(bed.sim, 1_400.0)
        replies.append((yield client.call(ref, "work", 1.0)))
        for signal in signals:
            yield signal

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    assert isinstance(replies[0], Overloaded)
    assert replies[0].reason == "admission"
    assert overload.ledger.counts["rejected"] == 1


# -- dispatch-time accounting ------------------------------------------


def test_destroy_actor_accounts_queued_messages():
    bed = build_cluster(1)
    overload = _protect(bed, mailbox_capacity=0)
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)

    def body():
        signals = _flood(bed, client, ref, 5, cpu_ms=1_000.0)
        yield Timeout(bed.sim, 1_500.0)
        # Two consumed by now (the second popped at ~1s); the three
        # still queued die with the actor.
        bed.system.destroy_actor(ref)
        for signal in signals:
            yield signal

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    balance = overload.ledger.as_dict()
    assert balance["issued"] == 5
    assert balance["outstanding"] == 0
    assert balance["consumed"] == 2
    assert balance["dead-target"] == 3
    assert overload.ledger.double_dispositions == []


def test_crash_server_accounts_queued_messages():
    bed = build_cluster(2)
    overload = _protect(bed, mailbox_capacity=0)
    ref = bed.system.create_actor(Worker, server=bed.servers[1])
    client = Client(bed.system)

    def body():
        signals = _flood(bed, client, ref, 5, cpu_ms=1_000.0)
        yield Timeout(bed.sim, 1_500.0)
        bed.system.crash_server(bed.servers[1])
        for signal in signals:
            yield signal

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    balance = overload.ledger.as_dict()
    assert balance["issued"] == 5
    assert balance["outstanding"] == 0
    assert balance["consumed"] == 2
    assert balance["crashed"] == 3
    assert overload.ledger.double_dispositions == []


def test_defaults_change_nothing_when_detached():
    """system.overload is None by default; plain runs stay plain."""
    bed = build_cluster(1)
    assert bed.system.overload is None
    ref = bed.system.create_actor(Worker)
    client = Client(bed.system)
    replies = []

    def body():
        for signal in _flood(bed, client, ref, 8, cpu_ms=1.0):
            replies.append((yield signal))

    spawn(bed.sim, body())
    bed.run(until_ms=30_000.0)
    assert replies == ["done"] * 8
