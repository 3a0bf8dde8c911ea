"""Deeper messaging semantics: ordering, latency model, payload sizes."""

import pytest

from repro.actors import Actor, ActorSystem, Client, Message, RuntimeHooks
from repro.cluster import NetworkFabric, Provisioner
from repro.sim import Simulator, Timeout, spawn


class Recorder(Actor):
    def __init__(self):
        self.seen = []

    def note(self, tag):
        self.seen.append((self._system.sim.now, tag))
        return tag


class Pair(Actor):
    def __init__(self, peer=None):
        self.peer = peer

    def chain(self, depth):
        if depth <= 0 or self.peer is None:
            return 0
        result = yield self.call(self.peer, "chain_back", depth - 1)
        return result + 1

    def chain_back(self, depth):
        yield self.compute(0.1)
        return depth


def make_system(servers=2, remote_rtt_ms=2.0):
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    for _ in range(servers):
        prov.boot_server(immediate=True)
    sim.run()
    fabric = NetworkFabric(sim, remote_rtt_ms=remote_rtt_ms)
    return sim, ActorSystem(sim, prov, fabric=fabric)


def test_sender_order_preserved_for_one_target():
    sim, system = make_system(1)
    ref = system.create_actor(Recorder)
    client = Client(system)
    for tag in ("a", "b", "c", "d"):
        client.call(ref, "note", tag)
    sim.run(until=1_000.0)
    instance = system.actor_instance(ref)
    assert [tag for _t, tag in instance.seen] == ["a", "b", "c", "d"]


def test_local_call_cheaper_than_remote():
    sim, system = make_system(2)
    server = system.provisioner.servers[0]
    target = system.create_actor(Pair, server=server)
    local_caller = system.create_actor(Pair, target, server=server)
    remote_caller = system.create_actor(
        Pair, target, server=system.provisioner.servers[1])
    client = Client(system)
    latencies = {}

    def measure(name, caller):
        started = sim.now
        yield client.call(caller, "chain", 1)
        latencies[name] = sim.now - started

    def driver():
        yield from measure("local", local_caller)
        yield from measure("remote", remote_caller)

    spawn(sim, driver())
    sim.run(until=10_000.0)
    # The remote chain pays at least one extra RTT each way.
    assert latencies["remote"] > latencies["local"] + 1.5


def test_payload_size_increases_latency():
    sim, system = make_system(1)
    ref = system.create_actor(Recorder)
    client = Client(system)
    times = {}

    def driver():
        started = sim.now
        yield system.client_call(ref, "note", "small", size_bytes=100.0)
        times["small"] = sim.now - started
        started = sim.now
        yield system.client_call(ref, "note", "big",
                                 size_bytes=5_000_000.0)
        times["big"] = sim.now - started

    spawn(sim, driver())
    sim.run(until=60_000.0)
    assert times["big"] > times["small"]


def test_nested_call_depth():
    sim, system = make_system(2)
    a = system.create_actor(Pair, server=system.provisioner.servers[0])
    b = system.create_actor(Pair, a, server=system.provisioner.servers[1])
    # a's peer is b, b's peer is a: set a's peer after creation.
    system.actor_instance(a).peer = b
    client = Client(system)
    results = []

    def driver():
        value = yield client.call(b, "chain", 1)
        results.append(value)

    spawn(sim, driver())
    sim.run(until=10_000.0)
    assert results == [1]


def test_message_hooks_see_caller_kind():
    sim, system = make_system(1)
    recorder = system.create_actor(Recorder)
    peer = system.create_actor(Pair)
    caller = system.create_actor(Pair, peer)
    seen = []

    class Spy(RuntimeHooks):
        def on_message_delivered(self, record, message):
            seen.append((record.ref.type_name, message.caller_kind,
                         message.function))

    system.add_hooks(Spy())
    client = Client(system)

    def driver():
        yield client.call(recorder, "note", "direct")
        yield client.call(caller, "chain", 1)

    spawn(sim, driver())
    sim.run(until=10_000.0)
    assert ("Recorder", "client", "note") in seen
    assert ("Pair", "client", "chain") in seen
    # The nested hop is actor-to-actor: caller kind is the actor type.
    assert ("Pair", "Pair", "chain_back") in seen


def test_remove_hooks():
    sim, system = make_system(1)
    spy_calls = []

    class Spy(RuntimeHooks):
        def on_actor_created(self, record):
            spy_calls.append(record.ref.actor_id)

    spy = Spy()
    system.add_hooks(spy)
    system.create_actor(Recorder)
    system.remove_hooks(spy)
    system.remove_hooks(spy)  # no longer subscribed: a no-op
    system.create_actor(Recorder)
    assert len(spy_calls) == 1


def test_client_latency_stats():
    sim, system = make_system(1)
    ref = system.create_actor(Recorder)
    client = Client(system)

    def driver():
        for index in range(5):
            yield from client.timed_call(ref, "note", index)

    spawn(sim, driver())
    sim.run(until=10_000.0)
    assert client.completed == 5
    assert client.failed == 0
    assert len(client.latency_samples()) == 5
    assert client.mean_latency() > 0
