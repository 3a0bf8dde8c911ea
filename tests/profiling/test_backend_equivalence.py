"""The EMR really runs on the runtime's contract — and the goldens show it.

Every runtime call of :mod:`repro.core.emr` (clock and scheduling,
migrate / pin, the fleet verbs, install/uninstall, observation, hooks)
is a contract verb of :class:`repro.actors.base.ActorSystemBase`, which
:class:`~repro.actors.ActorSystem` implements directly.  What those
verbs must preserve is pinned by the committed digests in
``tests/golden``.  This file is the other half of that evidence,
non-vacuity: the same scenarios replayed with call counters wrapped
around the contract verbs on ``ActorSystem`` still match their committed
digests (so the counting itself perturbs nothing) *and* the counters
show the surface was exercised — a contract nobody calls would make the
digests pin nothing about it.
"""

import os
import sys
from contextlib import contextmanager

import pytest

from repro.actors import Actor, ActorSystem, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import spawn

# The scenario runners and digests live beside the golden test; make
# them importable even when only this file is collected.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "golden"))

import scenarios  # noqa: E402

GOLDEN = scenarios.load_digests()
#: A spread of four profiles; the full corpus replays in tests/golden.
CORPUS = sorted(name for name in GOLDEN if name.startswith("corpus/"))[:4]

COUNTED = ("schedule", "rng_stream", "start_migration", "pin", "install",
           "uninstall", "running_servers", "boot_server", "retire_server",
           "pending_boots", "actors_on",
           "mailbox_depth", "add_hooks", "remove_hooks")


def _counted(name, original, calls):
    def method(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)
    return method


@contextmanager
def counting():
    """Wrap the contract verbs on ``ActorSystem`` with proof-of-use
    counters; every system the scenario builders create sees them."""
    calls = {}
    own = {name: ActorSystem.__dict__.get(name) for name in COUNTED}
    for name in COUNTED:
        setattr(ActorSystem, name,
                _counted(name, getattr(ActorSystem, name), calls))
    try:
        yield calls
    finally:
        for name, original in own.items():
            if original is None:  # inherited from ActorSystemBase
                delattr(ActorSystem, name)
            else:
                setattr(ActorSystem, name, original)


def assert_surface_exercised(calls):
    # Every scenario runs an EMR, so the clock, the RNG stream, the
    # install wiring and the observation surface must have been hit;
    # mutation counts depend on the scenario.
    for name in ("schedule", "rng_stream", "install",
                 "running_servers", "actors_on", "add_hooks"):
        assert calls.get(name, 0) > 0, (name, calls)


def test_pagerank_trace_identical_behind_backend():
    with counting() as calls:
        observed = scenarios.digest("fig7-pagerank")
    assert observed == GOLDEN["fig7-pagerank"]
    assert_surface_exercised(calls)
    assert calls.get("start_migration", 0) > 0, calls
    assert calls.get("uninstall", 0) > 0, calls


def test_estore_trace_identical_behind_backend():
    with counting() as calls:
        observed = scenarios.digest("fig9-estore")
    assert observed == GOLDEN["fig9-estore"]
    assert_surface_exercised(calls)
    assert calls.get("start_migration", 0) > 0, calls


@pytest.mark.parametrize("name", CORPUS,
                         ids=[name.split("/", 1)[1] for name in CORPUS])
def test_corpus_replay_identical_behind_backend(name):
    with counting() as calls:
        observed = scenarios.digest(name)
    assert observed == GOLDEN[name]
    assert_surface_exercised(calls)


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)


def test_fleet_scaling_goes_through_the_backend():
    """Scale-out then scale-in: the GEM's boot/pending/retire calls and
    the manager's join wiring are contract verbs, not provisioner pokes."""
    with counting() as calls:
        bed = build_cluster(1, boot_delay_ms=1_000.0, max_servers=3)
        refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
                for _ in range(8)]
        policy = compile_source(
            "server.cpu.perc > 80 or server.cpu.perc < 60 "
            "=> balance({Spinner}, cpu);", [Spinner])
        manager = ElasticityManager(bed.system, policy, EmrConfig(
            period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
            max_scale_out_per_period=1, min_servers=1))
        manager.start()
        client = Client(bed.system)

        def loop(ref):
            while bed.sim.now < 40_000.0:
                yield client.call(ref, "spin", 60.0)

        for ref in refs:
            spawn(bed.sim, loop(ref))
        bed.run(until_ms=40_000.0)
        grown = bed.provisioner.fleet_size()
        bed.run(until_ms=150_000.0)  # idle tail: scale-in pressure
        manager.stop()
    assert grown > 1 and bed.provisioner.fleet_size() < grown
    # A LEM for every server that joined came through the listener.
    assert len(manager.lems) == bed.provisioner.fleet_size()
    for verb in ("boot_server", "pending_boots", "retire_server",
                 "start_migration", "uninstall"):
        assert calls.get(verb, 0) > 0, (verb, calls)
