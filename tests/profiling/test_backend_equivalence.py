"""The EMR really runs behind ``RuntimeBackend`` — and only there.

Every runtime call of :mod:`repro.core.emr` (clock and scheduling,
migrate / pin, the fleet verbs, install/uninstall, observation, hooks)
goes through :class:`repro.runtime.RuntimeBackend`; there is no path
around it left to compare against.  What the seam must preserve is
pinned by the committed digests in ``tests/golden`` (recorded through
``SimBackend``).  This file is the other half of that evidence,
non-vacuity: the same scenarios replayed behind a call-counting
``SimBackend`` subclass still match their committed digests (so the
counting itself perturbs nothing) *and* the counters show the surface
was exercised — a seam nobody calls would make the digests pin nothing
about it.

``ActorSystem`` looks ``SimBackend`` up on its module at construction
time, so patching ``repro.actors.system.SimBackend`` swaps the counting
subclass in for every system the scenario builders create.
"""

import os
import sys
from contextlib import contextmanager

import pytest

import repro.actors.system as system_module
from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.runtime import SimBackend
from repro.sim import spawn

# The scenario runners and digests live beside the golden test; make
# them importable even when only this file is collected.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "golden"))

import scenarios  # noqa: E402

GOLDEN = scenarios.load_digests()
#: A spread of four profiles; the full corpus replays in tests/golden.
CORPUS = sorted(name for name in GOLDEN if name.startswith("corpus/"))[:4]

COUNTED = ("schedule", "rng_stream", "migrate_actor", "pin", "install",
           "uninstall", "servers", "boot_server", "retire_server",
           "pending_boots", "add_join_listener", "actors_on",
           "mailbox_depth", "add_hooks", "remove_hooks")


def _counted(name, calls):
    original = getattr(SimBackend, name)

    def method(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)
    return method


@contextmanager
def counting():
    """Swap in the real SimBackend with proof-of-use counters."""
    calls = {}
    saved = system_module.SimBackend
    system_module.SimBackend = type(
        "CountingBackend", (SimBackend,),
        {name: _counted(name, calls) for name in COUNTED})
    try:
        yield calls
    finally:
        system_module.SimBackend = saved


def assert_surface_exercised(calls):
    # Every scenario runs an EMR, so the clock, the RNG stream, the
    # install/join wiring and the observation surface must have been
    # hit; mutation counts depend on the scenario.
    for name in ("schedule", "rng_stream", "install", "add_join_listener",
                 "servers", "actors_on", "add_hooks"):
        assert calls.get(name, 0) > 0, (name, calls)


def test_pagerank_trace_identical_behind_backend():
    with counting() as calls:
        observed = scenarios.digest("fig7-pagerank")
    assert observed == GOLDEN["fig7-pagerank"]
    assert_surface_exercised(calls)
    assert calls.get("migrate_actor", 0) > 0, calls
    assert calls.get("uninstall", 0) > 0, calls


def test_estore_trace_identical_behind_backend():
    with counting() as calls:
        observed = scenarios.digest("fig9-estore")
    assert observed == GOLDEN["fig9-estore"]
    assert_surface_exercised(calls)
    assert calls.get("migrate_actor", 0) > 0, calls


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
    the manager's join wiring are backend verbs, not provisioner pokes."""
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
                 "migrate_actor", "uninstall"):
        assert calls.get(verb, 0) > 0, (verb, calls)
