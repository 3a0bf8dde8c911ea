"""Backend-indirection equivalence: ``SimBackend`` is invisible.

The live-runtime work re-routed every EMR-side runtime call (migrate /
pin / actors_on / mailbox_depth / hooks / GEM scheduling) through the
:class:`repro.runtime.RuntimeBackend` surface.  That refactor is only
admissible if the sim backend behind the interface is *bit-identical*
to calling the ``ActorSystem`` directly.  Two layers of evidence:

1. the Fig. 7 / Fig. 9 equivalence scenarios re-run with (a) a bypass
   shim that binds the backend's methods straight to the system's bound
   methods — the pre-refactor call graph — and (b) the real
   ``SimBackend`` with call counting, must produce identical traces;
2. fuzz-corpus artifacts replayed under both shims must produce the
   same verdict fingerprint.

The counting run additionally proves the test is non-vacuous: the
backend surface must actually have been exercised (otherwise the
equality would be comparing two identical bypasses).

``ActorSystem`` looks ``SimBackend`` up on its module at construction
time, so patching ``repro.actors.system.SimBackend`` swaps the shim for
every system the scenario builders create.
"""

import glob
import os
import sys
from contextlib import contextmanager

import pytest

import repro.actors.system as system_module
from repro.cli import load_fuzz_scenario
from repro.fuzz import run_scenario
from repro.runtime import SimBackend

# The Fig. 7 / Fig. 9 runners live beside the golden digests; make them
# importable even when only this file is collected.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "golden"))

from scenarios import (result_fingerprint, run_estore_scenario,  # noqa: E402
                       run_pagerank_scenario)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fuzz",
                          "corpus")
#: ≥ 3 artifacts per the acceptance criteria; the full corpus runs in
#: tests/golden, so a spread of four profiles is enough here.
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))[:4]


class CountingBackend(SimBackend):
    """The real SimBackend, with proof-of-use counters."""

    calls = None  # installed by the fixture as a plain dict

    def _note(self, name):
        CountingBackend.calls[name] = CountingBackend.calls.get(name, 0) + 1

    def migrate_actor(self, ref, target, force=False):
        self._note("migrate_actor")
        return super().migrate_actor(ref, target, force=force)

    def pin(self, ref, pinned=True):
        self._note("pin")
        super().pin(ref, pinned)

    def actors_on(self, server):
        self._note("actors_on")
        return super().actors_on(server)

    def mailbox_depth(self, actor_id):
        self._note("mailbox_depth")
        return super().mailbox_depth(actor_id)

    def add_hooks(self, hooks):
        self._note("add_hooks")
        super().add_hooks(hooks)

    def schedule(self, delay_ms, callback, *args):
        self._note("schedule")
        super().schedule(delay_ms, callback, *args)


class BypassBackend:
    """Pre-refactor call graph: every method IS the system's bound
    method — zero indirection, the reference the interface must match."""

    name = "bypass"
    wall_clock = False

    def __init__(self, system):
        self.system = system
        self.migrate_actor = system.migrate_actor
        self.pin = system.pin
        self.actors_on = system.actors_on
        self.mailbox_depth = system.mailbox_depth
        self.server_of = system.server_of
        self.resurrect_actor = system.resurrect_actor
        self.create_actor = system.create_actor
        self.add_hooks = system.add_hooks
        self.remove_hooks = system.remove_hooks
        self.schedule = system.sim.schedule

    @property
    def now(self):
        return self.system.sim.now

    def spawn(self, proc, name=None):
        from repro.sim import spawn as sim_spawn
        return sim_spawn(self.system.sim, proc, name=name)

    def servers(self):
        return self.system.provisioner.servers


@contextmanager
def backend_shim(cls):
    saved = system_module.SimBackend
    system_module.SimBackend = cls
    try:
        yield
    finally:
        system_module.SimBackend = saved


@contextmanager
def counting():
    CountingBackend.calls = {}
    with backend_shim(CountingBackend):
        yield CountingBackend.calls


def assert_surface_exercised(calls):
    # Every scenario runs an EMR, so the observation surface must have
    # been hit; mutation counts depend on the scenario and aren't
    # asserted here.
    assert calls.get("actors_on", 0) > 0, calls
    assert calls.get("add_hooks", 0) > 0, calls


def test_pagerank_trace_identical_behind_backend():
    with backend_shim(BypassBackend):
        reference = run_pagerank_scenario()
    with counting() as calls:
        observed = run_pagerank_scenario()
    assert observed == reference
    assert reference[2], "scenario produced no migrations"
    assert_surface_exercised(calls)
    assert calls.get("migrate_actor", 0) > 0, calls


def test_estore_trace_identical_behind_backend():
    with backend_shim(BypassBackend):
        reference = run_estore_scenario()
    with counting() as calls:
        observed = run_estore_scenario()
    assert observed == reference
    assert reference[2], "scenario produced no migrations"
    assert_surface_exercised(calls)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p)[:-5] for p in CORPUS])
def test_corpus_replay_identical_behind_backend(path):
    scenario = load_fuzz_scenario(path)
    with backend_shim(BypassBackend):
        reference = run_scenario(scenario)
    with counting() as calls:
        observed = run_scenario(scenario)
    assert result_fingerprint(observed) == result_fingerprint(reference)
    assert reference.ok, reference.summary()
    assert observed.ok, observed.summary()
    assert_surface_exercised(calls)
