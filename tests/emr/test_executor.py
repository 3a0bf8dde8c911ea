"""The move executor: one set of guards for every issuer.

A LEM executes its own and its GEM's actions; the root tier executes
cross-group moves.  Both go through the same admission-checked path, so
each guard must refuse a move whichever tier issued it.  The action is
injected where each tier's planning hands over to execution: the LEM's
``resolve_actions`` and the root's ``arbitrate``.
"""

import pytest

import repro.core.emr.lem as lem_module
from repro.actors import Actor
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.emr import Action
from repro.core.emr.config import CONTROL_LATENCY_MS
from repro.core.emr.hierarchy import RootGem
from repro.core.emr.lem import LEM

PERIOD_MS = 5_000.0


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def _bed(**config):
    """Four idle servers in two groups of two and a resource rule that
    never fires (so LEMs report and leaves publish, but nothing is
    planned): every move is the injected one.  The mover sits on server
    0; a pinned anchor keeps server 2, the destination, from retiring
    when it drains."""
    bed = build_cluster(4, seed=7)
    mover = bed.system.create_actor(Spinner, server=bed.servers[0])
    anchor = bed.system.create_actor(Spinner, server=bed.servers[2])
    bed.system.pin(anchor)
    manager = ElasticityManager(
        bed.system, compile_source(
            "server.cpu.perc > 99 => balance({Spinner}, cpu);", [Spinner]),
        EmrConfig(period_ms=PERIOD_MS, gem_wait_ms=300.0,
                  lem_stagger_ms=10.0, server_group_size=2, **config))
    started = []
    manager.add_listener(lambda kind, detail: started.append(
        detail["issuer"]) if kind == "migration-started" else None)
    return bed, manager, mover, started


def _inject(monkeypatch, issuer, bed, manager, mover, on_inject=None):
    """Hand one balance move of ``mover`` onto server 2 to ``issuer``'s
    executor at its first round; returns the list it is recorded in."""
    injected = []

    def action():
        injected.append(bed.sim.now)
        if on_inject is not None:
            on_inject()
        return Action(kind="balance", actor=manager.resolve_ref_global(mover),
                      src=bed.servers[0], dst=bed.servers[2],
                      resource="cpu")

    if issuer == "lem":
        real = lem_module.resolve_actions
        monkeypatch.setattr(
            lem_module, "resolve_actions",
            lambda *lists: real(*lists) if injected else [action()])
    else:
        real = RootGem.arbitrate
        monkeypatch.setattr(
            RootGem, "arbitrate",
            lambda root, views: real(root, views) if injected
            else [action()])
    return injected


def _run(bed, manager):
    manager.start()
    bed.run(until_ms=4 * PERIOD_MS)


@pytest.mark.parametrize("issuer", ["lem", "root"])
def test_unguarded_move_starts(monkeypatch, issuer):
    bed, manager, mover, started = _bed()
    injected = _inject(monkeypatch, issuer, bed, manager, mover)
    _run(bed, manager)
    assert injected
    assert started == [issuer]
    assert bed.system.directory.lookup(mover.actor_id).server \
        is bed.servers[2]


def _partition_destination(bed, manager):
    ids = frozenset([bed.servers[2].server_id])
    token = bed.system.fabric.partition(ids, symmetric=True)
    manager.note_partition(token, ids, frozenset(), True)


@pytest.mark.parametrize("issuer", ["lem", "root"])
@pytest.mark.parametrize("guard", ["stability-window", "draining-destination",
                                   "quorumless-destination", "pinned-actor"])
def test_every_issuer_is_refused_by_the_same_guards(monkeypatch, issuer,
                                                    guard):
    config = {"stability_ms": 10 * PERIOD_MS} \
        if guard == "stability-window" else {}
    bed, manager, mover, started = _bed(**config)
    if guard == "draining-destination":
        manager.mark_draining(bed.servers[2])
    elif guard == "quorumless-destination":
        _partition_destination(bed, manager)
    elif guard == "pinned-actor":
        bed.system.pin(mover)
    injected = _inject(monkeypatch, issuer, bed, manager, mover)
    _run(bed, manager)
    assert injected
    assert started == []
    record = bed.system.directory.lookup(mover.actor_id)
    assert record.server is bed.servers[0] and not record.migrating


def test_superseded_root_stops_before_admission(monkeypatch):
    bed, manager, mover, started = _bed()
    queried = []
    real_check = LEM.check_idle_res
    monkeypatch.setattr(
        LEM, "check_idle_res",
        lambda lem, action: queried.append(action) or real_check(lem, action))

    reserved = []

    def supersede():
        # Promote a successor while the QUERY is on the wire, then look
        # at the target's reservations once the move would have been
        # admitted (they last until the target's next round).
        root = manager.hierarchy.root
        target = manager.lem_for(bed.servers[2])
        bed.sim.schedule(CONTROL_LATENCY_MS / 2, lambda: (
            root.fail(), manager.hierarchy.ensure_root()))
        bed.sim.schedule(5 * CONTROL_LATENCY_MS, lambda: reserved.append(
            dict(target._reserved_perc)))

    injected = _inject(monkeypatch, "root", bed, manager, mover,
                       on_inject=supersede)
    _run(bed, manager)
    assert injected and manager.hierarchy.root.generation == 1
    assert queried == [] and reserved == [{}] and started == []
    assert bed.system.directory.lookup(mover.actor_id).server \
        is bed.servers[0]
