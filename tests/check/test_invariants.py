"""Invariant checker unit tests.

A small real cluster hosts the checker; violations are then provoked by
emitting fabricated manager-bus events (the checker cannot tell them
from real ones), so each detection path is pinned without needing a
whole scenario that actually misbehaves.
"""

import pytest

from repro.actors import Actor
from repro.actors.system import MIGRATION_PHASE_TIMEOUT_MS
from repro.bench import build_cluster
from repro.check import INVARIANTS, InvariantChecker, Violation
from repro.check import checker as checker_module
from repro.check.invariants import InvariantError
from repro.core import ElasticityManager, EmrConfig, compile_source


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def make_checker(strict=False, **config):
    bed = build_cluster(2, seed=7)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(
        bed.system, policy,
        EmrConfig(period_ms=5_000.0, gem_wait_ms=300.0, **config))
    checker = InvariantChecker(manager, strict=strict)
    checker.attach()
    return bed, manager, checker


# -- catalogue ---------------------------------------------------------


def test_catalogue_shape():
    assert len(INVARIANTS) == 24
    for name, description in INVARIANTS.items():
        assert name == name.lower()
        assert " " not in name
        assert len(description) > 20, f"{name}: describe it properly"


def test_catalogue_is_documented():
    """docs/testing.md must describe every invariant by name."""
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "docs", "testing.md")
    with open(path) as handle:
        text = handle.read()
    for name in INVARIANTS:
        assert f"`{name}`" in text, f"{name} missing from docs/testing.md"


def test_violation_formatting():
    violation = Violation(invariant="single-flight", time_ms=1_234.5,
                          message="two migrations of actor 7")
    assert "1.234s" in str(violation) or "1.235s" in str(violation)
    assert "single-flight" in str(violation)


def test_violate_rejects_unknown_invariant():
    _bed, _manager, checker = make_checker()
    with pytest.raises(AssertionError):
        checker._violate("not-an-invariant", "whatever")


# -- detection paths (fabricated events) -------------------------------


def test_gem_vote_mismatch_detected():
    _bed, manager, checker = make_checker()
    manager.emit("gem-vote", requester=0, direction="overloaded",
                 peer_views=((1, 0.0, 3, True), (2, 0.0, 3, True)),
                 agreeing=0, decision=True)
    names = [v.invariant for v in checker.violations]
    assert names == ["scale-out-majority"]


def test_scale_without_vote_detected():
    _bed, manager, checker = make_checker()
    manager.emit("scale-in", gem_id=0, victim="x",
                 underload_fraction=1.0, planned_moves=0)
    assert [v.invariant for v in checker.violations] == \
        ["scale-in-majority"]


def test_lem_round_bad_percentages_detected():
    _bed, manager, checker = make_checker()
    manager.emit("lem-round", server="s-1", server_cpu_perc=120.0,
                 server_mem_perc=1.0, server_net_perc=0.0,
                 actor_count=1, actor_mem_mb=2.0,
                 server_mem_used_mb=2.0, memory_mb=1024,
                 actor_cpu_percs=(130.0,))
    names = [v.invariant for v in checker.violations]
    assert names == ["resource-accounting", "resource-accounting"]


def test_lem_round_memory_identity_detected():
    _bed, manager, checker = make_checker()
    manager.emit("lem-round", server="s-1", server_cpu_perc=10.0,
                 server_mem_perc=1.0, server_net_perc=0.0,
                 actor_count=1, actor_mem_mb=2.0,
                 server_mem_used_mb=6.0, memory_mb=1024,
                 actor_cpu_percs=(5.0,))
    assert [v.invariant for v in checker.violations] == \
        ["resource-accounting"]


def test_root_round_while_root_failed_detected():
    _bed, manager, checker = make_checker()
    manager.emit("fault-injected", fault="kill-root", generation=0)
    manager.emit("root-round", generation=0, groups=())
    assert [v.invariant for v in checker.violations] == \
        ["root-single-authority"]


def test_superseded_root_holding_rounds_detected():
    _bed, manager, checker = make_checker()
    manager.emit("root-failover", generation=2, promoted_leaf=0,
                 respawned=False)
    manager.emit("root-round", generation=1, groups=())
    assert [v.invariant for v in checker.violations] == \
        ["root-single-authority"]


def test_root_failover_generation_regression_detected():
    _bed, manager, checker = make_checker()
    manager.emit("root-failover", generation=3, promoted_leaf=0,
                 respawned=False)
    manager.emit("root-failover", generation=3, promoted_leaf=1,
                 respawned=False)
    assert [v.invariant for v in checker.violations] == \
        ["root-single-authority"]


def test_stranded_root_migration_detected():
    bed, manager, checker = make_checker()
    manager.emit("migration-started", actor="<Spinner#9>", actor_id=9,
                 action="balance", src="s-1", dst="s-2", issuer="root")
    assert not checker.violations
    bound = (3 * MIGRATION_PHASE_TIMEOUT_MS
             + 2 * manager.config.period_ms)
    bed.run(until_ms=bound + 1_000.0)
    checker._check_stranded_root_migrations()
    assert [v.invariant for v in checker.violations] == \
        ["no-stranded-cross-group-migration"]
    # One report per stranded migration, not one per sweep.
    checker._check_stranded_root_migrations()
    assert len(checker.violations) == 1


def test_resolved_root_migration_not_stranded():
    from types import SimpleNamespace
    bed, manager, checker = make_checker()
    manager.emit("migration-started", actor="<Spinner#9>", actor_id=9,
                 action="balance", src="s-1", dst="s-2", issuer="root")
    # Aborts arrive through the runtime hook, not the event bus.
    record = SimpleNamespace(ref=SimpleNamespace(actor_id=9))
    checker.on_migration_aborted(record, None, None, "timeout")
    bound = (3 * MIGRATION_PHASE_TIMEOUT_MS
             + 2 * manager.config.period_ms)
    bed.run(until_ms=bound + 1_000.0)
    checker._check_stranded_root_migrations()
    assert not checker.violations


def test_sweep_audits_the_placement_index_without_counting_a_check():
    bed, _manager, checker = make_checker()
    here, there = bed.servers
    ref = bed.system.create_actor(Spinner, server=here)
    bed.system.create_actor(Spinner, server=there)
    checker._sweep()
    assert not checker.violations
    checks = checker.checks_run
    # A placement written behind Directory.place's back: the records
    # say ``there``, the index still says ``here``.
    bed.system.directory.lookup(ref.actor_id).server = there
    checker._sweep()
    assert checker.checks_run == checks + 1      # the sweep's own, no more
    flagged = [v for v in checker.violations
               if v.invariant == "placement-consistency"]
    assert {v.detail["server"] for v in flagged} == {here.name, there.name}


def test_strict_mode_raises_invariant_error():
    _bed, manager, _checker = make_checker(strict=True)
    with pytest.raises(InvariantError, match="scale-in-majority"):
        manager.emit("scale-in", gem_id=0, victim="x",
                     underload_fraction=1.0, planned_moves=0)


def test_violation_cap(monkeypatch):
    _bed, manager, checker = make_checker()
    monkeypatch.setattr(checker_module, "MAX_VIOLATIONS", 3)
    for _ in range(10):
        manager.emit("scale-in", gem_id=0, victim="x",
                     underload_fraction=1.0, planned_moves=0)
    assert len(checker.violations) == 3 and checker.dropped == 7


def test_reattached_checker_sweeps_once_per_interval():
    bed, _manager, checker = make_checker()
    interval = checker.sweep_interval_ms
    sweeps = []
    checker._sweep = lambda: sweeps.append(bed.sim.now)
    bed.run(until_ms=interval * 1.5)
    assert sweeps == [interval]
    # Detach and attach again before the armed sweep is due: the old
    # arming lapses, and only the new one keeps its period.
    checker.detach()
    checker.attach()
    bed.run(until_ms=interval * 5.2)
    start = interval * 1.5
    assert sweeps == [interval] + [start + k * interval for k in (1, 2, 3)]
    checker.detach()
    bed.run(until_ms=interval * 8.0)
    assert len(sweeps) == 4


def test_subscribers_are_their_own_hooks_in_start_order():
    from repro.core import ElasticityTracer
    from repro.durability import DurabilityConfig
    bed = build_cluster(2, seed=7)
    policy = compile_source("server.cpu.perc > 80 => balance({Spinner}, "
                            "cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, durability=DurabilityConfig()))
    manager.start()
    tracer = ElasticityTracer(manager)
    tracer.attach()
    checker = InvariantChecker(manager, tracer=tracer)
    checker.attach()
    assert bed.system.hooks == (manager.profiler, manager,
                                manager.durability, tracer, checker)


def test_detach_restores_quiet_manager():
    _bed, manager, checker = make_checker()
    assert manager.debug_events
    checker.detach()
    assert not manager.debug_events
    manager.emit("scale-in", gem_id=0, victim="x",
                 underload_fraction=1.0, planned_moves=0)
    assert checker.violations == []


# -- partition-era invariants (fabricated events) -----------------------


def test_unreachable_peer_does_not_count_as_agreeing():
    _bed, manager, checker = make_checker()
    manager.emit("gem-vote", requester=0, direction="overloaded",
                 peer_views=((1, 1.0, 3, False), (2, 0.0, 3, True)),
                 agreeing=0, decision=True)
    assert [v.invariant for v in checker.violations] == \
        ["scale-out-majority"]


def test_vetoed_vote_must_be_a_denial():
    _bed, manager, checker = make_checker()
    manager.emit("gem-vote", requester=0, direction="overloaded",
                 peer_views=(), agreeing=0, decision=True,
                 vetoed="degraded")
    assert [v.invariant for v in checker.violations] == \
        ["scale-out-majority"]


def test_degraded_gem_vote_and_scale_detected():
    _bed, manager, checker = make_checker()
    manager.emit("gem-degraded", gem_id=0, epoch=0)
    manager.emit("gem-vote", requester=0, direction="overloaded",
                 peer_views=(), agreeing=0, decision=True)
    manager.emit("scale-out", gem_id=0, overload_fraction=1.0)
    names = [v.invariant for v in checker.violations]
    assert "no-split-brain" in names
    assert names.count("no-split-brain") == 2  # vote + execution
    manager.emit("gem-restored", gem_id=0, epoch=0)
    manager.emit("gem-vote", requester=0, direction="overloaded",
                 peer_views=(), agreeing=0, decision=True)
    assert [v.invariant for v in checker.violations].count(
        "no-split-brain") == 2


def test_epoch_regression_detected():
    _bed, manager, checker = make_checker()
    manager.epoch = 5
    manager.emit("epoch-advanced", epoch=5, reason="partition")
    assert checker.violations == []
    manager.emit("epoch-advanced", epoch=4, reason="heal")
    assert [v.invariant for v in checker.violations] == \
        ["epoch-monotonicity"]


def test_event_epoch_beyond_global_detected():
    _bed, manager, checker = make_checker()
    manager.emit("gem-degraded", gem_id=0, epoch=7)
    assert [v.invariant for v in checker.violations] == \
        ["epoch-monotonicity"]


def test_bogus_stale_rejection_detected():
    _bed, manager, checker = make_checker()
    manager.emit("stale-epoch-rejected", server="s-0", gem_id=0,
                 lem_epoch=1, gem_epoch=1)
    assert [v.invariant for v in checker.violations] == \
        ["epoch-monotonicity"]


def test_post_heal_revenant_detected():
    bed, manager, checker = make_checker()
    ref = bed.system.create_actor(Spinner)
    # Pretend the checker saw this actor lost to a crash; a live
    # directory record for it after heal means it exists twice.
    checker._lost[ref.actor_id] = "Spinner"
    manager.emit("partition-healed", epoch=0, readmitted=(),
                 actors_minority_side=0, actors_total=1,
                 stale_view_records=0)
    assert "no-duplicate-actor" in \
        [v.invariant for v in checker.violations]


# -- real-run smoke -----------------------------------------------------


def test_healthy_run_has_no_violations():
    from repro.actors import Client
    from repro.sim import spawn
    bed, manager, checker = make_checker()
    refs = [bed.system.create_actor(Spinner) for _ in range(4)]
    manager.start()
    client = Client(bed.system)
    rng = bed.streams.stream("load")

    def loop(ref):
        while bed.sim.now < 12_000.0:
            yield client.call(ref, "spin", 5.0 + rng.random() * 10.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=12_000.0)
    assert checker.final_check() == []
    assert checker.checks_run > 0
