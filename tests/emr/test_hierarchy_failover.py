"""Hierarchical control-plane failover under directed chaos.

``test_control_plane_differential.py`` proves the multi-group GEM tree
decides nothing *extra* in calm weather; this suite proves
it survives foul weather:

- **Root failover mid-migration** — the root dies at the exact moment
  one of its cross-group migrations starts.  The two-phase protocol
  must drive the orphaned migration to commit or rollback (no actor
  stays ``migrating``), a deterministic leaf must be promoted, and the
  promoted incarnation must rebuild a consistent per-group view — from
  re-published aggregates — within two report periods.
- **Leaf failover with group adoption** — a group that loses its only
  leaf is *adopted* by a surviving foreign leaf: LEM reports route to
  the adopter, the adopter publishes the group's aggregates, and a
  recovered home leaf reclaims the group.
- **Groupless emergency respawn** — when every leaf is dead the manager
  respawns a groupless GEM that serves the whole fleet through the
  ``pick_gem`` fallback but never publishes a group aggregate.

Every run keeps the invariant checker attached, so the failover trio
(``root-single-authority``, ``aggregate-consistency``,
``no-stranded-cross-group-migration``) polices each scenario.
"""

from repro.actors import Actor, Client
from repro.apps.estore import Partition, build_estore
from repro.bench import build_cluster
from repro.check import InvariantChecker
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import Timeout, spawn

#: Exercises the full aggregate/root-round pipeline without letting
#: either tier's planner decide anything (same rule as the differential
#: harness uses for its quiet-policy runs).
UNREACHABLE_RESERVE = """
server.cpu.perc > 99 and
client.call(Partition(p1).read).perc > 99 => reserve(p1, cpu);
"""

PERIOD_MS = 5_000.0


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def _run_packed(*, seed, servers, group_size, duration_ms, clients=12,
                on_event=None, suspicion_ms=None):
    """Deterministic packed-estore run on the hierarchical plane: every
    actor starts in group 0 with a low cross-group band, so the root
    tier must issue cross-group moves (the seed-41 shape the
    differential harness pins).  Returns events, manager, bed, checker.
    """
    bed = build_cluster(servers, "m1.small", seed=seed)
    setup = build_estore(bed, num_roots=8, children_per_root=2,
                         num_home_servers=1)
    policy = compile_source(UNREACHABLE_RESERVE, [Partition])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=PERIOD_MS, gem_wait_ms=300.0, lem_stagger_ms=10.0,
        server_group_size=group_size,
        cross_group_band=10.0, suspicion_timeout_ms=suspicion_ms))
    checker = InvariantChecker(manager)
    checker.attach()
    events = []

    def listen(kind, detail):
        events.append((bed.sim.now, kind, dict(detail)))
        if on_event is not None:
            on_event(kind, detail, manager)

    manager.add_listener(listen)
    manager.start()

    client_list = [Client(bed.system, name=f"c{i}")
                   for i in range(clients)]
    rng = bed.streams.stream("failover-key-pick")

    def loop(client):
        while bed.sim.now < duration_ms:
            root = setup.picker.pick()
            yield from client.timed_call(root, "read",
                                         rng.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for client in client_list:
        spawn(bed.sim, loop(client))
    bed.run(until_ms=duration_ms + 10_000.0)
    checker.final_check()
    return events, manager, bed, checker


def _events_of(events, kind):
    return [(time, detail) for time, k, detail in events if k == kind]


# ---------------------------------------------------------------------------
# Root failover mid-cross-group-migration (the acceptance scenario)
# ---------------------------------------------------------------------------

def test_kill_root_mid_cross_group_migration_commits_or_rolls_back():
    killed = []

    def kill_on_first_root_move(kind, detail, manager):
        if (kind == "migration-started" and detail.get("issuer") == "root"
                and not killed):
            killed.append(manager.system.sim.now)
            manager.hierarchy.root.fail()

    events, manager, bed, checker = _run_packed(
        seed=41, servers=4, group_size=2, duration_ms=40_000.0,
        on_event=kill_on_first_root_move)
    assert killed, "scenario produced no root-issued migration to orphan"
    assert not checker.violations, checker.report()

    # Commit-or-rollback: nothing is left mid-flight.  The invariant
    # checker enforces the timed bound during the run; at the end the
    # directory must hold no migrating record at all.
    for record in bed.system.directory.records():
        assert not record.migrating, f"{record.ref} stranded migrating"

    # A deterministic leaf was promoted exactly once for this failure.
    failovers = _events_of(events, "root-failover")
    assert len(failovers) == 1
    time_promoted, detail = failovers[0]
    assert detail["generation"] == 1
    assert detail["respawned"] is False
    assert detail["promoted_leaf"] == 0      # lowest-id alive leaf
    assert manager.hierarchy.root.generation == 1

    # The promoted incarnation is consistent — it held a round over
    # rebuilt (republished) views — within two report periods of the
    # kill.
    rounds = [(time, detail) for time, detail
              in _events_of(events, "root-round")
              if detail.get("generation") == 1]
    assert rounds, "promoted root never held a round"
    first_round_at, first_round = rounds[0]
    assert first_round_at - killed[0] <= 2 * PERIOD_MS
    assert len(first_round["groups"]) == 2   # full fleet view rebuilt


def test_root_failover_counter_reaches_run_summary():
    """The manager counts promotions; the fuzz result carries them (the
    CLI sums these into the campaign summary)."""
    from repro.fuzz import generate_scenario, run_scenario
    scenario = generate_scenario(4, profile="scale-chaos")
    assert any(f["fault"] == "kill-gem" for f in scenario.faults)
    result = run_scenario(scenario)
    assert result.ok, result.summary()
    assert result.leaf_failovers >= 0
    assert result.root_failovers >= 0


# ---------------------------------------------------------------------------
# Leaf failover: group adoption and release
# ---------------------------------------------------------------------------

def _small_tree(servers=4, group_size=2, suspicion_ms=6_000.0):
    bed = build_cluster(servers, seed=13)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=PERIOD_MS, gem_wait_ms=300.0,
        server_group_size=group_size,
        suspicion_timeout_ms=suspicion_ms))
    checker = InvariantChecker(manager)
    checker.attach()
    events = []
    manager.add_listener(
        lambda kind, detail: events.append((bed.sim.now, kind,
                                            dict(detail))))
    manager.start()
    return bed, manager, checker, events


def test_group_adoption_and_release_round_trip():
    bed, manager, checker, events = _small_tree()
    hierarchy = manager.hierarchy
    victim = manager.gems[1]            # group 1's only leaf
    assert hierarchy.leaf_group[victim.gem_id] == 1
    group1_server = next(
        s for s in bed.system.provisioner.servers
        if hierarchy.groups.group_of(s.server_id) == 1)

    victim.fail()
    bed.run(until_ms=8_000.0)           # detector tick + a full period

    adopted = _events_of(events, "group-adopted")
    assert adopted and adopted[0][1] == {
        "group": 1, "adopter": 0, "home_leaves": (1,)}
    assert manager.leaf_failovers == 1
    # LEM reports from the orphan group route to the adopter...
    assert manager.pick_gem(group1_server) is manager.gems[0]
    # ...which publishes the group's aggregate.
    foreign = [detail for time, detail
               in _events_of(events, "gem-aggregate")
               if detail["group"] == 1 and detail["gem_id"] == 0]
    assert foreign, "adopter never published the adopted group"

    victim.recover()
    bed.run(until_ms=16_000.0)

    released = _events_of(events, "group-adoption-released")
    assert released and released[0][1] == {
        "group": 1, "adopter": 0, "leaf": 1}
    assert hierarchy.adopter_for(1) is None
    assert manager.pick_gem(group1_server) is victim
    # The reclaiming home leaf publishes the group again.
    reclaimed = [detail for time, detail
                 in _events_of(events, "gem-aggregate")
                 if detail["group"] == 1 and detail["gem_id"] == 1
                 and time > released[0][0]]
    assert reclaimed
    assert not checker.violations, checker.report()


def test_dead_adopter_group_readopted_by_next_survivor():
    bed, manager, checker, events = _small_tree(servers=6, group_size=2)
    hierarchy = manager.hierarchy
    assert len(manager.gems) == 3
    manager.gems[1].fail()              # orphan group 1
    bed.run(until_ms=8_000.0)
    assert hierarchy._adopted == {1: 0}
    manager.gems[0].fail()              # the adopter dies too
    bed.run(until_ms=16_000.0)
    # Group 1 was re-adopted by the remaining leaf; group 0 (home of
    # the dead gem 0) was adopted as well.
    assert hierarchy._adopted == {0: 2, 1: 2}
    assert not checker.violations, checker.report()


# ---------------------------------------------------------------------------
# Groupless emergency respawn (pick_gem fallback, publish early-return)
# ---------------------------------------------------------------------------

def test_all_leaves_dead_falls_back_to_groupless_respawn():
    bed, manager, checker, events = _small_tree()
    hierarchy = manager.hierarchy
    for gem in list(manager.gems):
        gem.fail()
    bed.run(until_ms=8_000.0)

    # No adoption was possible (no alive foreign leaf); instead a
    # groupless replacement GEM was respawned.
    assert not _events_of(events, "group-adopted")
    respawned = [gem for gem in manager.gems if not gem.failed]
    assert len(respawned) == 1
    spare = respawned[0]
    assert hierarchy.leaf_group.get(spare.gem_id) is None

    # Every group's LEMs reach it through the pick_gem fallback.
    for server in bed.system.provisioner.servers:
        assert manager.pick_gem(server) is spare

    # And it never publishes a group aggregate — a "group" aggregate
    # from a GEM that may have heard from several groups at once would
    # be meaningless.
    before = len(_events_of(events, "gem-aggregate"))
    hierarchy.publish(spare, [], {})
    assert len(_events_of(events, "gem-aggregate")) == before
    assert not checker.violations, checker.report()


def test_group_view_pruned_on_dissolution():
    """When a group's last running member is gone, its root view and
    adoption entry are dropped — a stale cold view would attract
    cross-group migrations onto dead servers."""
    bed, manager, checker, events = _small_tree()
    hierarchy = manager.hierarchy
    bed.run(until_ms=7_000.0)           # at least one publish cycle
    assert 1 in hierarchy.root.views
    group1 = [s for s in bed.system.provisioner.servers
              if hierarchy.groups.group_of(s.server_id) == 1]
    for server in group1:
        bed.system.crash_server(server)
    assert 1 not in hierarchy.root.views
    assert 1 not in hierarchy._adopted
    # Group 0's view is untouched.
    assert 0 in hierarchy.root.views


def test_aggregate_in_flight_does_not_revive_a_dissolved_group():
    """An aggregate sent one control hop before its group's last server
    goes lands after the prune; the root drops it instead of restoring
    the dead group's view."""
    bed, manager, checker, events = _small_tree()
    hierarchy = manager.hierarchy
    bed.run(until_ms=7_000.0)
    leaf = hierarchy.leaves_of(1)[0]
    view = hierarchy.root.views[1]
    group1 = [s for s in bed.system.provisioner.servers
              if hierarchy.groups.group_of(s.server_id) == 1]
    hierarchy.publish(leaf, [view.least_loaded], {})
    for server in group1:
        bed.system.crash_server(server)
    received = hierarchy.root.aggregates_received
    bed.run(until_ms=bed.sim.now + 2.0)
    assert 1 not in hierarchy.root.views
    assert hierarchy.root.aggregates_received == received
