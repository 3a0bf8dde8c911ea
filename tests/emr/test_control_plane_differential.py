"""One-group vs multi-group control-plane differential harness.

The control plane is always a GEM tree; ``server_group_size=None`` makes
it one group, which *is* the paper's flat plane (those runs are pinned
to committed digests by ``tests/golden/test_golden.py``).  This harness
covers what a digest cannot: a *real* multi-group tree must decide
nothing the one-group plane would not.

1. **Multi-group decision equivalence** — property-based: on workloads
   with no cross-group pressure, a multi-group tree must reach exactly
   the decisions the one-group plane reaches (hypothesis-driven).
2. **Directed cross-group pressure** — a cross-group hot-spot must make
   the root tier — and only the root tier — migrate across groups.
"""

import pytest

from repro.actors import Client
from repro.apps.estore import Partition, build_estore
from repro.bench import build_cluster
from repro.check import InvariantChecker
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.fuzz.runner import _reset_id_counters
from repro.sim import Timeout, spawn


# ---------------------------------------------------------------------------
# 1. Multi-group decision equivalence (real tree, no cross-group pressure)
# ---------------------------------------------------------------------------

#: Actor-local colocation only: no resource rules, so LEM rounds never
#: block on GEM replies and every decision is a pure function of the
#: refs — the runs may only differ if the group split itself leaks.
COLOCATE_ONLY = """
Partition(p2) in ref(Partition(p1).children) => colocate(p1, p2);
"""

#: A resource rule that can never fire: REPORTs, aggregates and root
#: rounds all flow (the hierarchy is exercised), but no decision can
#: come out of either tier's planner.
UNREACHABLE_RESERVE = """
server.cpu.perc > 99 and
client.call(Partition(p1).read).perc > 99 => reserve(p1, cpu);
"""


def _deploy_split_estore(bed, num_roots=6, children_per_root=2):
    """Roots round-robin, children deliberately on the *next* server so
    the colocate rule has real work on every server."""
    roots, children = [], []
    for index in range(num_roots):
        server = bed.servers[index % len(bed.servers)]
        away = bed.servers[(index + 1) % len(bed.servers)]
        root = bed.system.create_actor(Partition, 0, server=server)
        kids = [bed.system.create_actor(Partition, 1, server=away)
                for _ in range(children_per_root)]
        bed.system.actor_instance(root).children.extend(kids)
        roots.append(root)
        children.append(kids)
    return roots, children


def _run_multigroup(*, seed, servers, group_size, rules,
                    pack=False, cross_group_band=95.0, clients=4,
                    duration_ms=25_000.0, instance_type="m5.large"):
    """One deterministic estore run with groups of ``group_size``
    servers (``None``: one group, the flat plane); returns decisions,
    placements, started-migration events, and control-plane stats."""
    _reset_id_counters()
    bed = build_cluster(servers, instance_type, seed=seed)
    if pack:
        setup = build_estore(bed, num_roots=8, children_per_root=2,
                             num_home_servers=1)
        roots, children = list(setup.roots), list(setup.children)
        picker = setup.picker
    else:
        roots, children = _deploy_split_estore(bed)
        picker = None
    policy = compile_source(rules, [Partition])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
        server_group_size=group_size, cross_group_band=cross_group_band))
    checker = InvariantChecker(manager)
    checker.attach()
    started = []

    def on_event(kind, detail):
        if kind == "migration-started":
            started.append(dict(detail))

    manager.add_listener(on_event)
    manager.start()

    rng = bed.streams.stream("diff-key-pick")
    client_list = [Client(bed.system, name=f"c{i}") for i in range(clients)]

    def loop(client):
        while bed.sim.now < duration_ms:
            if picker is not None:
                root = picker.pick()
            else:
                root = roots[rng.randrange(len(roots))]
            yield from client.timed_call(root, "read", rng.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for client in client_list:
        spawn(bed.sim, loop(client))
    bed.run(until_ms=duration_ms + 10_000.0)
    checker.assert_clean()

    refs = list(roots)
    for kids in children:
        refs.extend(kids)
    placements = sorted((str(ref), bed.system.server_of(ref).name)
                        for ref in refs)
    decisions = sorted((str(event.actor), event.kind, event.src, event.dst)
                       for event in manager.migration_log)
    timed = [(event.time_ms, str(event.actor), event.kind,
              event.src, event.dst) for event in manager.migration_log]
    root_gem = manager.hierarchy.root
    stats = {"aggregates": root_gem.aggregates_received,
             "root_rounds": root_gem.rounds_processed,
             "cross_planned": root_gem.cross_migrations_planned}
    manager.stop()
    checker.detach()
    return {"decisions": decisions, "timed": timed,
            "placements": placements, "started": started,
            "stats": stats, "manager": manager, "bed": bed}


def test_multigroup_colocate_decisions_equivalent():
    """Actor-rule decisions never consult the GEM tier, so a real
    multi-group tree must reproduce the one-group run *exactly* —
    including migration timestamps."""
    flat = _run_multigroup(seed=29, servers=4, group_size=None,
                           rules=COLOCATE_ONLY)
    tree = _run_multigroup(seed=29, servers=4, group_size=2,
                           rules=COLOCATE_ONLY)
    assert flat["decisions"], "vacuous: colocate produced no migrations"
    assert flat["timed"] == tree["timed"]
    assert flat["placements"] == tree["placements"]


def test_multigroup_quiet_policy_adds_no_decisions():
    """With an unreachable resource rule the full multi-group pipeline
    runs (REPORTs, aggregates, root rounds) yet neither tier may invent
    a migration the one-group plane would not make — here, none at
    all."""
    flat = _run_multigroup(seed=31, servers=6, group_size=None,
                           rules=UNREACHABLE_RESERVE)
    tree = _run_multigroup(seed=31, servers=6, group_size=3,
                           rules=UNREACHABLE_RESERVE)
    assert flat["decisions"] == [] == tree["decisions"]
    assert flat["placements"] == tree["placements"]
    # Not vacuous: the tree really ran — aggregates flowed and the root
    # held rounds; it just (correctly) decided nothing — while the
    # one-group root stayed inert.
    assert flat["stats"] == {"aggregates": 0, "root_rounds": 0,
                             "cross_planned": 0}
    assert tree["stats"]["aggregates"] > 0
    assert tree["stats"]["root_rounds"] > 0
    assert tree["stats"]["cross_planned"] == 0


@pytest.mark.parametrize("servers,group_size", [(4, 2), (5, 2), (6, 3)])
def test_multigroup_decision_equivalence_sweep(servers, group_size):
    """The colocate equivalence holds across group shapes, including a
    ragged final group (5 servers / groups of 2)."""
    flat = _run_multigroup(seed=37 + servers, servers=servers,
                           group_size=None, rules=COLOCATE_ONLY)
    tree = _run_multigroup(seed=37 + servers, servers=servers,
                           group_size=group_size, rules=COLOCATE_ONLY)
    assert flat["decisions"]
    assert flat["timed"] == tree["timed"]
    assert flat["placements"] == tree["placements"]


def test_multigroup_property_random_seeds():
    """Property-based sweep over seeds and tree shapes: no-pressure
    workloads decide identically with one group and with several."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=6, deadline=None,
                         suppress_health_check=list(
                             hypothesis.HealthCheck))
    @hypothesis.given(seed=st.integers(min_value=0, max_value=2**16),
                      servers=st.integers(min_value=4, max_value=6),
                      group_size=st.sampled_from([2, 3]))
    def check(seed, servers, group_size):
        flat = _run_multigroup(seed=seed, servers=servers,
                               group_size=None, rules=COLOCATE_ONLY,
                               duration_ms=15_000.0, clients=2)
        tree = _run_multigroup(seed=seed, servers=servers,
                               group_size=group_size, rules=COLOCATE_ONLY,
                               duration_ms=15_000.0, clients=2)
        assert flat["timed"] == tree["timed"]
        assert flat["placements"] == tree["placements"]

    check()


# ---------------------------------------------------------------------------
# 2. Directed cross-group pressure: the root tier must act, and only it
# ---------------------------------------------------------------------------

def test_root_arbitrates_cross_group_hotspot():
    """Pack every actor into group 0 with quiet leaves and a low
    cross-group band: only the root tier can relieve the hot spot, so
    root-issued cross-group migrations must appear — and every
    cross-group move must be root-issued (the single-authority
    invariant the checker enforces)."""
    run = _run_multigroup(seed=41, servers=4, group_size=2,
                          rules=UNREACHABLE_RESERVE, pack=True,
                          cross_group_band=10.0, clients=12,
                          duration_ms=40_000.0, instance_type="m1.small")
    stats = run["stats"]
    assert stats["aggregates"] > 0
    assert stats["cross_planned"] > 0

    hierarchy = run["manager"].hierarchy
    by_name = {server.name: server for server in run["bed"].servers}

    def group_of(name):
        return hierarchy.groups.group_of(by_name[name].server_id)

    root_moves = [event for event in run["started"]
                  if event["issuer"] == "root"]
    assert root_moves, "root planned moves but none started"
    for event in root_moves:
        assert group_of(event["src"]) != group_of(event["dst"])
    # Quiet leaves: every executed migration this run was root-issued.
    assert all(event["issuer"] == "root" for event in run["started"])
    # And the hot spot actually moved toward group 1.
    assert any(group_of(event["dst"]) == 1 for event in root_moves)
