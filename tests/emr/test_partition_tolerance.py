"""Partition tolerance in the control plane: epoch fencing, quorum-loss
degraded mode, the crashed-vs-unreachable distinction, and heal-time
anti-entropy.

Fabric-level partition mechanics are covered in tests/cluster; the
chaos-engine plumbing in tests/chaos.  These tests drive the manager's
partition surface directly so each protocol rule is pinned in
isolation.
"""

from repro.actors import Actor, RuntimeHooks
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def balance_policy():
    return compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])


def make_manager(bed, **overrides):
    defaults = dict(period_ms=2_000.0, gem_wait_ms=300.0,
                    lem_stagger_ms=10.0, suspicion_timeout_ms=2_500.0)
    defaults.update(overrides)
    manager = ElasticityManager(bed.system, balance_policy(),
                                EmrConfig(**defaults))
    manager.start()
    return manager


def least_loaded(manager):
    """The least-loaded server the EMR may still move or place onto."""
    return min((s for s in manager.system.running_servers()
                if not manager.is_draining(s)
                and not manager.server_quorumless(s)),
               key=lambda s: (s.cpu_percent(manager.config.period_ms),
                              s.server_id))


def cut(bed, manager, servers, gems=(), symmetric=True):
    """Partition ``servers`` (+ the named GEMs) off, fabric + manager."""
    ids = frozenset(s.server_id for s in servers)
    token = bed.system.fabric.partition(ids, symmetric=symmetric)
    manager.note_partition(token, ids, frozenset(gems), symmetric)
    return token


def heal(bed, manager, token):
    bed.system.fabric.heal_partition(token)
    manager.note_partition_healed(token)


# -- epochs ------------------------------------------------------------


def test_inject_bumps_epoch_on_majority_side_only():
    bed = build_cluster(3)
    manager = make_manager(bed, gem_count=2)
    minority = bed.servers[0]
    token = cut(bed, manager, [minority], gems=(0,))
    assert manager.epoch == 1
    # Majority side learns the new epoch; the minority cannot.
    assert manager.gems[0].epoch == 0
    assert manager.gems[1].epoch == 1
    assert manager.lems[minority.server_id].epoch == 0
    for server in bed.servers[1:]:
        assert manager.lems[server.server_id].epoch == 1
    heal(bed, manager, token)
    # Heal syncs everyone: highest epoch wins, nobody stays fenced out.
    assert manager.epoch == 2
    assert all(gem.epoch == 2 for gem in manager.gems)
    assert all(lem.epoch == 2 for lem in manager.lems.values())


def test_lem_rejects_stale_epoch_reply():
    bed = build_cluster(2)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    lem = manager.lems[bed.servers[0].server_id]
    # The LEM has seen a newer configuration than the GEM will stamp.
    lem.epoch = 3
    bed.run(until_ms=5_000.0)
    assert lem.stale_replies_rejected >= 1
    rejections = [d for kind, d in events if kind == "stale-epoch-rejected"]
    assert rejections
    assert rejections[0]["lem_epoch"] == 3
    assert rejections[0]["gem_epoch"] == 0
    # A rejected reply never moves the LEM's own epoch backwards.
    assert lem.epoch == 3


# -- quorum-loss degraded mode -----------------------------------------


def test_minority_gem_enters_degraded_mode_and_is_vetoed():
    bed = build_cluster(3)
    manager = make_manager(bed, gem_count=2)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    manager.debug_events = True
    token = cut(bed, manager, [bed.servers[0]], gems=(0,))
    gem0, gem1 = manager.gems
    assert gem0.degraded          # sees 1 of 3 servers: no quorum
    assert not gem1.degraded      # sees 2 of 3: majority
    assert [d["gem_id"] for kind, d in events
            if kind == "gem-degraded"] == [0]
    # Defence in depth: the vote layer vetoes the degraded requester.
    assert manager.vote(gem0, "overloaded") is False
    vetoes = [d for kind, d in events
              if kind == "gem-vote" and d.get("vetoed")]
    assert vetoes and vetoes[0]["vetoed"] == "degraded"
    heal(bed, manager, token)
    assert not gem0.degraded
    assert [d["gem_id"] for kind, d in events
            if kind == "gem-restored"] == [0]


def test_stale_epoch_requester_is_vetoed():
    bed = build_cluster(3)
    manager = make_manager(bed, gem_count=2)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    manager.debug_events = True
    manager.epoch = 2  # the fleet moved on; gem 1 never heard
    assert manager.vote(manager.gems[1], "overloaded") is False
    vetoes = [d for kind, d in events
              if kind == "gem-vote" and d.get("vetoed")]
    assert vetoes and vetoes[0]["vetoed"] == "stale-epoch"


def test_unreachable_peer_counts_against_vote_majority():
    bed = build_cluster(3)
    manager = make_manager(bed, gem_count=3)
    manager.debug_events = True
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    # GEMs 1 and 2 sit behind the cut; requester 0 keeps the majority
    # side but has lost both peers: silent peers are not agreement.
    cut(bed, manager, bed.servers[:1], gems=(1, 2))
    assert manager.vote(manager.gems[0], "overloaded") is False
    votes = [d for kind, d in events if kind == "gem-vote"]
    assert votes[-1]["decision"] is False
    assert all(len(view) == 4 and view[3] is False
               for view in votes[-1]["peer_views"])


def test_quorum_probe_flips_majority_when_fleet_changes():
    bed = build_cluster(4)
    manager = make_manager(bed, gem_count=2)
    # Group of 2 vs rest of 2: a tie, so the group starts quorum-less.
    token = cut(bed, manager, bed.servers[:2], gems=(0,))
    assert manager.server_quorumless(bed.servers[0])
    assert not manager.server_quorumless(bed.servers[2])
    # Both majority-side servers die: the group now holds the majority.
    bed.system.crash_server(bed.servers[2])
    bed.system.crash_server(bed.servers[3])
    bed.run(until_ms=3_000.0)  # let the probe re-evaluate
    assert not manager.server_quorumless(bed.servers[0])
    heal(bed, manager, token)
    assert not manager.server_quorumless(bed.servers[0])


def test_placement_avoids_quorumless_servers():
    bed = build_cluster(3)
    manager = make_manager(bed)
    cut(bed, manager, [bed.servers[0]])
    chosen = least_loaded(manager)
    assert chosen is not bed.servers[0]


# -- crashed vs unreachable --------------------------------------------


def test_unreachable_server_is_not_resurrected_elsewhere():
    bed = build_cluster(3)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
            for _ in range(3)]
    bed.run(until_ms=3_000.0)  # heartbeats flowing
    token = cut(bed, manager, [bed.servers[0]])
    bed.run(until_ms=bed.sim.now + 3 * 2_500.0)
    kinds = [kind for kind, _ in events]
    assert "server-unreachable" in kinds
    assert "server-suspected" not in kinds
    # The actors stayed exactly where they were: one copy, far side.
    for ref in refs:
        record = bed.system.directory.lookup(ref.actor_id)
        assert record.server is bed.servers[0]
    # After heal the server is re-admitted, not suspected.
    heal(bed, manager, token)
    bed.run(until_ms=bed.sim.now + 3 * 2_500.0)
    kinds = [kind for kind, _ in events]
    assert "server-readmitted" in kinds
    assert "server-suspected" not in kinds


def test_crash_behind_partition_resurrects_after_heal():
    bed = build_cluster(3)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    resurrected = []

    class Watch(RuntimeHooks):
        def on_actor_resurrected(self, record):
            resurrected.append(record.ref)

    bed.system.add_hooks(Watch())
    refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
            for _ in range(2)]
    bed.run(until_ms=3_000.0)
    token = cut(bed, manager, [bed.servers[0]])
    bed.system.crash_server(bed.servers[0])
    bed.run(until_ms=bed.sim.now + 3 * 2_500.0)
    # Crashed and unreachable are indistinguishable mid-partition, so
    # nothing is resurrected yet — a double placement would be worse.
    assert resurrected == []
    heal(bed, manager, token)
    # Anti-entropy confirms the crash and runs the deferred suspicion.
    assert sorted(r.actor_id for r in resurrected) == \
        sorted(r.actor_id for r in refs)
    suspected = [d for kind, d in events if kind == "server-suspected"]
    assert len(suspected) == 1
    for ref in refs:
        record = bed.system.directory.lookup(ref.actor_id)
        assert record.server.running
        assert record.server is not bed.servers[0]


def test_partition_healed_event_reports_reconciliation():
    bed = build_cluster(3)
    manager = make_manager(bed)
    events = []
    manager.add_listener(lambda kind, detail: events.append((kind, detail)))
    bed.system.create_actor(Spinner, server=bed.servers[0])
    bed.system.create_actor(Spinner, server=bed.servers[1])
    token = cut(bed, manager, [bed.servers[0]])
    heal(bed, manager, token)
    [healed] = [d for kind, d in events if kind == "partition-healed"]
    assert healed["epoch"] == 2
    assert healed["actors_minority_side"] == 1
    assert healed["actors_total"] == 2
    # Both records were placed at epoch 0 < 2: stale by the heal's view.
    assert healed["stale_view_records"] == 2


def test_migration_commit_stamps_current_epoch():
    bed = build_cluster(2)
    manager = make_manager(bed)
    ref = bed.system.create_actor(Spinner, server=bed.servers[0])
    manager.epoch = 4
    done = bed.system.migrate_actor(ref, bed.servers[1])
    bed.run(until_ms=1_000.0)
    assert done.value is True
    assert bed.system.directory.lookup(ref.actor_id).placement_epoch == 4
