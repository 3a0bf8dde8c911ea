"""End-to-end partition tolerance: a mid-run network cut isolates one
GEM with a minority of the fleet, and the stack must neither split-brain
nor lose or duplicate an actor.  Runs with the invariant checker
attached, so the no-split-brain / epoch-monotonicity /
no-duplicate-actor invariants are re-derived independently alongside the
explicit assertions below.
"""

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.chaos import ChaosEngine, FaultPlan, PartitionNetwork
from repro.check import InvariantChecker
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import spawn


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


class Heavy(Actor):
    # 64 MB over 10 Gbps: the state transfer takes ~55 ms, long enough
    # to land a partition mid-migration deterministically.
    state_size_mb = 64.0

    def noop(self):
        return True


PARTITION_AT = 11_000.0
PARTITION_MS = 14_000.0
END = 60_000.0


def build_stack():
    bed = build_cluster(5)
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    # gem_reply_timeout below the suspicion timeout: a LEM blocked on a
    # reply the partition ate is silent for the whole wait, so the wait
    # must not outlast suspicion or live servers get suspected.
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
        suspicion_timeout_ms=6_000.0, gem_reply_timeout_ms=2_000.0,
        gem_count=2,
        max_scale_out_per_period=1, min_servers=2))
    checker = InvariantChecker(manager)
    checker.attach()
    manager.start()
    # Servers 0-1 and GEM 0 fall behind the cut: 2 of 5 is a minority,
    # so that whole side must go quiescent until the heal.
    engine = ChaosEngine(bed.system, FaultPlan(faults=(
        PartitionNetwork(at_ms=PARTITION_AT, duration_ms=PARTITION_MS,
                         group=(0, 1), gems=(0,)),)), manager=manager)
    engine.start()
    return bed, manager, checker


def test_minority_side_goes_quiescent_and_recovers():
    bed, manager, checker = build_stack()
    events = []
    manager.add_listener(
        lambda kind, detail: events.append((bed.sim.now, kind, detail)))
    # Uneven load so the balance rule has real work on both sides.
    refs = [bed.system.create_actor(Spinner, server=bed.servers[i % 2])
            for i in range(10)]
    client = Client(bed.system)

    def loop(ref, cpu_ms):
        while bed.sim.now < END - 5_000.0:
            if (yield client.call(ref, "spin", cpu_ms)) is None:
                return

    for i, ref in enumerate(refs):
        spawn(bed.sim, loop(ref, 40.0 + 5.0 * i))
    bed.run(until_ms=PARTITION_AT + 1_000.0)
    assert manager.gems[0].degraded
    assert not manager.gems[1].degraded
    assert manager.epoch == 1
    bed.run(until_ms=END)
    assert manager.epoch == 2
    assert not manager.gems[0].degraded

    minority = {bed.servers[0].name, bed.servers[1].name}
    healed_at = [t for t, kind, _ in events if kind == "partition-healed"]
    assert len(healed_at) == 1
    for t, kind, detail in events:
        inside = PARTITION_AT <= t < healed_at[0]
        if kind in ("scale-out", "scale-in") and inside:
            # Fleet changes may only come from the majority-side GEM.
            assert detail["gem_id"] != 0
        if kind == "migration-started" and inside:
            # No migration starts from or onto the quorum-less side.
            assert detail["src"] not in minority
            assert detail["dst"] not in minority

    # The cut-off servers were declared unreachable, not dead: nothing
    # was resurrected, and after the heal they are re-admitted.
    kinds = [kind for _, kind, _ in events]
    assert "server-unreachable" in kinds
    assert "server-suspected" not in kinds
    readmitted = [detail for _, kind, detail in events
                  if kind == "server-readmitted"]
    assert {d["server"] for d in readmitted} == minority

    # Directory reconciled: every actor exactly once, nobody lost.
    records = list(bed.system.directory.records())
    assert len(records) == len(refs)
    assert len({record.ref.actor_id for record in records}) == len(refs)
    assert ({record.ref.actor_id for record in records}
            == {ref.actor_id for ref in refs})
    for record in records:
        assert record.server.running

    # The control plane kept making progress on the majority side
    # during the cut, and everywhere afterwards.  (Servers booted by a
    # late scale-out may not have completed rounds yet, but every LEM
    # must have caught up to the healed epoch.)
    original = {server.server_id for server in bed.servers}
    for server_id, lem in manager.lems.items():
        if server_id in original:
            assert lem.rounds_run >= 2
        assert lem.epoch == manager.epoch
    checker.assert_clean()


def test_migration_interrupted_by_partition_settles_cleanly():
    bed, manager, checker = build_stack()
    src, dst = bed.servers[0], bed.servers[2]
    ref = bed.system.create_actor(Heavy, server=src)
    # Start a minority -> majority transfer ~55 ms before the cut: the
    # two-phase protocol must either commit it or roll it back, never
    # leave the actor half-moved.
    done = []
    bed.sim.schedule(PARTITION_AT - 20.0,
                     lambda: done.append(bed.system.migrate_actor(ref, dst)))
    bed.run(until_ms=END)
    assert done[0].value in (True, False)
    record = bed.system.directory.lookup(ref.actor_id)
    assert record.migrating is False
    if done[0].value:
        assert record.server is dst
        assert dst.memory_used_mb >= Heavy.state_size_mb
        assert src.memory_used_mb == 0.0
    else:
        assert record.server is src
        assert src.memory_used_mb == Heavy.state_size_mb
        assert dst.memory_used_mb == 0.0
    # Either way the actor still answers (exactly one copy exists).
    client = Client(bed.system)
    out = []

    def body():
        out.append((yield client.call(ref, "noop")))

    spawn(bed.sim, body())
    bed.run(until_ms=END + 2_000.0)
    assert out == [True]
    checker.assert_clean()


def test_partition_run_is_deterministic():
    def run_once():
        bed, manager, checker = build_stack()
        events = []
        manager.add_listener(
            lambda kind, detail: events.append((bed.sim.now, kind,
                                                repr(sorted(detail)))))
        refs = [bed.system.create_actor(Spinner, server=bed.servers[i % 2])
                for i in range(6)]
        client = Client(bed.system)

        def loop(ref):
            while bed.sim.now < END - 5_000.0:
                if (yield client.call(ref, "spin", 45.0)) is None:
                    return

        for ref in refs:
            spawn(bed.sim, loop(ref))
        bed.run(until_ms=END)
        checker.assert_clean()
        return events

    first = run_once()
    second = run_once()
    assert first == second
