"""The sharing contract behind a cold actor's snapshot.

An :class:`ActorSnapshot` points at the profiler's cached rate payload
instead of copying it, and snapshots without call counts or ref-holding
properties share one read-only empty mapping.  That is only sound while
nothing a snapshot owns leaks into another and nothing shared is ever
written.  These tests pin both halves.
"""

from types import SimpleNamespace

import pytest

from repro.actors import Actor, ActorRef, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.emr.evaluate import Match
from repro.core.epl.ast import ActorPattern, Pin
from repro.core.profiling import ActorSnapshot
from repro.core.profiling.snapshot import EMPTY
from repro.sim import spawn

PERIOD_MS = 10_000.0
POLICY = """
server.cpu.perc > 99 => balance({Cell}, cpu);
Cell(c) in ref(Keeper(k).target) => colocate(k, c);
"""


class Cell(Actor):
    def read(self):
        yield self.compute(2.0)
        return 1


class Keeper(Actor):
    target: object

    def __init__(self, target):
        self.target = target
        self.label = "keeper"


@pytest.fixture
def bed():
    """Two servers under a started manager; actors go on the first."""
    testbed = build_cluster(2, seed=3)
    manager = ElasticityManager(
        testbed.system, compile_source(POLICY, [Cell, Keeper]),
        EmrConfig(period_ms=PERIOD_MS, gem_wait_ms=300.0))
    manager.start()
    return SimpleNamespace(sim=testbed.sim, system=testbed.system,
                           run=testbed.run, manager=manager,
                           server=testbed.servers[0])


def _create(bed, cls, *args):
    ref = bed.system.create_actor(cls, *args, server=bed.server)
    return bed.system.directory.lookup(ref.actor_id)


def _drive(bed, ref, calls):
    client = Client(bed.system)

    def body():
        for _ in range(calls):
            yield client.call(ref, "read")

    spawn(bed.sim, body())
    bed.run(until_ms=bed.sim.now + 1_000.0)


def _snapshots(bed, records):
    return bed.manager.profiler.snapshot_actors(records)


def test_snapshot_keeps_its_rates_after_more_traffic(bed):
    record = _create(bed, Cell)
    _drive(bed, record.ref, 5)
    [before] = _snapshots(bed, [record])
    cpu, calls = before.cpu_perc, dict(before.call_count_per_min)
    assert cpu > 0.0 and calls
    _drive(bed, record.ref, 20)
    [after] = _snapshots(bed, [record])
    assert after.cpu_perc > cpu
    assert after.rates is not before.rates
    assert before.cpu_perc == cpu
    assert before.call_count_per_min == calls


def test_idle_snapshots_share_a_payload_but_not_their_pin(bed):
    first, second = _create(bed, Cell), _create(bed, Cell)
    snaps = _snapshots(bed, [first, second])
    assert snaps[0].rates is snaps[1].rates
    assert snaps[0].refs is snaps[1].refs is EMPTY
    lem = bed.manager.lems[bed.server.server_id]
    lem._apply_pin(Pin(ActorPattern("Cell", "c")),
                   Match(subject_server=None, bindings={"c": snaps[0]}))
    assert snaps[0].pinned and first.pinned
    assert not snaps[1].pinned and not second.pinned
    assert snaps[0].rates is snaps[1].rates
    assert [snap.pinned for snap in _snapshots(bed, [first, second])] == \
        [True, False]


def test_percentages_never_write_the_shared_mapping(bed):
    hot = [_create(bed, Cell) for _ in range(2)]
    idle = [_create(bed, Cell) for _ in range(3)]
    _drive(bed, hot[0].ref, 3)
    _drive(bed, hot[1].ref, 1)
    snaps = _snapshots(bed, [idle[0], hot[0], idle[1], hot[1], idle[2]])
    by_id = {snap.actor_id: snap for snap in snaps}
    for record in idle:
        assert by_id[record.ref.actor_id].call_perc is EMPTY
    assert len(EMPTY) == 0
    hot_percs = [by_id[record.ref.actor_id].call_perc for record in hot]
    assert hot_percs[0] is not hot_percs[1]
    assert hot_percs[0][("client", "read")] == pytest.approx(75.0)
    assert hot_percs[1][("client", "read")] == pytest.approx(25.0)
    with pytest.raises(TypeError):
        EMPTY["written"] = 1.0


def test_ref_holding_actor_gets_its_own_refs(bed):
    target = _create(bed, Cell)
    keepers = [_create(bed, Keeper, target.ref) for _ in range(2)]
    snaps = _snapshots(bed, [target] + keepers)
    # The policy's one ref atom names ``target``; ``label`` is no ref.
    assert bed.manager.policy.ref_properties == {"target"}
    assert snaps[0].refs is EMPTY
    assert snaps[1].refs == snaps[2].refs == {"target": (target.ref,)}
    assert snaps[1].refs is not snaps[2].refs
    assert snaps[1].refs is not EMPTY


def test_round_holds_snapshots_only_for_debug_events(bed):
    lem = bed.manager.lems[bed.server.server_id]
    _create(bed, Cell)
    assert lem.begin_round()[3] is None
    bed.manager.debug_events = True
    actor_snaps, _, mem_used_mb = lem.begin_round()[3]
    assert [snap.type_name for snap in actor_snaps] == ["Cell"]
    assert mem_used_mb == bed.server.memory_used_mb


def test_keyword_snapshots_compare_by_value():
    ref = ActorRef(7, "Cell")

    def build(**extra):
        return ActorSnapshot(
            ref=ref, server=None, cpu_perc=1.0, cpu_ms_per_min=2.0,
            mem_mb=1.0, mem_perc=0.1, net_bytes_per_min=0.0, net_perc=0.0,
            **extra)

    assert build() == build()
    assert build(call_count_per_min={}) == build()
    assert build(pinned=True) != build()
    calls = build(call_count_per_min={("client", "read"): 3.0})
    assert calls.call_perc == {} and calls.call_perc is not EMPTY
    assert repr(build()).startswith("ActorSnapshot(ref=<Cell#7>, ")
