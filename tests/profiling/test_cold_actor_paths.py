"""What a snapshot of a cold actor skips, and that skipping changes nothing.

``ProfilingRuntime._extract_refs`` reads only the properties the
policy's ``in ref(...)`` atoms name, and of those asks
``Actor.property_refs`` only about values that could hold an actor ref;
with no named property it never touches the instance at all.  A
:class:`RingMeter` owns no bucket deque until its first ``add``.  All
are pure savings: on every named property the extraction must equal the
whole-``__dict__`` oracle in ``ref_oracle``, and an untouched meter must
answer every query with ``0.0``.
"""

from types import SimpleNamespace

import pytest
from ref_oracle import extract_all_refs

from repro.actors import Actor, ActorRef
from repro.apps import ESTORE_POLICY, Partition
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.profiling import ProfilingRuntime, RingMeter
from repro.core.profiling.snapshot import EMPTY
from repro.sim import Simulator

#: The never-firing policy of the ``fleet_hier`` benchmark workload.
QUIET_POLICY = """
server.cpu.perc > 99 and
client.call(Partition(p1).read).perc > 99 => reserve(p1, cpu);
"""


class Level(int):
    """A subclass of ``int``: not one of the exact scalar types."""


class Holder(Actor):
    shared = ActorRef(9, "T")   # a class attribute, not a property value

    def __init__(self, refs):
        a, b, c = refs
        self.single = a
        self.listed = [a, b, "not a ref", c]
        self.keyed = {"x": b, "y": 3}
        self.unordered = {c}
        self.nothing = None
        self.count = 7
        self.ratio = 0.5
        self.label = "room"
        self.flag = True
        self.blob = b"\x00\x01"
        self.empty = []
        self.level = Level(3)
        self._hidden = a
        self.ref = a            # stands in for the injected own handle

    @property
    def derived(self):
        """A descriptor that resolves to refs, but is no instance value."""
        return [self.single]


#: Every instance attribute of a Holder, plus names it has only on its
#: class or not at all.
EVERY_NAME = ("single", "listed", "keyed", "unordered", "nothing", "count",
              "ratio", "label", "flag", "blob", "empty", "level", "_hidden",
              "ref", "shared", "derived", "absent")


def _extract(instance, names):
    profiler = ProfilingRuntime(Simulator(), ref_properties=names)
    return profiler._extract_refs(SimpleNamespace(instance=instance))


@pytest.fixture
def refs():
    return tuple(ActorRef(i, "T") for i in (1, 2, 3))


def test_named_extraction_equals_the_oracle(refs):
    record = SimpleNamespace(instance=Holder(refs))
    a, b, c = refs
    oracle = extract_all_refs(record)
    assert oracle == {"single": (a,), "listed": (a, b, c), "keyed": (b,),
                      "unordered": (c,)}
    assert _extract(record.instance, EVERY_NAME) == oracle
    for name in EVERY_NAME:
        expected = {name: oracle[name]} if name in oracle else {}
        assert _extract(record.instance, (name,)) == expected, name
    assert _extract(record.instance, ("keyed", "listed")) == {
        "keyed": (b,), "listed": (a, b, c)}


def test_unnamed_private_class_and_missing_properties_give_empty(refs):
    instance = Holder(refs)
    for names in ((), ("_hidden", "ref"), ("shared", "derived", "absent"),
                  ("nothing", "count", "label", "empty", "level")):
        assert _extract(instance, names) is EMPTY, names


def test_only_exact_scalar_types_skip_property_refs(refs):
    asked = []

    class Spy(Holder):
        def property_refs(self, pname):
            asked.append(pname)
            return super().property_refs(pname)

    _extract(Spy(refs), EVERY_NAME)
    # The int subclass is not skipped (the test is on the exact type);
    # it resolves to no refs either way.  Names are asked in sorted
    # order, and never about a name the instance does not hold.
    assert asked == ["empty", "keyed", "level", "listed", "single",
                     "unordered"]


def test_no_named_property_never_reads_the_instance(refs):
    touched = []

    class Watched(Holder):
        def __getattribute__(self, name):
            touched.append(name)
            return super().__getattribute__(name)

    instance = Watched(refs)
    touched.clear()
    assert _extract(instance, ()) is EMPTY
    assert touched == []


def test_actor_without_instance_dict_holds_no_refs():
    assert _extract(object(), EVERY_NAME) is EMPTY
    assert extract_all_refs(SimpleNamespace(instance=object())) == {}


@pytest.mark.parametrize("source, asked_per_actor", [
    (QUIET_POLICY, 0),       # fleet_hier's policy reads no ref
    (ESTORE_POLICY, 1),      # in ref(Partition(p1).children)
], ids=["fleet_hier-quiet", "estore"])
def test_lem_round_asks_only_what_the_policy_reads(monkeypatch, source,
                                                   asked_per_actor):
    bed = build_cluster(4, "m1.small", seed=5)
    for index in range(40):
        bed.system.create_actor(Partition, 1, server=bed.servers[index % 4])
    manager = ElasticityManager(
        bed.system, compile_source(source, [Partition]),
        EmrConfig(period_ms=5_000.0, gem_wait_ms=300.0))
    manager.start()
    asked = []
    original = Actor.property_refs

    def counting(self, pname):
        asked.append(pname)
        return original(self, pname)

    monkeypatch.setattr(Actor, "property_refs", counting)
    for lem in manager.lems.values():
        lem.begin_round()
    assert len(asked) == 40 * asked_per_actor
    assert set(asked) <= {"children"}


def test_untouched_ring_meter_answers_zero_and_owns_no_deque():
    sim = Simulator()
    meter = RingMeter(sim, window_ms=10_000.0)
    sim.schedule(25_000.0, lambda: None)
    sim.run()
    assert meter.total() == 0.0
    assert meter.total(1_000.0) == 0.0
    assert meter.lifetime_total == 0.0
    assert meter._buckets is None
    meter.add(2.0)
    assert meter.total() == 2.0 and len(meter._buckets) == 1
