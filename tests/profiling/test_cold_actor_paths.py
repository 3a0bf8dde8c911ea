"""What a snapshot of a cold actor skips, and that skipping changes nothing.

``ProfilingRuntime._extract_refs`` no longer asks ``Actor.property_refs``
about attribute values that plainly hold no actor ref, and a
:class:`RingMeter` owns no bucket deque until its first ``add``.  Both
are pure savings: the loop the fast path replaced, kept here as the
reference, must return the same dict, and an untouched meter must answer
every query with ``0.0``.
"""

from types import SimpleNamespace

import pytest

from repro.actors import Actor, ActorRef
from repro.core.profiling import ProfilingRuntime, RingMeter
from repro.sim import Simulator


class Level(int):
    """A subclass of ``int``: not one of the exact scalar types."""


class Holder(Actor):
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


def _parent_extract_refs(record):
    """The loop ``_extract_refs`` ran before the scalar fast path."""
    refs = {}
    for pname in getattr(record.instance, "__dict__", {}):
        if pname.startswith("_") or pname == "ref":
            continue
        held = record.instance.property_refs(pname)
        if held:
            refs[pname] = tuple(held)
    return refs


@pytest.fixture
def refs():
    return tuple(ActorRef(i, "T") for i in (1, 2, 3))


def test_extract_refs_equals_the_loop_it_replaced(refs):
    record = SimpleNamespace(instance=Holder(refs))
    a, b, c = refs
    extracted = ProfilingRuntime._extract_refs(record)
    assert extracted == _parent_extract_refs(record)
    assert extracted == {"single": (a,), "listed": (a, b, c),
                         "keyed": (b,), "unordered": (c,)}
    assert list(extracted) == ["single", "listed", "keyed", "unordered"]


def test_only_exact_scalar_types_skip_property_refs(refs):
    asked = []

    class Spy(Holder):
        def property_refs(self, pname):
            asked.append(pname)
            return super().property_refs(pname)

    ProfilingRuntime._extract_refs(SimpleNamespace(instance=Spy(refs)))
    # The int subclass is not skipped (the test is on the exact type);
    # it resolves to no refs either way.
    assert asked == ["single", "listed", "keyed", "unordered", "empty",
                     "level"]


def test_actor_without_instance_dict_holds_no_refs():
    assert ProfilingRuntime._extract_refs(
        SimpleNamespace(instance=object())) == {}


def test_untouched_ring_meter_answers_zero_and_owns_no_deque():
    sim = Simulator()
    meter = RingMeter(sim, window_ms=10_000.0)
    sim.schedule(25_000.0, lambda: None)
    sim.run()
    assert meter.total() == 0.0
    assert meter.total(1_000.0) == 0.0
    assert meter.rate_per_ms() == 0.0
    assert meter.lifetime_total == 0.0
    assert meter._buckets is None
    meter.add(2.0)
    assert meter.total() == 2.0 and len(meter._buckets) == 1
