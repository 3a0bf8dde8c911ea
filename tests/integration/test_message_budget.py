"""Per-message budget gate: what one actor message costs the runtime.

Runs a tiny ``estore_fig9``-shaped scenario (the E-Store Fig. 9 policy
over skewed closed-loop readers: each read is a client call to a root
partition, a compute, a call to a co-located child, a compute, and two
replies) with class-level counters, and pins exact per-message counts
of the work each message makes the runtime do:

* kernel ``schedule`` calls: the event sequence the golden digests pin,
  so this must not move in a host-speed change;
* ``Signal`` objects built: a compute and a reply are
  :class:`~repro.sim.Completion` s, so no signal is built per message;
* ``Completion`` objects built: the reply, the CPU job and the
  handler's compute continuation;
* ``Driver._step`` calls: one per generator step;
* ring-meter bucket-index computations: one per message for the
  profiler's call, bytes and pair meters together, plus one per other
  meter add.

A change that adds work per message moves a count and fails here; one
that removes work updates the pinned counts (and the table in
``docs/architecture.md``).
"""

from collections import Counter

from repro.actors import Client
from repro.apps import ESTORE_POLICY, Partition, build_estore
from repro.bench import build_cluster
from repro.cluster import RingMeter
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.profiling.stats import ActorStats
from repro.sim import Completion, Driver, Signal, Simulator, Timeout, spawn

SEED = 12
DURATION_MS = 6_000.0

#: Exact per-message counts (two decimals) on this scenario.
BUDGET = {
    "schedule": 8.51,
    "signals": 0.0,
    "completions": 3.0,
    "steps": 3.5,
    "bucket_indexes": 4.5,
}


def _count(monkeypatch, counts, cls, name, key, when=None):
    original = cls.__dict__[name]

    def counted(self, *args, **kwargs):
        if when is None or when(*args, **kwargs):
            counts[key] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def _scenario():
    """Returns messages delivered: 12 closed-loop readers, 10 ms think
    time, 8 roots x 2 children on 2 of 3 servers, a 2 s period."""
    bed = build_cluster(3, "m1.small", seed=SEED)
    setup = build_estore(bed, num_roots=8, children_per_root=2,
                         num_home_servers=2)
    manager = ElasticityManager(
        bed.system, compile_source(ESTORE_POLICY, [Partition]),
        EmrConfig(period_ms=2_000.0, gem_wait_ms=1_000.0))
    manager.start()
    keys = bed.streams.stream("budget-key-pick")

    def reader(client):
        while bed.sim.now < DURATION_MS:
            root = setup.picker.pick()
            yield from client.timed_call(root, "read", keys.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for index in range(12):
        spawn(bed.sim, reader(Client(bed.system, name=f"c{index}")))
    bed.run(until_ms=DURATION_MS)
    assert manager.migrations_total() >= 1  # the scenario is the named one
    return manager.profiler.messages_profiled


def test_per_message_counts_hold_their_budget(monkeypatch):
    counts = Counter()
    _count(monkeypatch, counts, Simulator, "schedule", "schedule")
    _count(monkeypatch, counts, Simulator, "schedule_at", "schedule")
    _count(monkeypatch, counts, Signal, "__init__", "signals")
    _count(monkeypatch, counts, Completion, "__init__", "completions")
    _count(monkeypatch, counts, Driver, "_step", "steps")
    _count(monkeypatch, counts, RingMeter, "add", "bucket_indexes",
           when=lambda amount, index=None: index is None)
    _count(monkeypatch, counts, ActorStats, "record_message",
           "bucket_indexes")
    messages = _scenario()
    assert messages > 10_000
    per_message = {key: round(counts[key] / messages, 2) for key in BUDGET}
    assert per_message == BUDGET
