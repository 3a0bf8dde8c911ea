"""Memory gate: what one idle actor costs the runtime.

PLASMA's profiling runtime tracks every actor on every server, and most
of a large fleet is idle (``fleet_hier`` in the end-to-end benchmark).
An idle actor's mailbox buffer and profile are allocated on first use,
and its dispatcher is two fields on its cell, not a process, so an actor
that is never messaged pays only for its record, cell, ref and
instance.  This gate holds that cost to a byte budget, checks it is
linear in the actor count (not O(fleet) per actor), and checks that no
simulation process exists per actor.

Measured with tracemalloc: the bytes still allocated after three
elasticity periods, minus the same scenario with no idle actors,
divided by the number of idle actors.
"""

import gc
import tracemalloc

from repro.apps import Partition
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import Process

SERVERS = 20
PERIOD_MS = 5_000.0
#: Bytes per idle actor.  Eager allocation measured ~5,300; lazy
#: buffers with a dispatcher process per actor ~1,980; without it ~920.
BUDGET_BYTES = 1_200

#: The never-firing policy of the ``fleet_hier`` benchmark workload.
QUIET_POLICY = """
server.cpu.perc > 99 and
client.call(Partition(p1).read).perc > 99 => reserve(p1, cpu);
"""


def _scenario(actors):
    bed = build_cluster(SERVERS, "m1.small", seed=5)
    for index in range(actors):
        bed.system.create_actor(Partition, 1,
                                server=bed.servers[index % SERVERS])
    manager = ElasticityManager(
        bed.system, compile_source(QUIET_POLICY, [Partition]),
        EmrConfig(period_ms=PERIOD_MS, gem_wait_ms=300.0,
                  lem_stagger_ms=10.0))
    manager.start()
    bed.run(until_ms=3 * PERIOD_MS + 1_000.0)
    assert all(lem.rounds_run >= 3 for lem in manager.lems.values())
    return bed, manager


def _measure(actors):
    """Traced bytes held after the scenario, and its live processes."""
    gc.collect()
    tracemalloc.start()
    try:
        scenario = _scenario(actors)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    processes = sum(isinstance(obj, Process) for obj in gc.get_objects())
    del scenario
    return size, processes


def test_idle_actor_memory_is_bounded_and_linear():
    _scenario(50)  # warm interpreter caches outside the measurement
    empty, _ = _measure(0)
    measured = {n: _measure(n) for n in (500, 2_000)}
    per_actor = {n: (size - empty) / n for n, (size, _) in measured.items()}
    assert per_actor[500] <= BUDGET_BYTES, per_actor
    assert per_actor[2_000] <= BUDGET_BYTES, per_actor
    assert abs(per_actor[2_000] - per_actor[500]) <= 0.10 * per_actor[500], \
        per_actor
    # Control-plane processes scale with the 20 servers; none is an
    # actor's.
    processes = {n: count for n, (_, count) in measured.items()}
    assert processes[500] == processes[2_000], processes
