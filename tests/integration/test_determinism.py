"""Determinism: identical seeds reproduce identical executions.

Regression baselines and the paper-shape assertions all lean on this:
the whole stack (kernel, cluster, actors, EMR) must be a pure function
of its seeds.
"""

from repro.actors import Actor, Client, RuntimeHooks
from repro.bench import build_cluster
from repro.chaos import (ChaosEngine, CrashServer, DegradeNetwork,
                         FaultPlan)
from repro.check import InvariantChecker
from repro.cluster import AvailabilityMeter
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.fuzz import generate_scenario, run_scenario
from repro.overload import OverloadManager
from repro.sim import spawn


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def run_once(seed):
    bed = build_cluster(3, seed=seed)
    rng = bed.streams.stream("load")
    refs = [bed.system.create_actor(Spinner) for _ in range(9)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0))
    checker = InvariantChecker(manager)
    checker.attach()
    manager.start()
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < 30_000.0:
            yield client.call(ref, "spin", 20.0 + rng.random() * 40.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=30_000.0)
    checker.assert_clean()
    # Actor and server ids are global counters, so two runs in one
    # process get different raw ids; normalize to per-run indices.
    actor_index = {ref.actor_id: i for i, ref in enumerate(refs)}
    server_index = {server.server_id: i
                    for i, server in enumerate(bed.servers)}
    server_by_name = {server.name: i
                      for i, server in enumerate(bed.servers)}
    placement = tuple(
        (actor_index[ref.actor_id],
         server_index[bed.system.server_of(ref).server_id])
        for ref in refs)
    migrations = tuple(
        (e.time_ms, actor_index[e.actor.actor_id],
         server_by_name[e.src], server_by_name[e.dst])
        for e in manager.migration_log)
    latencies = tuple(lat for _t, lat in client.latencies.samples)
    return placement, migrations, latencies


def test_same_seed_same_execution():
    first = run_once(42)
    second = run_once(42)
    assert first == second


def test_different_seed_different_execution():
    a = run_once(1)
    b = run_once(2)
    # Placement draws differ, so *something* must differ.
    assert a != b


CHAOS_PLAN = FaultPlan(faults=(
    CrashServer(at_ms=9_000.0, server_index=0),
    DegradeNetwork(at_ms=14_000.0, duration_ms=4_000.0,
                   latency_multiplier=3.0, drop_probability=0.1),
))


def run_chaos_once(seed):
    """One faulty run; returns every observable that must be replayable."""
    bed = build_cluster(3, seed=seed)
    rng = bed.streams.stream("load")
    refs = [bed.system.create_actor(Spinner) for _ in range(9)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
        suspicion_timeout_ms=6_000.0))
    checker = InvariantChecker(manager)
    checker.attach()
    manager.start()
    emr_events = []
    manager.add_listener(
        lambda kind, detail: emr_events.append((bed.sim.now, kind)))
    meter = AvailabilityMeter(bed.sim, window_ms=5_000.0)
    client = Client(bed.system, timeout_ms=1_000.0, max_retries=3,
                    backoff_base_ms=100.0, backoff_cap_ms=2_000.0,
                    meter=meter)
    engine = ChaosEngine(bed.system, CHAOS_PLAN, manager=manager)
    engine.start()

    def loop(ref):
        while bed.sim.now < 30_000.0:
            yield from client.reliable_call(
                ref, "spin", 20.0 + rng.random() * 40.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=30_000.0)
    checker.assert_clean()

    actor_index = {ref.actor_id: i for i, ref in enumerate(refs)}
    server_by_name = {server.name: i
                      for i, server in enumerate(bed.servers)}
    migrations = tuple(
        (e.time_ms, actor_index[e.actor.actor_id],
         server_by_name[e.src], server_by_name[e.dst])
        for e in manager.migration_log)
    availability = tuple(
        (start, counts["success"], counts["failure"], counts["timeout"])
        for start, counts in meter.per_window())
    chaos_log = tuple((t, kind) for t, kind, _d in engine.log)
    events = tuple(emr_events)
    return (migrations, availability, meter.recovery_time_ms(),
            chaos_log, events, bed.system.fabric.messages_dropped,
            len(client.dead_letters), client.retries_used)


def test_same_seed_same_chaos_execution():
    # Satellite requirement: same seed + same FaultPlan => identical
    # migration logs and availability numbers.
    first = run_chaos_once(42)
    second = run_chaos_once(42)
    assert first == second


def test_chaos_run_actually_disrupted_something():
    result = run_chaos_once(42)
    migrations, availability, recovery, chaos_log, events, dropped, *_ = result
    assert any(kind == "fault-injected" for _t, kind in chaos_log)
    assert any(kind == "server-suspected" for _t, kind in events)
    assert recovery is not None and recovery > 0.0


# -- ids belong to the runtime --------------------------------------------

class _DeliveredIds(RuntimeHooks):
    """Records the id of every message delivered to an actor."""

    def __init__(self):
        self.ids = []

    def on_message_delivered(self, record, message):
        self.ids.append(message.message_id)


def _run_unrelated_bed():
    bed = build_cluster(2, seed=5)
    refs = [bed.system.create_actor(Spinner) for _ in range(4)]
    client = Client(bed.system)

    def loop(ref):
        for _ in range(5):
            yield client.call(ref, "spin", 10.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    bed.run(until_ms=2_000.0)


def test_fuzz_scenario_replays_after_an_unrelated_bed(monkeypatch):
    """One process, no reset: a scenario, an unrelated bed, the scenario
    again.  Both runs agree on everything they report and on the client
    message ids the overload ledger accounted."""
    managers = []
    original = OverloadManager.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        managers.append(self)

    monkeypatch.setattr(OverloadManager, "__init__", recording_init)
    scenario = generate_scenario(14, "overload")
    first = run_scenario(scenario)
    _run_unrelated_bed()
    second = run_scenario(scenario)
    assert first.fingerprint() == second.fingerprint()
    assert len(managers) == 2 and managers[0].ledger.issued > 0
    first_ids, second_ids = (dict(manager.ledger.disposed)
                             for manager in managers)
    assert min(first_ids) == 1
    assert first_ids == second_ids


def test_two_beds_in_one_process_both_start_from_id_one():
    firsts = []
    for _ in range(2):
        bed = build_cluster(2, seed=3)
        delivered = _DeliveredIds()
        bed.system.add_hooks(delivered)
        ref = bed.system.create_actor(Spinner)
        bed.system.client_call(ref, "spin", 1.0)
        bed.run(until_ms=100.0)
        firsts.append((bed.servers[0].server_id, ref.actor_id,
                       delivered.ids))
    assert firsts == [(1, 1, [1]), (1, 1, [1])]
