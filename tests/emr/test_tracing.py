"""Tests for the elasticity event tracer."""

import pytest

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.core.tracing import ElasticityTracer, TraceEvent
from repro.sim import spawn


class Spinner(Actor):
    def spin(self, cpu_ms):
        yield self.compute(cpu_ms)
        return True


def setup_traced():
    bed = build_cluster(2)
    refs = [bed.system.create_actor(Spinner, server=bed.servers[0])
            for _ in range(6)]
    policy = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Spinner}, cpu);", [Spinner])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=5_000.0, gem_wait_ms=300.0))
    manager.start()
    tracer = ElasticityTracer(manager)
    tracer.attach()
    client = Client(bed.system)

    def loop(ref):
        while bed.sim.now < 30_000.0:
            yield client.call(ref, "spin", 40.0)

    for ref in refs:
        spawn(bed.sim, loop(ref))
    return bed, manager, tracer, refs


def test_tracer_records_migrations():
    bed, manager, tracer, _refs = setup_traced()
    bed.run(until_ms=30_000.0)
    migrations = tracer.of_kind("migration")
    assert len(migrations) == manager.migrations_total()
    event = migrations[0]
    assert {"actor", "src", "dst"} <= set(event.detail)
    assert event.time_ms > 0


def test_tracer_records_actor_lifecycle():
    bed, manager, tracer, refs = setup_traced()
    extra = bed.system.create_actor(Spinner)
    bed.system.destroy_actor(extra)
    assert len(tracer.of_kind("actor-created")) == 1  # attached after setup
    assert len(tracer.of_kind("actor-destroyed")) == 1


def test_tracer_records_server_events():
    bed, manager, tracer, _refs = setup_traced()
    done = bed.provisioner.boot_server(immediate=True)
    bed.run(until_ms=1.0)
    joined = tracer.of_kind("server-joined")
    assert len(joined) == 1
    bed.provisioner.retire_server(done.value)
    assert len(tracer.of_kind("server-retired")) == 1


def test_summary_and_timeline():
    bed, manager, tracer, _refs = setup_traced()
    bed.run(until_ms=30_000.0)
    summary = tracer.summary()
    assert summary.get("migration", 0) >= 1
    timeline = tracer.timeline(bucket_ms=10_000.0)
    assert sum(counts.get("migration", 0)
               for counts in timeline.values()) == summary["migration"]


def test_detach_stops_recording():
    bed, manager, tracer, _refs = setup_traced()
    tracer.detach()
    bed.system.create_actor(Spinner)
    assert tracer.of_kind("actor-created") == []
    tracer.detach()  # idempotent


def test_detached_tracer_records_no_server_joins():
    bed, manager, tracer, _refs = setup_traced()
    tracer.detach()
    bed.provisioner.boot_server(immediate=True)
    bed.run(until_ms=1.0)
    assert tracer.of_kind("server-joined") == []


def test_tracers_detached_in_attach_order_unwind_cleanly():
    bed, manager, first, _refs = setup_traced()
    second = ElasticityTracer(manager)
    second.attach()
    joined = [bed.provisioner.boot_server(immediate=True) for _ in range(2)]
    bed.run(until_ms=1.0)
    first.detach()
    bed.provisioner.retire_server(joined[0].value)
    assert first.of_kind("server-retired") == []
    assert len(second.of_kind("server-retired")) == 1
    second.detach()
    bed.provisioner.retire_server(joined[1].value)
    assert first.of_kind("server-retired") == []
    assert len(second.of_kind("server-retired")) == 1


def test_failed_attach_leaves_nothing_subscribed(monkeypatch):
    bed = build_cluster(2)
    manager = ElasticityManager(bed.system, compile_source(
        "server.cpu.perc > 80 => balance({Spinner}, cpu);", [Spinner]))
    tracer = ElasticityTracer(manager)

    def refuse(listener):
        raise RuntimeError("no event bus")

    monkeypatch.setattr(manager, "add_listener", refuse)
    with pytest.raises(RuntimeError):
        tracer.attach()
    assert tracer not in bed.system.hooks
    bed.system.create_actor(Spinner)
    assert tracer.events == []
    monkeypatch.undo()
    tracer.attach()             # not marked attached by the failed try
    bed.system.create_actor(Spinner)
    assert len(tracer.of_kind("actor-created")) == 1


def test_event_rendering():
    event = TraceEvent(time_ms=1234.5, kind="migration",
                       detail={"actor": "<W#1>", "src": "a", "dst": "b"})
    text = str(event)
    assert "migration" in text and "src=a" in text and "1.234s" in text


def test_max_events_bound():
    bed, manager, tracer, _refs = setup_traced()
    tracer.max_events = 2
    for _ in range(5):
        bed.system.create_actor(Spinner)
    assert len(tracer.events) == 2
    assert tracer.dropped == 3
