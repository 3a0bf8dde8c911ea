"""The real EMR on the asyncio runtime.

``LiveElasticityManager`` is a lifecycle adapter around the one
``ElasticityManager``: these tests show migrations on the live runtime
being *decided* by the real LEM/GEM protocol from EPL rules — balance
planned by a GEM and executed by a LEM, pin, cross-server colocate, the
one-period stability window — each explainable through
``migration_log[*].rule_line``, plus the adapter's own duties: a failing
control callback is reported by ``stop()``, and ``stop()`` leaves
nothing behind on the event loop.

CPU% on the live runtime is charge-based (``compute(cpu_ms)`` books the
demand, then sleeps), so "hot" and "idle" are far apart and the
decisions do not depend on how fast the sandbox is.  ``run_round()``
forces a control round where a test needs one at a known moment.
"""

import asyncio

import pytest

from repro.check import InvariantChecker
from repro.core import ElasticityTracer, compile_source
from repro.live import (LiveActor, LiveActorSystem, LiveElasticityManager,
                        LiveEmrConfig)

PERIOD_MS = 200.0
PERIOD_S = PERIOD_MS / 1000.0


class Worker(LiveActor):
    state_size_mb = 1.0

    async def work(self, cpu_ms):
        await self.compute(cpu_ms)


class Anchor(Worker):
    pass


class Owner(LiveActor):
    items: tuple
    state_size_mb = 2.0

    def __init__(self, *items):
        self.items = tuple(items)


class Item(LiveActor):
    state_size_mb = 0.1


BALANCE = "server.cpu.perc > 60 => balance({Worker}, cpu);"
PIN_AND_BALANCE = ("true => pin(Anchor(a));\n"
                   "server.cpu.perc > 60 => balance({Anchor, Worker}, cpu);")
COLOCATE = "Item(i) in ref(Owner(o).items) => colocate(i, o);"


def _system(servers=3):
    system = LiveActorSystem(transfer_ms_per_mb=1.0)
    for _ in range(servers):
        system.add_server()
    return system


def _manager(system, source, classes):
    return LiveElasticityManager(
        system, policy=compile_source(source, classes),
        config=LiveEmrConfig(period_ms=PERIOD_MS))


async def _load(system, refs, seconds, cpu_ms=10.0, every_ms=20.0):
    """Keep every actor in ``refs`` at cpu_ms/every_ms of one core."""
    replies = []
    deadline = system.clock.now + seconds * 1000.0
    while system.clock.now < deadline:
        replies.extend(system.client_call(ref, "work", cpu_ms)
                       for ref in refs)
        await asyncio.sleep(every_ms / 1000.0)
    await asyncio.gather(*replies)


def _placement(system, refs):
    return [system.servers.index(system.server_of(ref)) for ref in refs]


def test_balance_rule_is_decided_by_gem_and_executed_by_lems():
    async def main():
        system = _system()
        packed = system.servers[0]
        workers = [system.create_actor(Worker, server=packed)
                   for _ in range(6)]
        manager = _manager(system, BALANCE, [Worker])
        # The sim's tracer and invariant checker, on the live runtime's
        # clock.
        tracer = ElasticityTracer(manager.emr)
        tracer.attach()
        checker = InvariantChecker(manager.emr, tracer=tracer)
        checker.attach()
        started = []
        manager.emr.add_listener(
            lambda kind, detail: kind == "migration-started"
            and started.append(detail))
        manager.start()
        await _load(system, workers, seconds=6 * PERIOD_S)
        await manager.stop()

        log = manager.migration_log
        assert log, "the GEM decided no migration"
        # Only a GEM plans balance; only LEMs (never the root, never a
        # forced move) executed; every move names its EPL rule.
        assert {event.kind for event in log} == {"balance"}
        assert all(event.rule_line >= 1 for event in log)
        assert [d["issuer"] for d in started] == ["lem"] * len(log)
        assert sum(gem.rounds_processed for gem in manager.emr.gems) > 0
        assert (sum(lem.migrations_started
                    for lem in manager.emr.lems.values()) == len(log))
        assert log[0].src == packed.name
        # stop() waited the in-flight migrations out.
        assert system.migrations_completed == len(log)
        assert manager.migrations_started == len(log)
        assert all(system.actors_on(server) for server in system.servers)
        assert manager.rounds_run >= 3
        assert checker.checks_run > 0
        checker.assert_clean()
        # The tracer saw every completed move, stamped on the wall clock.
        moves = tracer.of_kind("migration")
        assert [(e.detail["src"], e.detail["dst"]) for e in moves] == \
            [(event.src, event.dst) for event in log]
        assert all(0.0 < e.time_ms <= system.now for e in moves)
        await system.shutdown()
    asyncio.run(main())


def test_pin_rule_keeps_a_hot_actor_in_place():
    async def main():
        system = _system()
        packed = system.servers[0]
        anchor = system.create_actor(Anchor, server=packed)
        workers = [system.create_actor(Worker, server=packed)
                   for _ in range(5)]
        manager = _manager(system, PIN_AND_BALANCE, [Anchor, Worker])
        manager.start()
        # The anchor is the hottest actor on the packed server: the
        # first candidate balance would pick, were it not pinned.
        load = asyncio.ensure_future(
            _load(system, [anchor], 5 * PERIOD_S, cpu_ms=20.0))
        await _load(system, workers, seconds=5 * PERIOD_S)
        await load
        await manager.stop()

        assert system.directory.lookup(anchor.actor_id).pinned
        assert system.server_of(anchor) is packed
        moved = {event.actor.actor_id for event in manager.migration_log}
        assert moved and anchor.actor_id not in moved
        await system.shutdown()
    asyncio.run(main())


def test_colocate_pulls_a_partner_across_servers_once_per_period():
    async def main():
        system = _system(servers=2)
        first, second = system.servers
        item = system.create_actor(Item, server=second)
        owner = system.create_actor(Owner, item, server=first)
        manager = _manager(system, COLOCATE, [Owner, Item])
        # The period timer stays unarmed: every round below is forced.
        manager.emr.start()

        # Placement stability: nothing moves in its first period.
        manager.run_round()
        await asyncio.sleep(0.05)
        assert not manager.migration_log

        await asyncio.sleep(PERIOD_S)
        manager.run_round()
        await asyncio.sleep(0.05)
        assert _placement(system, [owner, item]) == [0, 0]
        (event,) = manager.migration_log
        assert (event.kind, event.src, event.dst, event.rule_line) == (
            "colocate", second.name, first.name, 1)

        # The owner is moved away by hand.  The rule wants the item to
        # follow at once, but it was placed less than a period ago.
        assert await system.migrate_actor(owner, second, force=True)
        manager.run_round()
        await asyncio.sleep(0.05)
        assert _placement(system, [owner, item]) == [1, 0]
        assert len(manager.migration_log) == 1

        await asyncio.sleep(PERIOD_S)
        manager.run_round()
        await asyncio.sleep(0.05)
        await manager.stop()
        assert _placement(system, [owner, item]) == [1, 1]
        earlier, later = manager.migration_log
        assert later.actor == earlier.actor == item
        assert later.time_ms - earlier.time_ms >= PERIOD_MS
        await system.shutdown()
    asyncio.run(main())


def test_failing_control_callback_is_reported_by_stop():
    async def main():
        system = _system(servers=1)
        system.create_actor(Worker)
        manager = _manager(system, BALANCE, [Worker])
        manager.start()

        def broken(records):
            raise RuntimeError("snapshot failed")
        manager.emr.profiler.snapshot_actors = broken
        loop = asyncio.get_running_loop()
        logged = []
        loop.set_exception_handler(
            lambda _loop, context: logged.append(context))
        await asyncio.sleep(2.5 * PERIOD_S)
        # The round that raised ended the loop instead of retrying
        # forever, the loop's handler saw it at once, and stop() hands
        # it to whoever owns the manager.
        assert manager.rounds_run == 1
        assert isinstance(logged[0]["exception"], RuntimeError)
        with pytest.raises(RuntimeError, match="snapshot failed"):
            await manager.stop()
        await manager.stop()  # reported once
        await system.shutdown()
    asyncio.run(main())


def test_stop_leaves_nothing_on_the_event_loop():
    async def main():
        system = _system()
        workers = [system.create_actor(Worker, server=system.servers[0])
                   for _ in range(6)]
        baseline = asyncio.all_tasks()
        manager = _manager(system, BALANCE, [Worker])
        manager.start()
        await _load(system, workers, seconds=2.5 * PERIOD_S)
        assert system._timers, "no control timer pending mid-run"
        # Stop in the middle of a round: REPORTs out, migrations flying.
        manager.run_round()
        await asyncio.sleep(PERIOD_S * 0.15)
        await manager.stop()

        assert not manager.running
        assert asyncio.all_tasks() == baseline
        assert not system._timers and not system._migrations
        assert system.placement_policy is None
        assert manager.emr.profiler not in system.hooks
        assert not any(system.directory.lookup(ref.actor_id).migrating
                       for ref in workers)
        rounds = manager.rounds_run
        await asyncio.sleep(1.5 * PERIOD_S)
        assert manager.rounds_run == rounds
        await system.shutdown()
    asyncio.run(main())


def test_fleet_verbs_and_rule_aware_placement():
    async def main():
        system = _system(servers=2)
        hot_server, calm_server = system.servers
        hot = system.create_actor(Worker, server=hot_server)
        for _ in range(2):
            system.create_actor(Worker, server=calm_server)
        manager = _manager(system, BALANCE, [Worker])
        tracer = ElasticityTracer(manager.emr)
        tracer.attach()
        manager.start()
        assert set(manager.emr.lems) == {s.server_id for s in system.servers}

        # Placement of a new actor follows the balance rule (least CPU),
        # not the fewest-actors default, while the EMR is installed.
        await _load(system, [hot], seconds=PERIOD_S, cpu_ms=20.0)
        assert system.server_of(system.create_actor(Worker)) is calm_server

        # A server that joins mid-run gets its LEM; a retired one leaves
        # the fleet the EMR sees.
        system.boot_server()
        joined = system.servers[-1]
        assert system.pending_boots() == 0
        assert joined.server_id in manager.emr.lems
        system.retire_server(joined)
        assert joined not in system.running_servers()
        assert [(e.kind, e.detail["server"]) for e in tracer.events
                if e.kind.startswith("server-")] == [
            ("server-joined", joined.name), ("server-retired", joined.name)]
        manager.run_round()  # skips the retired server's LEM
        await manager.stop()
        assert system.server_of(system.create_actor(Worker)) is hot_server
        await system.shutdown()
    asyncio.run(main())
