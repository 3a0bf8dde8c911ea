"""Unit tests for the asyncio actor runtime.

The live runtime's contract mirrors the simulator's: one message at a
time per actor, bounded-mailbox shedding for client traffic only, and a
two-phase migration that loses no messages and preserves per-actor
order.  No pytest-asyncio here — each test owns its loop via
``asyncio.run`` (the runtime requires a running loop, nothing more).
"""

import asyncio

import pytest

from repro.actors import RuntimeHooks
from repro.actors.message import Overloaded
from repro.live import LiveActor, LiveActorSystem
from repro.live.system import ActorGone


class Echo(LiveActor):
    state_size_mb = 1.0

    async def ping(self, value):
        await self.compute(0.1)
        return ("pong", value)

    def poke(self):
        return "ok"


class Recorder(LiveActor):
    """Appends every payload it sees; order is the whole point."""

    state_size_mb = 0.2
    seen: tuple = ()

    def __init__(self):
        super().__init__()
        self.log = []

    async def note(self, value):
        self.log.append(value)

    async def slow_note(self, value):
        await asyncio.sleep(0.005)
        self.log.append(value)


class Boom(LiveActor):
    async def explode(self):
        raise RuntimeError("boom")


def _system(servers=2, **kwargs):
    system = LiveActorSystem(transfer_ms_per_mb=1.0, **kwargs)
    for _ in range(servers):
        system.add_server()
    return system


def test_create_call_and_tell_round_trip():
    async def main():
        system = _system()
        ref = system.create_actor(Echo)
        assert await system.client_call(ref, "ping", 7) == ("pong", 7)
        assert await system.client_call(ref, "poke") == "ok"

        sink = system.create_actor(Recorder)
        relay = system.create_actor(Echo)
        # actor→actor tell via the instance API
        instance = system.actor_instance(relay)
        for i in range(5):
            instance.tell(sink, "note", i)
        assert await system.quiesce(1.0)
        assert system.actor_instance(sink).log == [0, 1, 2, 3, 4]
        assert system.messages_delivered == 2 + 5
        await system.shutdown()
    asyncio.run(main())


def test_least_loaded_placement_and_explicit_server():
    async def main():
        system = _system(servers=2)
        refs = [system.create_actor(Echo) for _ in range(4)]
        counts = sorted(len(system.actors_on(s)) for s in system.servers)
        assert counts == [2, 2]
        pinned_server = system.servers[1]
        ref = system.create_actor(Echo, server=pinned_server)
        assert system.server_of(ref) is pinned_server
        del refs
        await system.shutdown()
    asyncio.run(main())


def test_handler_exception_fails_reply_and_counts():
    async def main():
        system = _system(servers=1)
        ref = system.create_actor(Boom)
        with pytest.raises(RuntimeError, match="boom"):
            await system.client_call(ref, "explode")
        assert system.handler_errors == 1
        # The dispatch loop survives the error.
        await system.shutdown()
    asyncio.run(main())


def test_missing_actor_raises_actor_gone():
    async def main():
        system = _system(servers=1)
        ref = system.create_actor(Echo)
        system.destroy_actor(ref)
        with pytest.raises(ActorGone):
            await system.client_call(ref, "ping", 1)
        await system.shutdown()
    asyncio.run(main())


def test_bounded_mailbox_sheds_client_traffic_only():
    async def main():
        system = _system(servers=1, mailbox_capacity=2)
        ref = system.create_actor(Recorder)
        # Synchronous burst: nothing dispatched until we await, so the
        # mailbox fills and the overflow NACKs.
        futures = [system.client_call(ref, "note", i) for i in range(6)]
        results = await asyncio.gather(*futures)
        shed = [r for r in results if isinstance(r, Overloaded)]
        assert len(shed) == 4 and all(r.reason == "shed" for r in shed)
        assert system.messages_shed == 4
        # Actor→actor tells bypass the cap entirely.
        other = system.create_actor(Echo)
        instance = system.actor_instance(other)
        for i in range(10):
            instance.tell(ref, "note", 100 + i)
        assert await system.quiesce(1.0)
        assert system.messages_shed == 4
        log = system.actor_instance(ref).log
        assert [v for v in log if v >= 100] == list(range(100, 110))
        await system.shutdown()
    asyncio.run(main())


def test_migration_preserves_order_and_loses_nothing():
    async def main():
        system = _system(servers=2)
        source = system.servers[0]
        target = system.servers[1]
        ref = system.create_actor(Recorder, server=source)

        async def feed():
            for i in range(40):
                fut = system.client_call(ref, "slow_note", i)
                await asyncio.sleep(0.001)
                del fut

        feeder = asyncio.ensure_future(feed())
        await asyncio.sleep(0.01)  # mid-stream
        moved = await system.migrate_actor(ref, target)
        assert moved is True
        await feeder
        assert await system.quiesce(2.0)

        record = system.directory.lookup(ref.actor_id)
        assert record.server is target
        assert record.migrations == 1
        assert not record.migrating
        assert system.migrations_completed == 1
        # Every message arrived, exactly once, in send order.
        assert system.actor_instance(ref).log == list(range(40))
        # Memory ledger moved with the actor.
        assert source.memory_used_mb == pytest.approx(0.0)
        assert target.memory_used_mb == pytest.approx(Recorder.state_size_mb)
        await system.shutdown()
    asyncio.run(main())


def test_migration_refusals():
    async def main():
        system = _system(servers=2)
        ref = system.create_actor(Echo, server=system.servers[0])
        # No-op move to the same server.
        assert not await system.migrate_actor(ref, system.servers[0])
        # Pinned: refused without force, allowed with.
        system.pin(ref, True)
        assert not await system.migrate_actor(ref, system.servers[1])
        assert await system.migrate_actor(ref, system.servers[1],
                                          force=True)
        system.pin(ref, False)
        # Target not running.
        system.servers[0].shutdown()
        assert not await system.migrate_actor(ref, system.servers[0])
        assert system.migrations_refused == 3
        assert system.migrations_completed == 1
        await system.shutdown()
    asyncio.run(main())


def test_concurrent_migration_of_same_actor_is_refused():
    async def main():
        system = _system(servers=3)
        ref = system.create_actor(Echo, server=system.servers[0])
        first = asyncio.ensure_future(
            system.migrate_actor(ref, system.servers[1]))
        await asyncio.sleep(0)  # let it reach the transfer sleep
        second = await system.migrate_actor(ref, system.servers[2])
        assert second is False
        assert await first is True
        assert system.server_of(ref) is system.servers[1]
        await system.shutdown()
    asyncio.run(main())


def test_actor_calls_keep_working_across_migration():
    async def main():
        system = _system(servers=2)
        ref = system.create_actor(Echo, server=system.servers[0])

        async def chatter():
            results = []
            for i in range(30):
                results.append(await system.client_call(ref, "ping", i))
            return results

        task = asyncio.ensure_future(chatter())
        await asyncio.sleep(0.005)
        assert await system.migrate_actor(ref, system.servers[1])
        results = await task
        assert results == [("pong", i) for i in range(30)]
        await system.shutdown()
    asyncio.run(main())


def test_compute_charges_hosting_server():
    async def main():
        system = _system(servers=1)
        server = system.servers[0]
        ref = system.create_actor(Echo)
        await system.client_call(ref, "ping", 1)
        # ping computes 0.1 ms; the meter saw exactly that charge.
        assert server.cpu_meter.total(10_000.0) == pytest.approx(0.1)
        await system.shutdown()
    asyncio.run(main())


def test_spawn_record_copies_constructor_arguments_and_starts_before_hooks():
    class Tagged(LiveActor):
        started = False

        def __init__(self, tags, extra=None):
            self.tags = tags
            self.extra = extra

        def on_start(self):
            self.started = True

    class Watcher(RuntimeHooks):
        def on_actor_created(self, record):
            # Same order as the simulator: on_start() ran first.
            self.saw_started = record.instance.started

    async def main():
        system = _system(servers=1)
        watcher = Watcher()
        system.add_hooks(watcher)
        tags, extra = ["a"], {"k": [1]}
        ref = system.create_actor(Tagged, tags, extra=extra)
        tags.append("b")
        extra["k"].append(2)
        record = system.directory.lookup(ref.actor_id)
        assert record.spawn_args == (["a"],)
        assert record.spawn_kwargs == {"extra": {"k": [1]}}
        assert watcher.saw_started is True
        await system.shutdown()
    asyncio.run(main())


def test_idle_actors_hold_no_task():
    async def main():
        system = _system(servers=2)
        baseline = asyncio.all_tasks()
        refs = [system.create_actor(Echo) for _ in range(64)]
        await asyncio.sleep(0)
        assert asyncio.all_tasks() == baseline
        cells = [system.directory.lookup(ref.actor_id).cell for ref in refs]
        assert all(cell.task is None for cell in cells)
        # A message starts one drain task, which ends with the mailbox.
        reply = system.client_call(refs[0], "poke")
        assert cells[0].task is not None
        assert len(asyncio.all_tasks() - baseline) == 1
        assert await reply == "ok"
        assert cells[0].task is None
        assert asyncio.all_tasks() == baseline
        await system.shutdown()
    asyncio.run(main())


def test_destroyed_actors_leave_no_bookkeeping_behind():
    async def main():
        system = _system(servers=2)
        keeper = system.create_actor(Echo)
        baseline = asyncio.all_tasks()
        refs = [system.create_actor(Echo) for _ in range(100)]
        records = [system.directory.lookup(ref.actor_id) for ref in refs]
        for ref in refs:
            assert await system.client_call(ref, "poke") == "ok"
        for ref in refs:
            system.destroy_actor(ref)
        # All runtime state hangs off the record's cell, and a destroyed
        # record has none; only the keeper is left in the directory.
        assert all(record.cell is None for record in records)
        assert [r.ref for r in system.directory.records()] == [keeper]
        # The dispatch tasks themselves end on their own, without
        # shutdown() having to cancel them.
        await asyncio.sleep(0.01)
        assert asyncio.all_tasks() == baseline
        assert await system.client_call(keeper, "poke") == "ok"
        await system.shutdown()
    asyncio.run(main())
