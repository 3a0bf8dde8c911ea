"""The per-server placement index against the scan it replaced.

``Directory.on_server`` used to be a pass over every record in the
fleet; it now answers from a ``server -> records hosted there`` index
that ``register``, ``unregister`` and ``place`` maintain.  The scan is
the oracle here: after every operation of a seeded random sequence, on
the flat and on the sharded directory, ``on_server(s)`` must hold the
same records (by identity) in the same order as the scan, for every
server — including ones never used and ones just emptied.
"""

import gc
import random
import time
import weakref

import pytest

from repro.actors import Actor, ActorSystem
from repro.actors.directory import ActorRecord, Directory
from repro.actors.refs import ActorRef
from repro.actors.sharded_directory import ShardedDirectory
from repro.cluster import Provisioner
from repro.sim import Simulator


class _Host:
    """As much of a server as the directory looks at."""

    def __init__(self, server_id):
        self.server_id = server_id
        self.name = f"host-{server_id}"


def _record(actor_id, server):
    return ActorRecord(instance=None, ref=ActorRef(actor_id, "T"),
                       server=server, created_at=0.0)


def _scan(directory, server):
    return [r for r in directory.records() if r.server is server]


def _same_records(left, right):
    """Same records by identity, in the same order."""
    return (len(left) == len(right)
            and all(a is b for a, b in zip(left, right)))


def _assert_index_is_the_scan(directory, servers):
    for server in servers:
        scanned = _scan(directory, server)
        assert _same_records(directory.on_server(server), scanned), \
            server.name
        assert directory.count_on(server) == len(scanned), server.name


DIRECTORIES = {
    "flat": Directory,
    "sharded": lambda: ShardedDirectory(shards=3, virtual_nodes=4),
}


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
@pytest.mark.parametrize("seed", range(6))
def test_index_equals_scan_after_every_operation(kind, seed):
    rng = random.Random(seed)
    directory = DIRECTORIES[kind]()
    sharded = kind == "sharded"
    servers = [_Host(i) for i in range(8)]
    used = servers[:6]          # servers[6:] never host anything
    if sharded:
        directory.bind_hosts(used)
    tombstones = []
    next_shard = 100

    def live():
        return list(directory.records())

    for _ in range(400):
        op = rng.choice(("register", "register", "unregister", "place",
                         "place", "resurrect", "reregister",
                         "place-tombstone", "add-shard", "remove-shard",
                         "host-crashed"))
        if op == "register":
            actor_id = rng.randrange(60)
            if directory.try_lookup(actor_id) is None:
                directory.register(_record(actor_id, rng.choice(used)))
        elif op == "unregister":
            actor_id = rng.randrange(60)      # absent ids are a no-op
            record = directory.try_lookup(actor_id)
            directory.unregister(actor_id)
            if record is not None:
                tombstones.append(record)
        elif op == "place" and live():
            # Any server, including the current one and the spares.
            directory.place(rng.choice(live()), rng.choice(used))
        elif op == "resurrect" and live():
            dead = rng.choice(live())
            directory.unregister(dead.ref.actor_id)
            tombstones.append(dead)
            directory.register(_record(dead.ref.actor_id, rng.choice(used)))
        elif op == "reregister" and live():
            record = rng.choice(live())
            directory.unregister(record.ref.actor_id)
            directory.register(record)
        elif op == "place-tombstone" and tombstones:
            dead = rng.choice(tombstones)
            if directory.try_lookup(dead.ref.actor_id) is not dead:
                target = rng.choice(used)
                directory.place(dead, target)
                assert dead.server is target
                assert all(r is not dead for r in directory.on_server(target))
        elif op == "add-shard" and sharded:
            directory.add_shard(next_shard)
            next_shard += 1
        elif op == "remove-shard" and sharded:
            # Host-bound shards leave through ``note_host_crashed``.
            unbound = [shard for shard in directory.shard_ids()
                       if directory.shard_host(shard) is None]
            if unbound and len(directory.shard_ids()) > 1:
                directory.remove_shard(rng.choice(unbound))
        elif op == "host-crashed" and sharded:
            directory.note_host_crashed(rng.choice(used).server_id)
        _assert_index_is_the_scan(directory, servers)
        if sharded:
            assert directory.coverage_errors() == []


def test_resurrected_id_sorts_last_and_a_migrant_by_registration_rank():
    directory = Directory()
    s1, s2 = _Host(1), _Host(2)
    a, b, c = (_record(i, s1) for i in range(3))
    d = _record(3, s2)
    for record in (a, b, c, d):
        directory.register(record)
    directory.place(a, s2)          # arrives after d, registered before it
    assert [r.ref.actor_id for r in directory.on_server(s2)] == [0, 3]
    directory.unregister(1)
    reborn = _record(1, s1)
    directory.register(reborn)      # same id, re-enters at the end
    assert directory.on_server(s1) == [c, reborn]
    _assert_index_is_the_scan(directory, [s1, s2])


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_on_server_hands_out_a_list_of_the_callers_own(kind):
    directory = DIRECTORIES[kind]()
    server = _Host(1)
    records = [_record(i, server) for i in range(5)]
    for record in records:
        directory.register(record)
    first = directory.on_server(server)
    first.sort(key=lambda r: -r.ref.actor_id)
    first.clear()
    again = directory.on_server(server)
    assert again is not first
    assert _same_records(again, records)
    # Walking the result while the walked actors die, as crash_server does.
    for record in again:
        directory.unregister(record.ref.actor_id)
    assert directory.on_server(server) == []
    assert directory.count_on(server) == 0


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_an_emptied_server_is_not_kept_alive_by_the_index(kind):
    directory = DIRECTORIES[kind]()
    gone, stays = _Host(1), _Host(2)
    probe = weakref.ref(gone)
    left, moved = _record(1, gone), _record(2, gone)
    directory.register(left)
    directory.register(moved)
    directory.unregister(1)
    directory.place(moved, stays)
    del gone, left
    gc.collect()
    assert probe() is None


def test_sharded_directory_inherits_the_index_unchanged():
    for name in ("on_server", "count_on", "place"):
        assert name not in vars(ShardedDirectory), name


def test_on_server_cost_follows_the_server_not_the_fleet():
    # The same 16-actor server inside a 200-record and a 20,000-record
    # directory.  The scan was ~100x slower on the large one; the index
    # must stay within 5x (no stopwatch precision needed).
    def build(total):
        directory = Directory()
        target = _Host(0)
        others = [_Host(i) for i in range(1, 1 + total // 16)]
        on_target = set(list(range(0, total, total // 16))[:16])
        for actor_id in range(total):
            server = (target if actor_id in on_target
                      else others[actor_id % len(others)])
            directory.register(_record(actor_id, server))
        assert directory.count_on(target) == 16
        return directory, target

    def fastest(directory, target):
        best = float("inf")
        for _ in range(7):
            started = time.perf_counter()
            for _ in range(300):
                directory.on_server(target)
            best = min(best, time.perf_counter() - started)
        return best

    small = fastest(*build(200))
    large = fastest(*build(20_000))
    assert large < 5 * small, (small, large)


# -- through the real runtime ---------------------------------------------

class Worker(Actor):
    def ping(self):
        return "pong"


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_create_migrate_crash_resurrect_keeps_actors_on_equal_to_scan(kind):
    sim = Simulator()
    provisioner = Provisioner(sim, default_type="m5.large")
    for _ in range(3):
        provisioner.boot_server(immediate=True)
    sim.run()
    system = ActorSystem(sim, provisioner, directory=DIRECTORIES[kind]())
    s1, s2, s3 = servers = list(provisioner.servers)

    def check():
        for server in servers:
            assert _same_records(system.actors_on(server),
                                 _scan(system.directory, server))

    ref = system.create_actor(Worker, server=s1)
    bystander = system.create_actor(Worker, server=s2)
    check()
    assert [r.ref for r in system.actors_on(s1)] == [ref]

    system.migrate_actor(ref, s2)
    sim.run()
    check()
    # The migrant registered before the bystander, so it sorts first.
    assert [r.ref for r in system.actors_on(s2)] == [ref, bystander]
    assert system.actors_on(s1) == []

    tombstone = system.directory.lookup(ref.actor_id)
    system.crash_server(s2)
    check()
    assert system.actors_on(s2) == []

    assert system.resurrect_actor(tombstone, server=s3) == ref
    check()
    assert [r.ref for r in system.actors_on(s3)] == [ref]
    assert tombstone.server is s2      # the dead incarnation stays put
