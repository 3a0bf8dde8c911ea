"""Differential: callback dispatch and core counters vs the process oracle.

The simulated runtime's dispatcher is a callback state machine on each
actor's cell, and a server's cores are a free-core count.  Both replaced
generator processes (an actor's dispatch loop on a ``Queue`` mailbox, a
``_core_loop`` per vCPU), which survive in ``dispatch_oracle.py``.  The
replacement is admissible only if it is indistinguishable: the same
handlers run at the same instants with the same replies, and the kernel
sees the same ``schedule`` calls in the same order — so every golden
digest, and every event count the benchmark reports, stays where it was.

Each program runs once per design, on a fresh runtime whose ids count
from 1, and the two runs' logs and ``schedule`` call sequences must be
equal.  The seeded random programs mix plain, generator
(``compute``/``call``/``sleep``) and raising handlers with messages put
before a dispatcher's first arm event, migrations mid-handler, destroys
with a delivery in flight, server crashes and resurrections, and raw CPU
jobs under ``set_speed_factor`` and ``shutdown`` mid-queue.  Program
draws come from the seed *as the program runs*, so the first divergence
snowballs into an obvious log mismatch.
"""

import random
from collections import Counter

import pytest

from repro.actors import Actor, ActorSystem
from repro.actors.message import CLIENT_KIND, Message
from repro.cluster import Provisioner
from repro.fuzz import generate_scenario, run_scenario
from repro.overload import OverloadConfig, OverloadManager
from repro.sim import Interrupted, Signal, Simulator

import dispatch_oracle
import test_migration_supersession as supersession

IMPLS = ("callbacks", "oracle")


def run_on(impl, program, *args):
    """``program(*args)`` on one design: its log, and the delay (or
    absolute time) of every ``schedule`` (``schedule_at``) call in call
    order — which the two designs' callbacks cannot name alike, but must
    issue alike."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "oracle":
            dispatch_oracle.install(patch)
        calls = []
        for name in ("schedule", "schedule_at"):
            original = getattr(Simulator, name)

            def counted(self, when, *rest, _original=original, _name=name):
                calls.append((_name, when))
                return _original(self, when, *rest)

            patch.setattr(Simulator, name, counted)
        observed = program(*args)
    return observed, calls


def diff(program, *args):
    """Run ``program`` on both designs, require identical runs, and
    return the callback design's log."""
    (ours, our_calls), (oracle, oracle_calls) = (
        run_on(impl, program, *args) for impl in IMPLS)
    assert ours == oracle
    assert len(our_calls) == len(oracle_calls)
    assert our_calls == oracle_calls
    return ours


# -- the actor program ------------------------------------------------------

class Boom(Exception):
    """A handler's deliberate failure."""


class Worker(Actor):
    """Every kind of handler the dispatcher distinguishes."""

    state_size_mb = 4.0
    #: The running program's log (class-level: a resurrection rebuilds
    #: the instance from deep-copied constructor arguments).
    log = None

    def __init__(self, tag):
        self.tag = tag
        self.served = 0

    def _note(self, function):
        self.served += 1
        Worker.log.append((self._system.sim.now, "serve", self.actor_id,
                           self.tag, function, self.served))

    def plain(self, value):
        self._note("plain")
        return (self.tag, value)

    def crunch(self, cpu_ms):
        self._note("crunch")
        busy = yield self.compute(cpu_ms)
        return busy

    def nap(self, delay_ms):
        self._note("nap")
        yield self.sleep(delay_ms)
        return delay_ms

    def ask(self, ref, function, arg):
        self._note("ask")
        result = yield self.call(ref, function, arg)
        yield self.compute(0.5)
        return result

    def fan(self, refs):
        self._note("fan")
        for ref in refs:
            self.tell(ref, "plain", self.tag)
        return len(refs)

    def boom(self):
        self._note("boom")
        raise Boom(self.tag)

    def late_boom(self, cpu_ms):
        self._note("late_boom")
        yield self.compute(cpu_ms)
        raise Boom(self.tag)

    def halt(self):
        self._note("halt")
        raise Interrupted("halt")  # ends the dispatcher silently


FUNCTIONS = ("plain", "plain", "plain", "crunch", "crunch", "crunch", "nap",
             "ask", "ask", "fan", "boom", "late_boom", "halt", "nosuch")
TYPES = ("m1.small", "m5.large", "m5.large", "m1.small")


def build(log):
    """Four booted servers (one and two vCPUs) and an actor system."""
    Worker.log = log
    sim = Simulator()
    provisioner = Provisioner(sim)
    servers = []
    provisioner.add_join_listener(servers.append)
    for type_name in TYPES:
        provisioner.boot_server(type_name, immediate=True)
    sim.run()
    return sim, ActorSystem(sim, provisioner), servers


def post(system, ref, function, *args):
    """Put a client message into ``ref``'s mailbox *now* — not one
    fabric hop from now — and return its reply signal."""
    reply = Signal(system.sim)
    record = system.directory.try_lookup(ref.actor_id)
    if record is None:
        return reply
    system._deliver(Message(
        message_id=next(system._message_ids), target_id=ref.actor_id, function=function, args=args,
        caller_kind=CLIENT_KIND, caller_id=None, size_bytes=64.0,
        reply=reply, sent_at=system.sim.now), record.server)
    return reply


def watch(sim, log, kind, ident, signal):
    signal._subscribe(
        lambda value: log.append((sim.now, kind, ident, repr(value))))


def run_to(sim, log, until):
    """Run to ``until``; a handler's exception ends a ``run`` call, so
    log it and carry on."""
    while True:
        try:
            sim.run(until=until)
            return
        except (Boom, AttributeError) as error:
            log.append((sim.now, "raised", type(error).__name__, str(error)))


def random_program(seed, coverage):
    """One seeded program; ``coverage`` counts (on the callback design
    only) the dispatcher states the program reached."""
    rng = random.Random(seed)
    log = []
    sim, system, servers = build(log)
    provisioner = system.provisioner
    if rng.random() < 0.5:
        # Co-located sends then land in the same instant (one zero-delay
        # hop), interleaving with the dispatchers' own hops.
        system.fabric.local_latency_ms = 0.0
    if rng.random() < 0.5:
        # Admission, bounded mailboxes and the disposition ledger, which
        # reads the depth and counts each message the dispatcher takes.
        system.overload = OverloadManager(system, OverloadConfig(
            mailbox_capacity=rng.choice((0, 2, 4)),
            policy=rng.choice(("shed", "block")),
            admission_queue_depth=rng.choice((0, 3))))
    refs, tombstones = [], []

    def running():
        return [server for server in provisioner.servers if server.running]

    def args_for(function):
        if function in ("crunch", "late_boom"):
            return (rng.choice((0.0, 0.5, 3.0, 12.0)),)
        if function == "nap":
            return (rng.choice((0.0, 1.0, 7.0)),)
        if function == "ask":
            return (rng.choice(refs), rng.choice(("plain", "crunch", "nap")),
                    1.0)
        if function == "fan":
            return (rng.sample(refs, min(3, len(refs))),)
        if function == "plain":
            return (rng.randrange(100),)
        return ()

    def post_one(ref):
        record = system.directory.try_lookup(ref.actor_id)
        if record is None:
            return
        if not record.cell.armed and record.created_at == sim.now:
            coverage["put-before-first-arm"] += 1
        function = rng.choice(FUNCTIONS)
        watch(sim, log, "posted", (ref.actor_id, function),
              post(system, ref, function, *args_for(function)))
        log.append((sim.now, "depth", ref.actor_id,
                    system.mailbox_depth(ref.actor_id)))

    def create():
        ref = system.create_actor(Worker, len(refs),
                                  server=rng.choice(running()))
        refs.append(ref)
        return ref

    def call():
        ref = rng.choice(refs)
        function = rng.choice(FUNCTIONS)
        watch(sim, log, "reply", (ref.actor_id, function),
              system.client_call(ref, function, *args_for(function)))

    def post_any():
        post_one(rng.choice(refs))

    def create_and_post():
        post_one(create())  # before the new dispatcher's arm event

    def migrate():
        ref = rng.choice(refs)
        record = system.directory.try_lookup(ref.actor_id)
        if record is not None and record.cell.busy:
            coverage["migrate-mid-handler"] += 1
        watch(sim, log, "migrated", ref.actor_id,
              system.migrate_actor(ref, rng.choice(running())))

    def destroy():
        ref = rng.choice(refs)
        if rng.random() < 0.6:
            post_one(ref)
        record = system.directory.try_lookup(ref.actor_id)
        if record is not None and record.cell.handed is not None:
            coverage["reclaim"] += 1
        system.destroy_actor(ref)

    def crash():
        if len(running()) > 2:
            server = rng.choice(running())
            tombstones.extend(system.actors_on(server))
            system.crash_server(server)

    def resurrect():
        if tombstones:
            tombstone = tombstones.pop(rng.randrange(len(tombstones)))
            ref = system.resurrect_actor(tombstone,
                                         server=rng.choice(running()))
            if ref is not None and rng.random() < 0.7:
                post_one(ref)

    def boot():
        provisioner.boot_server(rng.choice(TYPES), immediate=True)

    def limp():
        rng.choice(running()).set_speed_factor(
            rng.choice((0.25, 0.5, 1.0, 2.0)))

    def burn(server=None):
        server = server or rng.choice(running())
        for _ in range(rng.randint(1, 4)):
            watch(sim, log, "job", server.name,
                  server.execute(rng.choice((0.0, 1.0, 5.0, 20.0))))

    def shut_down_mid_queue():
        if len(running()) > 2:
            server = rng.choice(running())
            burn(server)
            if server.run_queue_length():
                coverage["shutdown-mid-queue"] += 1
            server.shutdown()
            burn(server)  # never runs

    for _ in range(8):
        create()
    ops = ([call] * 8 + [post_any] * 4 + [migrate] * 3
           + [destroy, crash, resurrect, resurrect, create_and_post, boot,
              limp, burn, burn, shut_down_mid_queue])
    for _ in range(200):
        sim.schedule(5.0 * rng.randrange(120), rng.choice(ops))
    run_to(sim, log, 2_000.0)

    for ref in refs:
        record = system.directory.try_lookup(ref.actor_id)
        log.append(("final", ref.actor_id, None if record is None else (
            record.server.name, system.mailbox_depth(ref.actor_id),
            record.cell.busy, record.migrating)))
    for server in servers:
        log.append(("server", server.name, server.running,
                    server.run_queue_length(),
                    server.cpu_meter.lifetime_total))
    if system.overload is not None:
        log.append(("ledger", system.overload.ledger.issued,
                    system.overload.ledger.counts,
                    system.overload.peak_mailbox_depth))
    log.append(("clock", sim.now, sim.pending_events()))
    return log


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_program_matches_the_oracle(seed):
    diff(random_program, seed, Counter())


def test_random_programs_reach_every_dispatcher_state():
    # Guard against a vacuous differential: over the seeds, the programs
    # must reach the states the callbacks treat specially.
    coverage = Counter()
    kinds = Counter()
    for seed in SEEDS:
        for entry in random_program(seed, coverage):
            summary = entry[0] in ("final", "server", "ledger", "clock")
            kinds[entry[0] if summary else entry[1]] += 1
    assert min(coverage[state] for state in (
        "put-before-first-arm", "migrate-mid-handler", "reclaim",
        "shutdown-mid-queue")) >= 3, coverage
    assert kinds["raised"] >= 100 and kinds["serve"] >= 500, kinds


# -- the mailbox contract -----------------------------------------------------

def destroy_with_a_delivery_in_flight(backlog):
    """An idle, armed actor is handed one message and queues
    ``backlog`` more; it is destroyed within the same instant."""
    log = []
    sim, system, _servers = build(log)
    ref = system.create_actor(Worker, 0, server=system.provisioner.servers[0])
    sim.run(until=1.0)

    def scramble():
        for index in range(1 + backlog):
            watch(sim, log, "reply", index, post(system, ref, "plain", index))
            log.append(("depth", system.mailbox_depth(ref.actor_id)))
        system.destroy_actor(ref)

    sim.schedule(4.0, scramble)
    sim.run()
    log.append(("clock", sim.now, sim.pending_events()))
    return log


def test_destroy_reclaims_the_delivery_in_flight():
    # The message handed to the armed dispatcher is in flight for the
    # rest of the instant; destroy reclaims it — the handler never sees
    # it, its caller gets None — and the dispatcher, waiting again, is
    # handed the stop in its place (one more hop, as on the oracle).
    log = diff(destroy_with_a_delivery_in_flight, 0)
    assert log == [("depth", 0), (5.0, "reply", 0, "None"),
                   ("clock", 5.0, 0)]


def test_destroy_fails_the_delivery_in_flight_before_the_backlog():
    # The depth excludes the handed-over message; the callers are failed
    # in-flight first, then the backlog in order.
    log = diff(destroy_with_a_delivery_in_flight, 2)
    assert log == [("depth", 0), ("depth", 1), ("depth", 2),
                   (5.0, "reply", 0, "None"), (5.0, "reply", 1, "None"),
                   (5.0, "reply", 2, "None"), ("clock", 5.0, 0)]


# -- the zombie-handler regressions, on both designs --------------------------

ZOMBIE_TESTS = ("test_zombie_handler_cannot_clear_live_busy_flag",
                "test_zombie_handler_cannot_drop_live_inflight_message",
                "test_zombie_compute_is_not_booked_on_the_new_server")


@pytest.mark.parametrize("name", ZOMBIE_TESTS)
def test_zombie_handler_regressions_match_the_oracle(name):
    def program():
        getattr(supersession, name)()
        return "passed"
    assert diff(program) == "passed"


# -- whole scenarios -----------------------------------------------------------

def fingerprint(profile, seed):
    result = run_scenario(generate_scenario(seed, profile))
    assert result.ok, result.summary()
    return (result.migrations, result.sim_time_ms, result.checks_run,
            result.messages_dropped, result.partition_drops,
            result.messages_shed, result.requests_rejected,
            result.dead_letters, result.state_restores,
            result.checkpoints_written, result.trace_tail)


@pytest.mark.parametrize("profile,seed", [("default", 53), ("overload", 14),
                                          ("scale-chaos", 14)])
def test_fuzz_scenario_matches_the_oracle(profile, seed):
    diff(fingerprint, profile, seed)
