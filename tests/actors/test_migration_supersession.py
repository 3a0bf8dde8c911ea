"""Regression: a resurrection superseding an aborted two-phase transfer.

Found by the fuzz "scale" profile: when a source server crashed
mid-transfer and the failure path resurrected the actor (same
``ActorRef``) fast enough to start a *new* migration before the old
transfer proc woke up, the old proc's abort handling operated on the
actor id rather than its own record — pruning the superseding
migration's in-progress entry and leaving the tombstone flagged
``migrating`` forever.  An incarnation's runtime state now lives on its
own record's cell (``ActorRecord.cell``), which a proc or handler left
over from a dead incarnation cannot reach; these tests pin that for the
prepared-copy note, the gate, the busy flag and the in-flight message,
plus the tombstone's ``migrating`` reset and the prompt-abort path when
an actor is destroyed while its migration drains the in-flight handler.
"""

from types import SimpleNamespace

from repro.actors import Actor, ActorSystem, Client
from repro.cluster import Provisioner
from repro.sim import Simulator, Timeout, spawn


class BigWorker(Actor):
    #: Large state => tens of milliseconds of transfer delay, a wide
    #: window to crash the source mid-protocol.
    state_size_mb = 64.0

    def __init__(self):
        self.processed = 0

    def work(self, duration):
        yield self.compute(duration)
        self.processed += 1
        return self.processed


def make_system(servers=3):
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    for _ in range(servers):
        prov.boot_server(immediate=True)
    sim.run()
    return sim, ActorSystem(sim, prov)


def test_resurrection_supersedes_aborted_transfer():
    sim, system = make_system()
    src, dst, spare = system.provisioner.servers
    ref = system.create_actor(BigWorker, server=src)
    old_record = system.directory.lookup(ref.actor_id)

    done_old = system.migrate_actor(ref, dst)
    sim.run(until=sim.now + 5.0)  # old proc is parked in its transfer
    assert old_record.cell.prepared_on is dst

    # Source dies mid-transfer; the old proc keeps sleeping on its
    # transfer timeout with a now-dead record.
    system.crash_server(src)
    assert system.directory.try_lookup(ref.actor_id) is None
    assert old_record.cell is None  # a tombstone holds no runtime state

    # Resurrect under the same ref and immediately re-migrate: the new
    # proc registers its own prepared entry for the same actor id.
    revived = system.resurrect_actor(old_record, server=spare)
    assert revived == ref
    new_record = system.directory.lookup(ref.actor_id)
    assert new_record is not old_record
    done_new = system.migrate_actor(ref, dst)
    sim.run(until=sim.now + 1.0)
    assert new_record.cell.prepared_on is dst

    # Let the old proc wake and abort: it must leave the superseding
    # migration's prepared-copy note in place.
    sim.run(until=sim.now + 60.0)
    assert done_old.value is False
    assert old_record.migrating is False  # tombstone flag reset
    if not done_new.value:
        assert new_record.cell.prepared_on is dst

    sim.run()
    assert done_new.value is True
    assert system.server_of(ref) is dst
    assert new_record.cell.prepared_on is None  # nothing lingers
    assert new_record.migrating is False
    assert new_record.cell.gate is None


def test_destroy_while_draining_aborts_promptly():
    sim, system = make_system(servers=2)
    src, dst = system.provisioner.servers
    ref = system.create_actor(BigWorker, server=src)
    record = system.directory.lookup(ref.actor_id)

    # Park the actor in a long handler, then migrate: the proc blocks on
    # the idle signal until the handler finishes.
    client = Client(system, name="driver")
    reply = client.call(ref, "work", 10_000.0)
    sim.run(until=sim.now + 50.0)
    done = system.migrate_actor(ref, dst)
    sim.run(until=sim.now + 50.0)
    assert record.migrating is True
    assert done.value is None  # still draining

    # Destroying the actor must wake the parked proc immediately — not
    # leak it until the (never-coming) handler completion.
    system.destroy_actor(ref)
    sim.run(until=sim.now + 1.0)
    assert done.value is False
    assert record.migrating is False
    assert record.cell is None
    assert reply.value is None  # in-flight caller got a None reply

    sim.run()
    assert system.directory.try_lookup(ref.actor_id) is None


def test_superseded_abort_does_not_clear_new_gate():
    """The old proc's abort path must not open the *new* record's
    mailbox gate."""
    sim, system = make_system()
    src, dst, spare = system.provisioner.servers
    ref = system.create_actor(BigWorker, server=src)
    old_record = system.directory.lookup(ref.actor_id)

    system.migrate_actor(ref, dst)
    sim.run(until=sim.now + 5.0)
    system.crash_server(src)
    system.resurrect_actor(old_record, server=spare)
    new_record = system.directory.lookup(ref.actor_id)
    done_new = system.migrate_actor(ref, dst)
    sim.run(until=sim.now + 1.0)
    # The new migration's gate is up while it transfers.
    assert new_record.cell.gate is not None

    sim.run()
    assert done_new.value is True
    assert system.server_of(ref) is dst
    assert new_record.cell.gate is None
    assert new_record.cell.prepared_on is None


class Asker(Actor):
    """Parks a handler on a call to another actor; ``work`` is a long
    compute, so the incarnation is visibly busy."""

    def ask(self, other, duration):
        result = yield self.call(other, "work", duration)
        yield self.compute(1.0)
        return result

    def work(self, duration):
        yield self.compute(duration)
        return "ok"


def zombie_scenario():
    """``A``'s handler is parked on a call to ``B`` when ``A``'s server
    crashes; ``A`` is resurrected under the same ref and starts a 5 s
    handler; then ``B``'s reply wakes the *dead* incarnation's handler,
    which runs to its end (including its ``finally``)."""
    sim, system = make_system()
    s1, s2, s3 = system.provisioner.servers
    a = system.create_actor(Asker, server=s1)
    b = system.create_actor(Asker, server=s2)
    old_record = system.directory.lookup(a.actor_id)
    client = Client(system, name="driver")
    client.call(a, "ask", b, 200.0)
    sim.run(until=sim.now + 20.0)
    assert old_record.cell.busy

    system.crash_server(s1)
    assert system.resurrect_actor(old_record, server=s3) == a
    record = system.directory.lookup(a.actor_id)
    work_reply = client.call(a, "work", 5_000.0)
    sim.run(until=sim.now + 50.0)
    assert record.cell.busy
    charged = s3.cpu_meter.lifetime_total

    sim.run(until=sim.now + 400.0)  # B replied; the zombie ran on
    return SimpleNamespace(sim=sim, system=system, a=a, s2=s2, s3=s3,
                           record=record, work_reply=work_reply,
                           charged=charged)


def test_zombie_handler_cannot_clear_live_busy_flag():
    z = zombie_scenario()
    # The live incarnation is still mid-handler, and says so: a
    # migration started now must drain it, not move the actor under it.
    assert z.record.cell.busy
    done = z.system.migrate_actor(z.a, z.s2)
    z.sim.run(until=z.sim.now + 1_000.0)
    assert z.work_reply.value is None and done.value is None
    z.sim.run()
    assert z.work_reply.value == "ok"
    assert done.value is True
    assert z.system.server_of(z.a) is z.s2


def test_zombie_handler_cannot_drop_live_inflight_message():
    z = zombie_scenario()
    # Destroying the live incarnation must still fail its in-flight
    # caller with a None reply.
    assert z.record.cell.current is not None
    z.system.destroy_actor(z.a)
    z.sim.run(until=z.sim.now + 1.0)
    assert z.work_reply.triggered and z.work_reply.value is None


def test_zombie_compute_is_not_booked_on_the_new_server():
    """The dead incarnation's trailing ``compute`` parks; it is neither
    run on nor metered against the server hosting the new incarnation
    (whose own single long compute was booked before ``charged``)."""
    z = zombie_scenario()
    assert z.s3.cpu_meter.lifetime_total == z.charged
