"""Differential harness: the production kernel vs a binary-heap oracle.

The production kernel (``repro.sim.Simulator``) is only admissible if it
is *indistinguishable* from a plain ``(timestamp, insertion order)``
heap: same callbacks, in the same order, at the same ``now``, for any
schedule.  The heap used to be a selectable kernel in ``src/``; it now
lives beside this file (``heap_oracle.py``) purely as the oracle.  These
tests run randomized seeded schedule programs against both and diff the
full pop trajectory.
Shapes are chosen to hit every storage class of the production kernel:

- **dense** sub-millisecond delays (many distinct timestamps in the
  timestamp heap, each with a short list),
- **sparse** multi-second gaps (a deep heap of far-apart timestamps),
- **same-timestamp bursts** (FIFO tie-break between a timestamp's list,
  filled before the clock got there, and the zero-delay FIFO filled
  at it),
- **cancel-heavy** periodic timers (:func:`every`/cancel interleavings),
- stepped ``run(until=...)`` and ``stop()`` inside a multi-event
  timestamp, where the unrun tail of its list must stay ahead of the
  zero-delay FIFO when the run resumes.

Callbacks draw from a per-run ``random.Random(seed)``: both kernels make
identical draws *because* they fire callbacks in identical order, so any
ordering divergence snowballs into an obvious log mismatch.
"""

import random

import pytest

from repro.sim import Simulator

from heap_oracle import HeapSimulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

# Keyed by test id; ``calendar`` is the production kernel's historical
# id, kept so the parametrized test ids stay stable.
KERNELS = {"heap": HeapSimulator, "calendar": Simulator}

# Delay menus per shape: sub-millisecond, repeated (so children of one
# parent collide on a timestamp) and far-future delays.
DENSE_DELAYS = (0.0, 0.0, 0.01, 0.07, 0.3, 0.5, 0.77, 1.0, 1.5, 2.25)
SPARSE_DELAYS = (0.0, 1.0, 2.5, 40.0, 400.0, 3_000.0, 25_000.0)
BURST_DELAYS = (0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 5.0, 10.0)


def every(sim, interval_ms, callback):
    """Run ``callback()`` every ``interval_ms`` until the returned
    function is called: a periodic timer built on ``schedule`` alone, so
    it makes the same calls on either kernel."""
    state = {"cancelled": False}

    def tick():
        if not state["cancelled"]:
            callback()
            sim.schedule(interval_ms, tick)

    def cancel():
        state["cancelled"] = True

    sim.schedule(interval_ms, tick)
    return cancel


def run_program(kernel, seed, delays, initial=40, budget=2_500,
                fanout=3, with_timers=False, until_steps=None,
                stop_every=0):
    """Run one randomized schedule program; return its full trajectory.

    The trajectory records, for every fired event, ``(event id, now,
    pending count)`` — callback identity, firing time, and a queue-size
    probe — plus the periodic-timer fires and the final clock.  With
    ``stop_every``, every event whose id is a multiple of it calls
    ``stop()``, and the run resumes until nothing is pending.
    """
    sim = KERNELS[kernel]()
    rng = random.Random(seed)
    log = []
    state = {"next_id": 0, "scheduled": 0}

    def fire(ident):
        log.append((ident, sim.now, sim.pending_events()))
        if stop_every and ident % stop_every == 0:
            sim.stop()
            log.append(("stop", ident, sim.peek()))
        for _ in range(rng.randrange(fanout + 1)):
            if state["scheduled"] >= budget:
                return
            state["scheduled"] += 1
            state["next_id"] += 1
            child = state["next_id"]
            delay = rng.choice(delays)
            if rng.random() < 0.1:
                sim.schedule_at(sim.now + delay, fire, child)
            else:
                sim.schedule(delay, fire, child)

    for _ in range(initial):
        state["scheduled"] += 1
        state["next_id"] += 1
        sim.schedule(rng.choice(delays), fire, state["next_id"])

    cancels = []
    if with_timers:
        for index in range(10):
            period = 3.0 + (index % 7)
            cancel = every(sim, period, lambda i=index: log.append(
                ("timer", i, sim.now)))
            cancels.append(cancel)
        # Cancel a few timers from inside the run, at seeded times.
        for index in (1, 4, 7):
            sim.schedule(50.0 * (index + 1), cancels[index])

    if until_steps is None:
        final = sim.run()
    else:
        final = sim.now
        for step in until_steps:
            final = sim.run(until=final + step)
    for cancel in cancels:
        cancel()  # stop periodic timers so an unbounded run terminates
    while sim.pending_events():
        sim.run()  # drain the tail (and resume stops) for a full diff
    log.append(("final", sim.now, sim.pending_events()))
    return log, final


def assert_kernels_agree(**kwargs):
    reference = run_program("heap", **kwargs)
    candidate = run_program("calendar", **kwargs)
    assert candidate == reference


@pytest.mark.parametrize("seed", [42, 7, 101, 2024, 555])
def test_dense_schedules_identical(seed):
    assert_kernels_agree(seed=seed, delays=DENSE_DELAYS)


@pytest.mark.parametrize("seed", [42, 7, 101, 2024, 555])
def test_sparse_schedules_identical(seed):
    assert_kernels_agree(seed=seed, delays=SPARSE_DELAYS, budget=1_500)


@pytest.mark.parametrize("seed", [42, 7, 101, 2024, 555])
def test_same_timestamp_bursts_identical(seed):
    assert_kernels_agree(seed=seed, delays=BURST_DELAYS)


@pytest.mark.parametrize("seed", [42, 7, 101])
def test_cancel_heavy_timer_schedules_identical(seed):
    # Bounded run: un-cancelled periodic timers never drain on their own.
    assert_kernels_agree(seed=seed, delays=DENSE_DELAYS, budget=800,
                         with_timers=True, until_steps=[200.0, 300.0])


@pytest.mark.parametrize("seed", [42, 7, 101])
def test_stepped_until_runs_identical(seed):
    # Stepped run(until=...) exercises the bounded-run boundary: events
    # due exactly at the limit fire, the clock parks exactly on `until`.
    assert_kernels_agree(seed=seed, delays=SPARSE_DELAYS, budget=600,
                         until_steps=[7.0, 0.0, 13.5, 250.0, 9_000.0])
    # Stops that land inside multi-event timestamps, then resume.
    assert_kernels_agree(seed=seed, delays=BURST_DELAYS, budget=600,
                         until_steps=[7.0, 0.0, 13.5, 250.0],
                         stop_every=23)


@pytest.mark.parametrize("kernel", KERNELS)
def test_stop_mid_run_leaves_identical_state(kernel):
    sim = KERNELS[kernel]()
    seen = []
    for index in range(20):
        sim.schedule(float(index), seen.append, index)
    sim.schedule(10.0, sim.stop)
    sim.run()
    # stop() halts after the current callback; events 0..10 fired (the
    # stop callback was scheduled after index 10's event, same instant).
    assert seen == list(range(11))
    assert sim.now == 10.0
    remaining = sim.pending_events()
    sim.run()
    assert seen == list(range(20))
    assert remaining == 9
    # A stop inside a multi-event timestamp: the unrun tail of that
    # timestamp keeps its place ahead of the zero-delay event queued
    # before the stop, and the run resumes from it.
    seen.clear()

    def stop_here():
        sim.schedule(0.0, seen.append, "fifo")
        sim.stop()

    sim.schedule(5.0, seen.append, "a")
    sim.schedule(5.0, stop_here)
    sim.schedule(5.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    assert (sim.peek(), sim.pending_events()) == (sim.now, 2)
    sim.run()
    assert seen == ["a", "b", "fifo"]
    assert sim.now == 24.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_peek_tracks_next_event(kernel):
    sim = KERNELS[kernel]()
    assert sim.peek() is None
    sim.schedule(5.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 2.0
    probes = []
    sim.schedule(2.0, lambda: probes.append(sim.peek()))
    sim.run(until=2.0)
    # During the probe the 5.0 event is next-up; afterwards it still is.
    assert probes == [5.0]
    assert sim.peek() == 5.0
    sim.run()
    assert sim.peek() is None


def test_constructor_rejects_unknown_keywords():
    # There is one kernel and no selector; a typo'd (or legacy) keyword
    # must fail loudly instead of being swallowed.
    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    with pytest.raises(TypeError):
        Simulator(bucket_width_ms=0.25)
    with pytest.raises(TypeError):
        Simulator("calendar")


if HAVE_HYPOTHESIS:

    @given(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5]),
        min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_fifo_tie_break_property(delays):
        """Events at equal timestamps fire in insertion order — on both
        kernels, for arbitrary quantized schedules."""
        logs = {}
        for kernel, make_sim in KERNELS.items():
            sim = make_sim()
            log = logs[kernel] = []
            for order, delay in enumerate(delays):
                sim.schedule(delay, log.append, (delay, order))
            sim.run()
        for kernel, log in logs.items():
            by_time = {}
            for delay, order in log:
                by_time.setdefault(delay, []).append(order)
            for delay, orders in by_time.items():
                assert orders == sorted(orders), (kernel, delay)
        assert logs["heap"] == logs["calendar"]

    @given(st.integers(min_value=0, max_value=2**31),
           st.sampled_from([DENSE_DELAYS, SPARSE_DELAYS, BURST_DELAYS]))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_identical_property(seed, delays):
        assert_kernels_agree(seed=seed, delays=delays, initial=10,
                             budget=300)
