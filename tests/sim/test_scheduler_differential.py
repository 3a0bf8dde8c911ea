"""Differential harness: the calendar kernel vs a binary-heap oracle.

The calendar-queue kernel (``repro.sim.Simulator``) is only admissible if
it is *indistinguishable* from a plain ``(timestamp, insertion order)``
heap: same callbacks, in the same order, at the same ``now``, for any
schedule.  The heap used to be a selectable kernel in ``src/``; it now
lives beside this file (``heap_oracle.py``) purely as the oracle.  These
tests run randomized seeded schedule programs against both and diff the
full pop trajectory.
Shapes are chosen to hit every storage class of the calendar kernel:

- **dense** sub-bucket delays (active-bucket bisect drains),
- **sparse** multi-second gaps (the ladder/spill fallback, including the
  horizon-doubling adaptation),
- **same-timestamp bursts** (FIFO tie-break across bucket, spill and
  zero-delay storage for one instant),
- **cancel-heavy** periodic timers (``every``/cancel interleavings),
- stepped ``run(until=...)`` and mid-run ``stop()``.

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

KERNELS = {"heap": HeapSimulator, "calendar": Simulator}

# Delay menus per shape.  Values are chosen to straddle the calendar
# kernel's 1.0 ms bucket width: same-bucket, adjacent-bucket, far-bucket.
DENSE_DELAYS = (0.0, 0.0, 0.01, 0.07, 0.3, 0.5, 0.77, 1.0, 1.5, 2.25)
SPARSE_DELAYS = (0.0, 1.0, 2.5, 40.0, 400.0, 3_000.0, 25_000.0)
BURST_DELAYS = (0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 5.0, 10.0)


def run_program(kernel, seed, delays, initial=40, budget=2_500,
                fanout=3, with_timers=False, until_steps=None):
    """Run one randomized schedule program; return its full trajectory.

    The trajectory records, for every fired event, ``(event id, now,
    pending count)`` — callback identity, firing time, and a queue-size
    probe — plus the periodic-timer fires and the final clock.
    """
    sim = KERNELS[kernel]()
    rng = random.Random(seed)
    log = []
    state = {"next_id": 0, "scheduled": 0}

    def fire(ident):
        log.append((ident, sim.now, sim.pending_events()))
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
            cancel = sim.every(period, lambda i=index: log.append(
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
    if until_steps is not None:
        sim.run()  # drain the tail for a complete comparison
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


def test_calendar_horizon_adapts_on_sparse_schedules():
    sim = Simulator()
    for index in range(64):
        sim.schedule(1_000.0 * (index + 1), lambda: None)
    sim.run()
    # Every activation held one event, so the ladder horizon doubled
    # until sparse traffic stopped paying bucket bookkeeping.
    assert sim._horizon > 1


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
