"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator, StopSimulation

#: NaN breaks heap order and never matches itself as a timestamp key,
#: and an event at infinity would never fire.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 5.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(2.0, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_zero_delay_runs_at_current_time():
    sim = Simulator()
    seen = []

    def outer():
        sim.schedule(0.0, seen.append, sim.now)

    sim.schedule(4.0, outer)
    sim.run()
    assert seen == [4.0]
    assert sim.now == 4.0


def test_negative_delay_rejected():
    sim = Simulator()
    for delay in (-1.0,) + NON_FINITE:
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
    assert sim.pending_events() == 0


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.5, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    assert sim.now == 7.5


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    for when in (5.0,) + NON_FINITE:
        with pytest.raises(SimulationError):
            sim.schedule_at(when, lambda: None)
    assert sim.pending_events() == 0


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    final = sim.run(until=10.0)
    assert final == 10.0
    assert sim.now == 10.0


def test_run_until_does_not_run_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "early")
    sim.schedule(20.0, seen.append, "late")
    sim.run(until=10.0)
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late"]


def test_stop_simulation_exception_halts():
    sim = Simulator()
    seen = []

    def boom():
        raise StopSimulation()

    sim.schedule(1.0, seen.append, "before")
    sim.schedule(2.0, boom)
    sim.schedule(3.0, seen.append, "after")
    sim.run()
    assert seen == ["before"]


def test_stop_method_halts_after_current_callback():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, seen.append, "never")
    sim.run()
    assert seen == []
    assert sim.now == 1.0


def test_peek_and_pending_events():
    sim = Simulator()
    assert sim.peek() is None
    assert sim.pending_events() == 0
    sim.schedule(2.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    assert sim.peek() == 2.0
    assert sim.pending_events() == 2
    # Read from inside a same-timestamp batch: the unrun tail of the
    # batch and the zero-delay events it queues both count.
    probes = []

    def probe():
        sim.schedule(0.0, lambda: None)
        probes.append((sim.peek(), sim.pending_events()))

    for _ in range(3):
        sim.schedule(5.0, probe)
    sim.run(until=5.0)
    # Each probe sees the rest of the batch, one more zero-delay event
    # per probe so far, and the 9.0 event.
    assert probes == [(5.0, 4), (5.0, 4), (5.0, 4)]
    assert sim.pending_events() == 1


def test_nested_run_is_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1
