"""Unit tests for generator processes and waitables."""

import pytest

from repro.sim import (Completion, Interrupted, Process, Signal,
                       SimulationError, Simulator, Timeout, spawn)


def test_timeout_resumes_with_value():
    sim = Simulator()
    seen = []

    def body():
        value = yield Timeout(sim, 5.0, value="hello")
        seen.append((sim.now, value))

    spawn(sim, body())
    sim.run()
    assert seen == [(5.0, "hello")]


def test_process_return_value_and_finished():
    sim = Simulator()

    def body():
        yield Timeout(sim, 1.0)
        return 42

    process = spawn(sim, body())
    sim.run()
    assert process.finished
    assert process.result == 42
    assert process.exception is None


def test_waiting_on_a_process_gets_its_result():
    sim = Simulator()
    seen = []

    def child():
        yield Timeout(sim, 3.0)
        return "child-result"

    def parent():
        result = yield spawn(sim, child())
        seen.append((sim.now, result))

    spawn(sim, parent())
    sim.run()
    assert seen == [(3.0, "child-result")]


def test_signal_broadcast_resumes_all_waiters():
    sim = Simulator()
    signal = Signal(sim)
    seen = []

    def waiter(name):
        value = yield signal
        seen.append((name, value))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.schedule(10.0, signal.trigger, "go")
    sim.run()
    assert sorted(seen) == [("a", "go"), ("b", "go")]


def test_signal_triggered_twice_keeps_first_value():
    sim = Simulator()
    signal = Signal(sim)
    signal.trigger("first")
    signal.trigger("second")
    assert signal.value == "first"


def test_waiting_on_triggered_signal_resumes_immediately():
    sim = Simulator()
    signal = Signal(sim)
    signal.trigger("pre")
    seen = []

    def body():
        value = yield signal
        seen.append((sim.now, value))

    spawn(sim, body())
    sim.run()
    assert seen == [(0.0, "pre")]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    seen = []

    def body():
        try:
            yield Timeout(sim, 100.0)
        except Interrupted as exc:
            seen.append((sim.now, exc.cause))

    process = spawn(sim, body())
    sim.schedule(5.0, process.interrupt, "because")
    sim.run()
    assert seen == [(5.0, "because")]


def test_uncaught_interrupt_finishes_process():
    sim = Simulator()

    def body():
        yield Timeout(sim, 100.0)

    process = spawn(sim, body())
    sim.schedule(5.0, process.interrupt)
    sim.run()
    assert process.finished
    assert isinstance(process.exception, Interrupted)


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def body():
        yield Timeout(sim, 1.0)

    process = spawn(sim, body())
    sim.run()
    process.interrupt()  # must not raise
    assert process.finished


def test_yielding_non_waitable_raises():
    sim = Simulator()

    def body():
        yield 42

    spawn(sim, body())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_exception_propagates():
    sim = Simulator()

    def body():
        yield Timeout(sim, 1.0)
        raise ValueError("boom")

    process = spawn(sim, body())
    with pytest.raises(ValueError):
        sim.run()
    assert isinstance(process.exception, ValueError)


def test_non_generator_body_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_interleaved_processes_share_the_clock():
    sim = Simulator()
    trace = []

    def ticker(name, step, count):
        for _ in range(count):
            yield Timeout(sim, step)
            trace.append((sim.now, name))

    spawn(sim, ticker("slow", 10.0, 2))
    spawn(sim, ticker("fast", 4.0, 4))
    sim.run()
    assert trace == [(4.0, "fast"), (8.0, "fast"), (10.0, "slow"),
                     (12.0, "fast"), (16.0, "fast"), (20.0, "slow")]


# -- join signal allocated on first join --------------------------------------


def test_join_after_child_finished_resumes_next_step_with_result():
    sim = Simulator()
    seen = []

    def child():
        yield Timeout(sim, 1.0)
        return "done"

    kid = spawn(sim, child())

    def parent():
        yield Timeout(sim, 5.0)
        assert kid.finished
        sim.schedule(0.0, seen.append, "probe")
        result = yield kid
        seen.append((sim.now, result))

    spawn(sim, parent())
    sim.run()
    # Not resumed synchronously inside the yield: one step later.
    assert seen == ["probe", (5.0, "done")]


def test_two_joiners_both_resume():
    sim = Simulator()
    seen = []

    def child():
        yield Timeout(sim, 3.0)
        return 7

    kid = spawn(sim, child())

    def joiner(name, delay):
        yield Timeout(sim, delay)
        value = yield kid
        seen.append((name, sim.now, value))

    spawn(sim, joiner("early", 1.0))
    spawn(sim, joiner("late", 4.0))
    sim.run()
    assert seen == [("early", 3.0, 7), ("late", 4.0, 7)]


def test_interrupted_joiner_gets_no_stray_resume():
    sim = Simulator()
    seen = []

    def child():
        yield Timeout(sim, 10.0)
        return "late"

    kid = spawn(sim, child())

    def joiner():
        try:
            yield kid
        except Interrupted:
            seen.append(("interrupted", sim.now))
        value = yield Timeout(sim, 20.0, "slept")
        seen.append((value, sim.now))

    proc = spawn(sim, joiner())
    sim.schedule(2.0, proc.interrupt)
    sim.run()
    assert kid.finished
    assert seen == [("interrupted", 2.0), ("slept", 22.0)]


def test_unjoined_process_allocates_no_signal():
    sim = Simulator()

    def body():
        yield Timeout(sim, 1.0)
        return 1

    process = spawn(sim, body())
    sim.run()
    assert process.finished and process.result == 1
    assert process._done_signal is None


# -- an interrupt in the instant the awaited signal fires ---------------------


def test_interrupt_in_the_instant_the_signal_fires_takes_precedence():
    # The signal's resume is already scheduled when the interrupt lands:
    # the process takes the Interrupted at the yield it was waiting at,
    # and the value that lost the race is never sent in.
    sim = Simulator()
    signal = Signal(sim)
    seen = []

    def body():
        try:
            value = yield signal
            seen.append(("got", value))
        except Interrupted:
            seen.append(("interrupted", sim.now))
        value = yield Timeout(sim, 5.0, "slept")
        seen.append((value, sim.now))

    proc = spawn(sim, body())

    def fire_then_interrupt():
        signal.trigger("value")
        proc.interrupt()

    sim.schedule(1.0, fire_then_interrupt)
    sim.run()
    assert seen == [("interrupted", 1.0), ("slept", 6.0)]


def test_interrupt_racing_a_signal_leaves_no_stray_wakeup():
    # Had the value gone in, the interrupt would land at the *next* yield
    # and leave that wait's resume subscribed: here `other`, which fires
    # at 3.0 and would wake the generator out of its 5 ms sleep.
    sim = Simulator()
    signal, other = Signal(sim), Signal(sim)
    seen = []

    def body():
        try:
            yield signal
            yield other
        except Interrupted:
            seen.append(("interrupted", sim.now))
        value = yield Timeout(sim, 5.0, "slept")
        seen.append((value, sim.now))

    proc = spawn(sim, body())

    def fire_then_interrupt():
        signal.trigger("value")
        proc.interrupt()

    sim.schedule(1.0, fire_then_interrupt)
    sim.schedule(3.0, other.trigger, "other")
    sim.run()
    assert seen == [("interrupted", 1.0), ("slept", 6.0)]


# -- Completion: one waiter, Signal timing ------------------------------------


def test_completion_resumes_its_waiter_one_step_after_the_trigger():
    sim = Simulator()
    done = Completion(sim)
    seen = []

    def waiter():
        value = yield done
        seen.append((sim.now, value))

    def complete():
        done.trigger("v")
        seen.append("trigger returned")

    spawn(sim, waiter())
    sim.schedule(2.0, complete)
    sim.run()
    assert seen == ["trigger returned", (2.0, "v")]
    assert done.triggered and done.value == "v"


def test_completion_waited_on_after_the_trigger_resumes_next_step():
    sim = Simulator()
    done = Completion(sim)
    done.trigger(7)
    done.trigger(8)  # once only, like a Signal
    seen = []

    def late():
        sim.schedule(0.0, seen.append, "probe")
        seen.append((yield done))

    spawn(sim, late())
    sim.run()
    assert seen == ["probe", 7]


def test_completion_rejects_a_second_waiter_and_forgets_an_interrupted_one():
    sim = Simulator()
    done = Completion(sim)
    assert not done.triggered and done.value is None
    done._subscribe(lambda value: None)
    with pytest.raises(SimulationError):
        done._subscribe(lambda value: None)

    quiet = Completion(sim)
    seen = []

    def waiter():
        try:
            yield quiet
        except Interrupted:
            seen.append("interrupted")

    proc = spawn(sim, waiter())
    sim.schedule(1.0, proc.interrupt)
    sim.schedule(2.0, quiet.trigger, "late")
    sim.run()
    assert seen == ["interrupted"] and quiet._then is None
