"""Unit tests for generator processes and waitables."""

import pytest

from repro.sim import (AllOf, Interrupted, Process, Signal, SimulationError,
                       Simulator, Timeout, spawn)


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


def test_signal_reset_rearms():
    sim = Simulator()
    signal = Signal(sim)
    signal.trigger(1)
    signal.reset()
    assert not signal.triggered
    signal.trigger(2)
    assert signal.value == 2


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


def test_allof_waits_for_every_child():
    sim = Simulator()
    seen = []

    def body():
        results = yield AllOf(sim, [Timeout(sim, 3.0, "a"),
                                    Timeout(sim, 7.0, "b"),
                                    Timeout(sim, 5.0, "c")])
        seen.append((sim.now, results))

    spawn(sim, body())
    sim.run()
    assert seen == [(7.0, ["a", "b", "c"])]


def test_allof_empty_fires_immediately():
    sim = Simulator()
    seen = []

    def body():
        results = yield AllOf(sim, [])
        seen.append(results)

    spawn(sim, body())
    sim.run()
    assert seen == [[]]


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
