"""Generator-based processes on top of the event engine.

A *process* is a Python generator driven by the simulator.  The generator
yields *waitables* — objects describing what the process blocks on — and is
resumed with the waitable's result once it fires:

    def worker(sim):
        yield Timeout(sim, 10.0)          # sleep 10 ms
        item = yield queue.get()          # block on a queue
        yield signal.wait()               # block on a broadcast signal

Waitables
---------
:class:`Timeout`  fires after a fixed delay.
:class:`Signal`   broadcast event; every waiter resumes when triggered.
:class:`Process`  (itself) — waiting on a process resumes when it finishes
                  and yields its return value.

Processes may be interrupted: :meth:`Process.interrupt` raises
:class:`Interrupted` inside the generator at its current yield point, which
the process may catch to clean up or re-wait.

:class:`Driver` is the stepping primitive under :class:`Process`; the
actor runtime also uses it directly, to step one generator handler.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from .engine import SimulationError, Simulator

__all__ = ["Process", "Driver", "Timeout", "Signal", "Interrupted",
           "Waitable", "AllOf"]


class Interrupted(Exception):
    """Raised inside a process generator when it is interrupted.

    The optional ``cause`` carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for things a process can block on.

    Subclasses implement :meth:`_subscribe`, registering a resume callback
    invoked exactly once with the waitable's result, and
    :meth:`_unsubscribe`, used when a waiting process is interrupted.
    """

    __slots__ = ()

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        raise NotImplementedError

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        """Best-effort removal of a previously subscribed callback."""


class Timeout(Waitable):
    """Fires ``delay`` ms after creation; resumes with ``value``."""

    __slots__ = ("_sim", "_delay", "_value", "_cancelled")

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        self._sim = sim
        self._delay = delay
        self._value = value
        self._cancelled = False

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        def fire() -> None:
            if not self._cancelled:
                callback(self._value)

        self._sim.schedule(self._delay, fire)

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        self._cancelled = True


class Signal(Waitable):
    """A broadcast event.

    Processes wait on the signal by yielding it; :meth:`trigger` resumes
    every current waiter with the given value.  A signal stays triggered:
    waiting on an already-triggered signal resumes immediately (at the next
    event-loop step).  Call :meth:`reset` to rearm.
    """

    __slots__ = ("_sim", "_waiters", "_triggered", "_value")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._waiters: List[Callable[[Any], None]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, resuming all waiters with ``value``."""
        if self._triggered:
            return
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self._sim.schedule(0.0, callback, value)

    def reset(self) -> None:
        """Rearm a triggered signal so it can fire again."""
        self._triggered = False
        self._value = None

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self._triggered:
            self._sim.schedule(0.0, callback, self._value)
        else:
            self._waiters.append(callback)

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass


class AllOf(Waitable):
    """Fires once every child waitable has fired; resumes with their results
    in order."""

    __slots__ = ("_sim", "_waitables")

    def __init__(self, sim: Simulator, waitables: List[Waitable]) -> None:
        self._sim = sim
        self._waitables = list(waitables)

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        remaining = len(self._waitables)
        results: List[Any] = [None] * len(self._waitables)
        if remaining == 0:
            self._sim.schedule(0.0, callback, [])
            return

        def make_child(index: int) -> Callable[[Any], None]:
            def child_done(value: Any) -> None:
                nonlocal remaining
                results[index] = value
                remaining -= 1
                if remaining == 0:
                    callback(results)

            return child_done

        for i, waitable in enumerate(self._waitables):
            waitable._subscribe(make_child(i))


class Driver:
    """Steps one generator over the waitables it yields.

    Each :meth:`_step` sends a result (or throws an exception) into the
    generator and subscribes a one-shot resume callback to the waitable
    it yields next.  How the generator ends is reported to
    :meth:`_finish`: a return with its value; an :class:`Interrupted`
    escaping the generator, silently; any other exception — a yielded
    non-waitable included, as :class:`SimulationError` — after
    :meth:`_finish`, out of the event loop.  Nothing is scheduled until
    the owner takes the first step.
    """

    __slots__ = ("_sim", "_gen", "_finished", "_current_wait",
                 "_interrupt_pending")

    #: What error messages call the generator.
    name = "generator"

    def __init__(self, sim: Simulator,
                 generator: Generator[Waitable, Any, Any]) -> None:
        self._sim = sim
        self._gen = generator
        self._finished = False
        self._current_wait: Optional[Tuple[Waitable,
                                           Callable[[Any], None]]] = None
        self._interrupt_pending: Optional[Interrupted] = None

    @property
    def finished(self) -> bool:
        return self._finished

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        if self._interrupt_pending is not None and exc is None:
            exc = self._interrupt_pending
            self._interrupt_pending = None
        self._current_wait = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except Interrupted as interrupted:
            self._finish(None, interrupted)
            return
        except BaseException as error:
            self._finish(None, error)
            raise
        if not isinstance(target, Waitable):
            error = SimulationError(
                f"process {self.name!r} yielded a non-waitable: {target!r}")
            self._finish(None, error)
            raise error

        resumed = False

        def resume(result: Any) -> None:
            nonlocal resumed
            if resumed or self._finished:
                return
            resumed = True
            self._step(result, None)

        self._current_wait = (target, resume)
        target._subscribe(resume)

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        """The generator ended: returned ``result``, or raised
        ``exception``.  Called exactly once."""
        self._finished = True


class Process(Driver, Waitable):
    """A running generator process.

    Created via :func:`spawn` (or directly).  The generator starts at the
    next event-loop step.  A finished process exposes :attr:`result` (the
    generator's return value) and :attr:`exception`.  Unhandled exceptions
    other than :class:`Interrupted` propagate out of the event loop —
    silent process death hides bugs.
    """

    def __init__(self, sim: Simulator,
                 generator: Generator[Waitable, Any, Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(sim, generator)
        self.name = name or getattr(generator, "__name__", "process")
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        # Created by the first join: most processes are never waited on.
        self._done_signal: Optional[Signal] = None
        sim.schedule(0.0, self._step, None, None)

    # -- public API ------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its yield point.

        Interrupting a finished process is a no-op.
        """
        if self._finished:
            return
        if self._current_wait is not None:
            waitable, callback = self._current_wait
            waitable._unsubscribe(callback)
            self._current_wait = None
            self._sim.schedule(0.0, self._step, None, Interrupted(cause))
        else:
            # Not yet started or between steps: deliver on next step.
            self._interrupt_pending = Interrupted(cause)

    # -- waitable protocol (join) ----------------------------------------

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        signal = self._done_signal
        if signal is None:
            signal = self._done_signal = Signal(self._sim)
            if self._finished:
                # A late joiner still resumes at the next step.
                signal.trigger(self.result)
        signal._subscribe(callback)

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        if self._done_signal is not None:
            self._done_signal._unsubscribe(callback)

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        self._finished = True
        self.result = result
        self.exception = exception
        if self._done_signal is not None:
            self._done_signal.trigger(result)


def spawn(sim: Simulator, generator: Generator[Waitable, Any, Any],
          name: str = "") -> Process:
    """Start a generator as a simulation process.  Convenience wrapper."""
    return Process(sim, generator, name=name)
