"""External clients.

A :class:`Client` models a request source outside the actor fleet (the
paper runs clients on separate m1.medium instances).  Client calls cross
the network to the target actor's server and the reply crosses back; the
client records end-to-end latency samples, which is the quantity most of
the paper's figures plot.

For runs with fault injection, :meth:`Client.reliable_call` adds a
request deadline and capped exponential-backoff retry: a reply that does
not arrive within ``timeout_ms`` (lost to a crashed server or a dropped
message) is retried up to ``max_retries`` times, and requests that
exhaust their retries land in :attr:`Client.dead_letters`.  Outcomes can
be recorded into an :class:`~repro.cluster.AvailabilityMeter` so
benchmarks report availability under faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..cluster import AvailabilityMeter, GaugeSeries
from ..sim import Completion, Timeout
from .message import Overloaded
from .refs import ActorRef
from .system import ActorSystem

__all__ = ["Client", "DeadLetter"]

#: Sentinel a request's reply is triggered with when the client's
#: deadline fires first.  A genuine (late) reply is then ignored because
#: a reply triggers exactly once.
_TIMED_OUT = object()


@dataclass(frozen=True)
class DeadLetter:
    """A request abandoned after exhausting its retries."""

    time_ms: float
    ref: ActorRef
    function: str
    attempts: int
    last_outcome: str  # "failure" | "timeout" | "rejected" | "shed"


class Client:
    """An external request source with latency recording.

    Parameters
    ----------
    timeout_ms:
        Default deadline for :meth:`reliable_call`; ``None`` disables
        timeouts (a lost request then blocks its caller forever, which
        is also the behavior of plain :meth:`call`).
    max_retries:
        Retries after the first attempt of a :meth:`reliable_call`.
    backoff_base_ms / backoff_cap_ms:
        First retry delay and its cap; the delay doubles per attempt
        (capped exponential backoff; deterministic unless ``jitter_frac``
        is set).
    jitter_frac:
        Fraction of each backoff delay randomized away (0.0 = none, the
        default, keeping existing traces bit-identical).  With jitter
        ``f`` the actual delay is uniform in ``[backoff * (1 - f),
        backoff]``, drawn from the dedicated ``client-retry-jitter``
        stream — seeded runs stay reproducible, but N clients that
        timed out together no longer retry in lockstep (no synchronized
        retry storm).
    max_dead_letters:
        Bound on :attr:`dead_letters`; beyond it the oldest entry is
        dropped and :attr:`dead_letters_dropped` incremented, so long
        fuzz campaigns cannot grow the list without limit.  0 keeps
        every dead letter.
    meter:
        Optional :class:`AvailabilityMeter` receiving one outcome per
        attempt (success / failure / timeout / rejected / shed).
    """

    def __init__(self, system: ActorSystem, name: str = "client",
                 request_bytes: float = 512.0,
                 timeout_ms: Optional[float] = None,
                 max_retries: int = 0,
                 backoff_base_ms: float = 100.0,
                 backoff_cap_ms: float = 5_000.0,
                 jitter_frac: float = 0.0,
                 max_dead_letters: int = 1_024,
                 meter: Optional[AvailabilityMeter] = None) -> None:
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base_ms <= 0 or backoff_cap_ms < backoff_base_ms:
            raise ValueError("need 0 < backoff_base_ms <= backoff_cap_ms")
        if not 0.0 <= jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")
        if max_dead_letters < 0:
            raise ValueError("max_dead_letters must be >= 0")
        self.system = system
        self.name = name
        self.request_bytes = request_bytes
        self.timeout_ms = timeout_ms
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.jitter_frac = jitter_frac
        self.max_dead_letters = max_dead_letters
        self.meter = meter
        self.latencies = GaugeSeries(name=f"{name}.latency")
        self.completed = 0
        self.failed = 0
        self.retries_used = 0
        self.attempts = 0
        self.dead_letters: List[DeadLetter] = []
        self.dead_letters_dropped = 0
        # One shared stream for all clients: mutually independent of
        # every other consumer, and never drawn from unless jitter is on.
        self._jitter_rng = None

    @property
    def dead_letters_total(self) -> int:
        """All dead letters ever, including ones the bound evicted."""
        return len(self.dead_letters) + self.dead_letters_dropped

    def call(self, ref: ActorRef, function: str, *args: Any,
             size_bytes: Optional[float] = None,
             deadline_ms: Optional[float] = None) -> Completion:
        """Send one request; returns the reply (yield it)."""
        return self.system.client_call(
            ref, function, *args,
            size_bytes=size_bytes if size_bytes is not None
            else self.request_bytes,
            deadline_ms=deadline_ms)

    def timed_call(self, ref: ActorRef, function: str, *args: Any,
                   size_bytes: Optional[float] = None):
        """Generator: perform one call, record and return (result, latency).

        Use with ``result, latency = yield from client.timed_call(...)``.
        """
        system = self.system
        start = system.sim.now
        self.attempts += 1
        result = yield system.client_call(
            ref, function, *args,
            size_bytes=size_bytes if size_bytes is not None
            else self.request_bytes)
        now = system.sim.now
        latency = now - start
        self.latencies.record(now, latency)
        if isinstance(result, Overloaded):
            self.failed += 1
            if self.meter is not None:
                self.meter.record(
                    "rejected" if result.reason == "admission" else "shed")
            result = None
        elif result is None:
            self.failed += 1
            if self.meter is not None:
                self.meter.record_failure()
        else:
            self.completed += 1
            if self.meter is not None:
                self.meter.record_success()
        return result, latency

    def reliable_call(self, ref: ActorRef, function: str, *args: Any,
                      size_bytes: Optional[float] = None,
                      timeout_ms: Optional[float] = None,
                      max_retries: Optional[int] = None):
        """Generator: call with deadline + capped exponential backoff.

        Use with ``result = yield from client.reliable_call(...)``.
        Returns the reply value on success, or ``None`` once retries are
        exhausted (the request is then appended to :attr:`dead_letters`).
        A ``None`` reply — the target actor is gone — counts as a failed
        attempt and is retried too, because a crashed actor may be
        resurrected by the elasticity runtime between attempts.  An
        :class:`~repro.actors.Overloaded` NACK (admission control or a
        shedding mailbox turned the request away) is likewise retried:
        the server said *try later*, and the backoff provides the later.
        """
        sim = self.system.sim
        deadline = self.timeout_ms if timeout_ms is None else timeout_ms
        retries = self.max_retries if max_retries is None else max_retries
        start = sim.now
        backoff = self.backoff_base_ms
        outcome = "failure"
        for attempt in range(1, retries + 2):
            absolute_deadline = (
                sim.now + deadline
                if deadline is not None and self.system.overload is not None
                else None)
            self.attempts += 1
            reply = self.call(ref, function, *args, size_bytes=size_bytes,
                              deadline_ms=absolute_deadline)
            if deadline is not None:
                sim.schedule(deadline, reply.trigger, _TIMED_OUT)
            value = yield reply
            if value is _TIMED_OUT:
                outcome = "timeout"
            elif isinstance(value, Overloaded):
                outcome = ("rejected" if value.reason == "admission"
                           else "shed")
            elif value is None:
                outcome = "failure"
            else:
                latency = sim.now - start
                self.latencies.record(sim.now, latency)
                self.completed += 1
                if self.meter is not None:
                    self.meter.record_success()
                return value
            if self.meter is not None:
                self.meter.record(outcome)
            if attempt >= retries + 1:
                break
            self.retries_used += 1
            yield Timeout(sim, self._backoff_delay(backoff))
            backoff = min(backoff * 2.0, self.backoff_cap_ms)
        self.failed += 1
        self.dead_letters.append(DeadLetter(
            time_ms=sim.now, ref=ref, function=function,
            attempts=retries + 1, last_outcome=outcome))
        if (self.max_dead_letters
                and len(self.dead_letters) > self.max_dead_letters):
            del self.dead_letters[0]
            self.dead_letters_dropped += 1
        return None

    def _backoff_delay(self, backoff: float) -> float:
        """Apply seeded jitter to one backoff delay (no-op at 0.0)."""
        if self.jitter_frac <= 0.0:
            return backoff
        if self._jitter_rng is None:
            self._jitter_rng = self.system.streams.stream(
                "client-retry-jitter")
        return backoff * (1.0 - self.jitter_frac
                          + self.jitter_frac * self._jitter_rng.random())

    def mean_latency(self) -> float:
        return self.latencies.mean()

    def latency_samples(self) -> List[Tuple[float, float]]:
        return list(self.latencies.samples)
