"""Serverless function platform (the AWS Lambda stand-in).

Functions are stateless: each invocation may land on a warm container
(fast) or trigger a cold start (slow); any state must come from and go
back to the storage tier.  The platform auto-scales containers with
demand — exactly the elasticity model whose limits for *stateful*
applications motivate PLASMA (paper §1-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..sim import Signal, Simulator, Timeout, spawn

__all__ = ["FunctionPlatform", "InvocationStats"]

#: A function body: a generator taking (platform, payload) that yields
#: simulation waitables (storage calls, timeouts) and returns a value.
FunctionBody = Callable[["FunctionPlatform", Any],
                        Generator[Any, Any, Any]]


@dataclass
class InvocationStats:
    invocations: int = 0
    cold_starts: int = 0
    total_latency_ms: float = 0.0

    def mean_latency_ms(self) -> float:
        return (self.total_latency_ms / self.invocations
                if self.invocations else 0.0)


class FunctionPlatform:
    """Auto-scaling stateless function executor.

    - warm containers serve one invocation at a time;
    - an invocation with no idle warm container triggers a cold start
      (``cold_start_ms``), after which the new container stays warm;
    - warm containers idle longer than ``keep_alive_ms`` are reclaimed —
      the provider's scale-to-zero behaviour.
    """

    def __init__(self, sim: Simulator, cold_start_ms: float = 250.0,
                 keep_alive_ms: float = 300_000.0,
                 max_containers: int = 256) -> None:
        self.sim = sim
        self.cold_start_ms = cold_start_ms
        self.keep_alive_ms = keep_alive_ms
        self.max_containers = max_containers
        self.stats = InvocationStats()
        self._functions: Dict[str, FunctionBody] = {}
        self._idle_since: Dict[int, float] = {}
        self._next_container = 1
        self._warm_pool: List[int] = []
        self._busy: int = 0

    def register(self, name: str, body: FunctionBody) -> None:
        """Deploy a function under ``name``."""
        self._functions[name] = body

    def container_count(self) -> int:
        """Warm + currently executing containers."""
        return len(self._warm_pool) + self._busy

    def invoke(self, name: str, payload: Any = None) -> Signal:
        """Invoke ``name``; returns a signal resolving to its result."""
        body = self._functions.get(name)
        if body is None:
            raise KeyError(f"no function registered as {name!r}")
        done = Signal(self.sim)
        spawn(self.sim, self._run(body, payload, done),
              name=f"lambda/{name}")
        return done

    def _acquire_container(self):
        self._reclaim_idle()
        if self._warm_pool:
            container = self._warm_pool.pop()
            self._busy += 1
            return container, False
        if self.container_count() >= self.max_containers:
            # Throttled: behave like a cold start worth of backoff.
            return None, True
        container = self._next_container
        self._next_container += 1
        self._busy += 1
        return container, True

    def _release_container(self, container: int) -> None:
        self._busy -= 1
        self._warm_pool.append(container)
        self._idle_since[container] = self.sim.now

    def _reclaim_idle(self) -> None:
        alive = []
        for container in self._warm_pool:
            idle_for = self.sim.now - self._idle_since.get(container, 0.0)
            if idle_for <= self.keep_alive_ms:
                alive.append(container)
        self._warm_pool = alive

    def _run(self, body: FunctionBody, payload: Any, done: Signal):
        started = self.sim.now
        container, cold = self._acquire_container()
        while container is None:
            yield Timeout(self.sim, self.cold_start_ms)
            container, cold = self._acquire_container()
        if cold:
            self.stats.cold_starts += 1
            yield Timeout(self.sim, self.cold_start_ms)
        try:
            result = yield from body(self, payload)
        finally:
            self._release_container(container)
        self.stats.invocations += 1
        self.stats.total_latency_ms += self.sim.now - started
        done.trigger(result)
