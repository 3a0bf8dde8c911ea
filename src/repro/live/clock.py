"""Monotonic wall clock with the simulator's ``now`` shape.

Every meter and profiler in the repo reads time as ``clock.now`` in
float milliseconds (that is the *only* thing ``RingMeter`` and
``ProfilingRuntime`` need from the "simulator" they are handed).
:class:`LiveClock` satisfies that protocol with ``time.monotonic()``
re-based to 0 at construction, so the entire profiling stack runs
unmodified against wall time.
"""

from __future__ import annotations

import time

__all__ = ["LiveClock"]


class LiveClock:
    """Milliseconds of wall time since this clock was created."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LiveClock(now={self.now:.1f}ms)"
