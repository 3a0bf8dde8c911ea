"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`Simulator` — the event loop and virtual clock (milliseconds).
- :class:`Process`, :func:`spawn` — generator-based processes.
- :class:`Driver` — the stepping primitive under a process.
- :class:`Timeout`, :class:`Signal`, :class:`Completion` — waitables.
- :class:`RandomStreams` — named deterministic RNG streams.
"""

from .engine import SimulationError, Simulator, StopSimulation
from .process import (Completion, Driver, Interrupted, Process, Signal,
                      Timeout, Waitable, spawn)
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "Process",
    "spawn",
    "Driver",
    "Timeout",
    "Signal",
    "Completion",
    "Waitable",
    "Interrupted",
    "RandomStreams",
]
