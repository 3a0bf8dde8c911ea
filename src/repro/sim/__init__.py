"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`Simulator` — the event loop and virtual clock (milliseconds).
- :class:`Process`, :func:`spawn` — generator-based processes.
- :class:`Timeout`, :class:`Signal`, :class:`AllOf` — waitables.
- :class:`Queue` — blocking FIFO used for actor mailboxes.
- :class:`RandomStreams` — named deterministic RNG streams.
"""

from .engine import SimulationError, Simulator, StopSimulation
from .process import AllOf, Interrupted, Process, Signal, Timeout, Waitable, spawn
from .queues import Queue
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "Process",
    "spawn",
    "Timeout",
    "Signal",
    "AllOf",
    "Waitable",
    "Interrupted",
    "Queue",
    "RandomStreams",
]
