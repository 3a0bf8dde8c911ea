"""Pluggable runtime backends: one control surface, two clocks.

PLASMA's EMR is *decoupled* from the actor runtime (paper §2): LEMs and
GEMs consume profiling snapshots and drive a narrow migrate/pin/place
API — nothing in the elasticity layer cares whether messages move
through a discrete-event simulator or a real asyncio event loop.  This
module pins that contract down as :class:`RuntimeBackend`, the *only*
way :mod:`repro.core.emr` reaches a runtime (an import-boundary test in
``tests/integration/test_api_quality.py`` keeps it that way):

* **clock** — ``now`` in milliseconds (virtual or wall) and
  ``schedule(delay_ms, callback, *args)``.  That pair is all
  :class:`repro.sim.Process`, :class:`~repro.sim.Timeout` and
  :class:`~repro.sim.Signal` need, so the LEM/GEM generator protocol
  runs over either backend unchanged; ``rng_stream`` hands out the named
  random streams the control plane draws from;
* **control surface** — ``migrate_actor`` / ``pin`` /
  ``resurrect_actor``, plus ``install``/``uninstall`` for what a running
  EMR plugs into the data plane (rule-aware placement of new actors, the
  epoch source, overload protection);
* **fleet verbs** — ``servers`` / ``boot_server`` / ``retire_server`` /
  ``pending_boots`` / ``add_join_listener``, how GEMs scale the fleet
  and how the manager learns of servers that join;
* **observation surface** — ``actors_on`` / ``mailbox_depth`` plus hook
  (profiling subscriber) registration.

:class:`SimBackend` adapts the deterministic simulator-backed
:class:`~repro.actors.system.ActorSystem`; every method is a one-hop
delegation that adds, removes and reorders no kernel event (the golden
digests in ``tests/golden`` are recorded through it).  The wall-clock
counterpart is :class:`repro.live.LiveBackend`.

Module-level imports here are deliberately limited to the standard
library: ``actors.system`` imports this module, so pulling any repro
package in at import time would cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["RuntimeBackend", "SimBackend"]


class RuntimeBackend(ABC):
    """The surface an elasticity runtime needs from an actor runtime.

    Time is always *milliseconds as float* — virtual for the simulator,
    monotonic-wall-clock for the live runtime — so meters, windows, and
    policy periods carry over unchanged between backends.

    Methods whose completion is inherently asynchronous
    (:meth:`migrate_actor`) return a backend-native completion handle: a
    :class:`~repro.sim.Signal` under the simulator, an
    :class:`asyncio.Task` under the live runtime, or ``None`` when the
    request was refused outright.  Callers that only fire-and-continue
    (the LEM's ``_execute``) can ignore it on either backend.
    """

    #: The actor system behind this backend.  The plain pass-through
    #: verbs below land on :class:`~repro.actors.base.ActorSystemBase`,
    #: which both runtimes inherit.
    system: Any

    #: The runtime's clock object.  Meters read ``clock.now`` once per
    #: profiled message, so they are handed this directly instead of
    #: paying the backend hop on the data path.
    clock: Any

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time in milliseconds since the runtime epoch."""
        return self.clock.now

    @abstractmethod
    def schedule(self, delay_ms: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay_ms`` milliseconds."""

    @abstractmethod
    def rng_stream(self, name: str) -> Any:
        """The runtime's named ``random.Random`` stream (cached by name)."""

    # -- control surface (the migrate/pin/place API) -------------------

    @abstractmethod
    def migrate_actor(self, ref: Any, target: Any,
                      force: bool = False) -> Any:
        """Start a two-phase live migration of ``ref`` to ``target``.

        Returns a completion handle, or ``None``/``False`` when refused
        (pinned without force, already migrating, target down, ...).
        """

    def pin(self, ref: Any, pinned: bool = True) -> None:
        """Mark ``ref`` immovable (``pin`` EPL behavior)."""
        self.system.pin(ref, pinned)

    @abstractmethod
    def resurrect_actor(self, tombstone: Any,
                        server: Optional[Any] = None) -> Any:
        """Re-create a crashed actor from its directory tombstone."""

    @abstractmethod
    def install(self, placement_policy: Any,
                epoch_source: Callable[[], int],
                overload: Optional[Any]) -> None:
        """Plug a starting EMR into the data plane: rule-aware placement
        of new actors, the control-plane epoch stamped on placements,
        and (when configured) the shared overload-protection state."""

    @abstractmethod
    def uninstall(self, placement_policy: Any,
                  overload: Optional[Any]) -> None:
        """Undo :meth:`install` (only what is still this EMR's)."""

    # -- fleet verbs ---------------------------------------------------

    @abstractmethod
    def servers(self) -> Sequence[Any]:
        """The current fleet."""

    @abstractmethod
    def boot_server(self, type_name: Optional[str] = None) -> None:
        """Request one more server (it may join after a boot delay)."""

    @abstractmethod
    def retire_server(self, server: Any) -> None:
        """Shut an (emptied) server down and stop paying for it."""

    @abstractmethod
    def pending_boots(self) -> int:
        """Servers requested but not yet joined."""

    @abstractmethod
    def add_join_listener(self, listener: Callable[[Any], None]) -> None:
        """Call ``listener(server)`` whenever a server joins the fleet."""

    # -- observation surface -------------------------------------------

    def actors_on(self, server: Any) -> List[Any]:
        """Directory records of actors currently placed on ``server``."""
        return self.system.actors_on(server)

    def mailbox_depth(self, actor_id: int) -> int:
        """Queued (undelivered) messages for one actor."""
        return self.system.mailbox_depth(actor_id)

    # -- profiling subscribers -----------------------------------------

    def add_hooks(self, hooks: Any) -> None:
        """Subscribe a :class:`~repro.actors.hooks.RuntimeHooks`."""
        self.system.add_hooks(hooks)

    def remove_hooks(self, hooks: Any) -> None:
        """Unsubscribe a previously added hooks object."""
        self.system.remove_hooks(hooks)


class SimBackend(RuntimeBackend):
    """Adapter exposing the simulator-backed ``ActorSystem``.

    Every method is a one-hop delegation to the exact call the EMR made
    before the backend indirection existed; no reordering, no extra
    simulator events, no added randomness.
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self.clock = system.sim

    # -- clock ---------------------------------------------------------

    def schedule(self, delay_ms: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        self.clock.schedule(delay_ms, callback, *args)

    def rng_stream(self, name: str) -> Any:
        return self.system.streams.stream(name)

    # -- control surface -----------------------------------------------

    def migrate_actor(self, ref: Any, target: Any,
                      force: bool = False) -> Any:
        return self.system.migrate_actor(ref, target, force=force)

    def resurrect_actor(self, tombstone: Any,
                        server: Optional[Any] = None) -> Any:
        return self.system.resurrect_actor(tombstone, server)

    def install(self, placement_policy: Any,
                epoch_source: Callable[[], int],
                overload: Optional[Any]) -> None:
        self.system.placement_policy = placement_policy
        self.system.epoch_source = epoch_source
        if overload is not None:
            self.system.overload = overload

    def uninstall(self, placement_policy: Any,
                  overload: Optional[Any]) -> None:
        if overload is not None and self.system.overload is overload:
            self.system.overload = None
        if self.system.placement_policy is placement_policy:
            self.system.placement_policy = None
        self.system.epoch_source = None

    # -- fleet verbs ---------------------------------------------------

    def servers(self) -> Sequence[Any]:
        return self.system.provisioner.servers

    def boot_server(self, type_name: Optional[str] = None) -> None:
        self.system.provisioner.boot_server(type_name)

    def retire_server(self, server: Any) -> None:
        self.system.provisioner.retire_server(server)

    def pending_boots(self) -> int:
        return self.system.provisioner.pending_boots()

    def add_join_listener(self, listener: Callable[[Any], None]) -> None:
        self.system.provisioner.add_join_listener(listener)
