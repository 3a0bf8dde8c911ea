"""Server provisioning: the simulated AWS Instance Scheduler.

PLASMA's GEMs scale the cluster out/in by asking the provisioner for new
servers (which join after a boot delay, as EC2 instances do) or returning
idle ones.  The provisioner enforces a maximum fleet size and numbers the
servers it boots.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional

from ..sim import Signal, Simulator
from .instances import InstanceType, instance_type
from .server import Server

__all__ = ["Provisioner"]


class Provisioner:
    """Boots and retires simulated servers.

    Parameters
    ----------
    boot_delay_ms:
        Time between a scale-out request and the server joining.  The
        paper provisions via the AWS Instance Scheduler; tens of seconds
        is realistic, and the figures' staircase shapes depend on this
        delay being non-trivial relative to the elasticity period.
    max_servers:
        Hard fleet cap (the Media Service experiment caps at 65).
    """

    def __init__(self, sim: Simulator, default_type: str = "m5.large",
                 boot_delay_ms: float = 30_000.0,
                 max_servers: int = 1024) -> None:
        self.sim = sim
        self.default_type = default_type
        self.boot_delay_ms = boot_delay_ms
        self.max_servers = max_servers
        self.servers: List[Server] = []
        self._pending_boots = 0
        #: Ids of the servers this fleet boots, in boot-completion order.
        self._server_id_seq = itertools.count(1)
        self._join_listeners: List[Callable[[Server], None]] = []
        self._retire_listeners: List[Callable[[Server], None]] = []

    # -- fleet membership --------------------------------------------------

    def add_join_listener(self, listener: Callable[[Server], None]) -> None:
        """Register a callback invoked whenever a server joins the fleet."""
        self._join_listeners.append(listener)

    def add_retire_listener(self, listener: Callable[[Server], None]) -> None:
        """Register a callback invoked whenever a server is retired, while
        it is still in :attr:`servers`."""
        self._retire_listeners.append(listener)

    def boot_server(self, type_name: Optional[str] = None,
                    immediate: bool = False) -> Signal:
        """Request a new server; returns a signal fired with the Server.

        ``immediate`` skips the boot delay (used to stand up the initial
        fleet before an experiment starts).
        """
        done = Signal(self.sim)
        if self.fleet_size() + self._pending_boots >= self.max_servers:
            done.trigger(None)  # fleet cap reached; caller must handle None
            return done
        itype = instance_type(type_name or self.default_type)
        self._pending_boots += 1
        delay = 0.0 if immediate else self.boot_delay_ms
        self.sim.schedule(delay, self._finish_boot, itype, done)
        return done

    def _finish_boot(self, itype: InstanceType, done: Signal) -> None:
        self._pending_boots -= 1
        server = Server(self.sim, itype, next(self._server_id_seq))
        self.servers.append(server)
        for listener in self._join_listeners:
            listener(server)
        done.trigger(server)

    def retire_server(self, server: Server) -> None:
        """Shut a server down and drop it from the fleet.

        Callers are responsible for migrating actors away first; the
        elasticity runtime never retires a non-empty server.
        """
        if server not in self.servers:
            raise ValueError(f"{server!r} is not part of this fleet")
        for listener in self._retire_listeners:
            listener(server)
        self.servers.remove(server)
        server.shutdown()

    # -- queries ---------------------------------------------------------------

    def fleet_size(self) -> int:
        return len(self.servers)

    def pending_boots(self) -> int:
        return self._pending_boots
