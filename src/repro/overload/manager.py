"""Runtime state for the overload-protection layer.

An :class:`OverloadManager` is the single object both planes share:

- the **data plane** (``ActorSystem._deliver`` and friends) consults it
  for mailbox bounds / admission decisions and reports every client
  message's terminal disposition to it, and
- the **control plane** (LEM rounds, the GEM failure detector) drives
  its per-server brownout state machine through :meth:`note_lem_round`.

The disposition ledger is what makes load shedding *accountable*: every
client message is issued exactly once and must reach exactly one
terminal state (:data:`DISPOSITIONS`).  The invariant checker audits the
ledger — see ``admission-conservation`` in ``repro.check``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .config import OverloadConfig

__all__ = ["OverloadManager", "DISPOSITIONS"]

#: Terminal states a client message can reach, exactly one each:
#:
#: - ``consumed``: popped from a mailbox and handled by the actor.
#: - ``shed``: dropped by the mailbox bound (``shed``/``deadline``
#:   policies); the client got an ``Overloaded`` NACK.
#: - ``rejected``: refused by server admission control before it ever
#:   queued; the client got an ``Overloaded`` NACK.
#: - ``deadline``: arrived after the client's deadline had already
#:   expired (``deadline`` policy) and was dropped as waste.
#: - ``fabric-lost``: dropped in flight by a network fault.
#: - ``no-target``: the target actor did not exist at send time.
#: - ``dead-target``: the target was destroyed (or its mailbox cleared
#:   by `destroy_actor`) while the message was queued.
#: - ``crashed``: lost when the hosting server crashed with the message
#:   still queued or in flight.
DISPOSITIONS = ("consumed", "shed", "rejected", "deadline",
                "fabric-lost", "no-target", "dead-target", "crashed")


class _BrownoutState:
    """Hysteresis counters for one server."""

    __slots__ = ("active", "above_rounds", "below_rounds", "entered_at")

    def __init__(self) -> None:
        self.active = False
        self.above_rounds = 0
        self.below_rounds = 0
        self.entered_at: Optional[float] = None


class OverloadManager:
    """Shared overload state: disposition ledger + brownout machine.

    ``emit`` is an optional event sink with the elasticity manager's
    ``emit(kind, **fields)`` signature; brownout transitions and
    drowning announcements go through it so traces and the checker see
    them.
    """

    def __init__(self, system: Any, config: OverloadConfig,
                 emit: Optional[Callable[..., None]] = None) -> None:
        self.system = system
        self.config = config
        self.emit = emit
        # -- disposition ledger ----------------------------------------
        self.issued = 0
        self.counts: Dict[str, int] = {d: 0 for d in DISPOSITIONS}
        self._disposition: Dict[int, str] = {}
        self._outstanding: Set[int] = set()
        #: (message_id, first disposition, second disposition) triples —
        #: any entry is an accounting bug the checker turns into an
        #: ``admission-conservation`` violation.
        self.double_dispositions: List[Tuple[int, str, str]] = []
        # -- shedding / backpressure telemetry -------------------------
        self.shed_by_server: Dict[str, int] = {}
        self.shed_by_actor: Dict[int, int] = {}
        self.backpressure_waits = 0
        self.peak_mailbox_depth = 0
        # -- brownout --------------------------------------------------
        self._brownout: Dict[str, _BrownoutState] = {}
        self._drowning_announced: Set[str] = set()

    # -- disposition ledger --------------------------------------------

    def note_issued(self, message: Any) -> None:
        """Record a client message entering the system."""
        self.issued += 1
        self._outstanding.add(message.message_id)

    def _terminal(self, message: Any, kind: str) -> None:
        mid = message.message_id
        if mid not in self._outstanding and mid not in self._disposition:
            # Not a tracked client message (issued before attach, or an
            # actor-to-actor message) — nothing to account.
            return
        previous = self._disposition.get(mid)
        if previous is not None:
            self.double_dispositions.append((mid, previous, kind))
            return
        self._disposition[mid] = kind
        self._outstanding.discard(mid)
        self.counts[kind] += 1

    def note_consumed(self, message: Any) -> None:
        self._terminal(message, "consumed")

    def note_shed(self, message: Any, server_name: str,
                  actor_id: int, reason: str = "shed") -> None:
        """Record a mailbox drop.  Counts *all* sheds per actor/server;
        the disposition ledger only tracks client messages."""
        self.shed_by_server[server_name] = (
            self.shed_by_server.get(server_name, 0) + 1)
        self.shed_by_actor[actor_id] = (
            self.shed_by_actor.get(actor_id, 0) + 1)
        if message.is_client_call():
            self._terminal(message, reason)

    def note_rejected(self, message: Any) -> None:
        self._terminal(message, "rejected")

    def note_fabric_lost(self, message: Any) -> None:
        self._terminal(message, "fabric-lost")

    def note_no_target(self, message: Any) -> None:
        self._terminal(message, "no-target")

    def note_dead_target(self, message: Any) -> None:
        self._terminal(message, "dead-target")

    def note_crashed(self, message: Any) -> None:
        self._terminal(message, "crashed")

    def note_backpressure(self, message: Any) -> None:
        self.backpressure_waits += 1

    def note_mailbox_depth(self, depth: int) -> None:
        if depth > self.peak_mailbox_depth:
            self.peak_mailbox_depth = depth

    @property
    def outstanding_count(self) -> int:
        """Client messages issued but not yet at a terminal state
        (queued in some mailbox or in flight)."""
        return len(self._outstanding)

    def conservation_balance(self) -> Dict[str, int]:
        """The admission-conservation equation, as data.

        ``issued == sum(terminal counts) + outstanding`` must hold at
        every instant; the checker asserts it.
        """
        balance = dict(self.counts)
        balance["issued"] = self.issued
        balance["outstanding"] = self.outstanding_count
        return balance

    def total_shed(self) -> int:
        return sum(self.shed_by_server.values())

    # -- brownout state machine ----------------------------------------

    def _state(self, server_name: str) -> _BrownoutState:
        state = self._brownout.get(server_name)
        if state is None:
            state = self._brownout[server_name] = _BrownoutState()
        return state

    def note_lem_round(self, server: Any, cpu_perc: float,
                       now: float) -> bool:
        """Feed one LEM-round CPU sample into the hysteresis machine.

        Returns whether the server is browned out *after* this sample —
        the LEM uses the answer to decide whether to truncate the
        REPORT it is about to ship and stretch its next period.
        """
        config = self.config
        state = self._state(server.name)
        if not state.active:
            if cpu_perc >= config.brownout_enter_cpu_perc:
                state.above_rounds += 1
                if state.above_rounds >= config.brownout_enter_rounds:
                    state.active = True
                    state.entered_at = now
                    state.below_rounds = 0
                    if self.emit is not None:
                        self.emit("brownout-entered", server=server.name,
                                  cpu_perc=cpu_perc)
            else:
                state.above_rounds = 0
        else:
            if cpu_perc <= config.brownout_exit_cpu_perc:
                state.below_rounds += 1
                if state.below_rounds >= config.brownout_exit_rounds:
                    state.active = False
                    state.above_rounds = 0
                    state.entered_at = None
                    self._drowning_announced.discard(server.name)
                    if self.emit is not None:
                        self.emit("brownout-exited", server=server.name,
                                  cpu_perc=cpu_perc)
            else:
                state.below_rounds = 0
        return state.active

    def is_browned_out(self, server_name: str) -> bool:
        state = self._brownout.get(server_name)
        return state is not None and state.active

    def note_drowning(self, server_name: str) -> bool:
        """Mark the drowning announcement for a server; returns True the
        first time per brownout episode so the detector emits once."""
        if server_name in self._drowning_announced:
            return False
        self._drowning_announced.add(server_name)
        return True

    def note_report_received(self, server_name: str) -> None:
        """A REPORT arrived — the server is slow, not silent."""
        self._drowning_announced.discard(server_name)

    def note_server_crashed(self, server_name: str) -> None:
        """Forget brownout state for a server that actually died."""
        self._brownout.pop(server_name, None)
        self._drowning_announced.discard(server_name)
