"""Runtime state for the overload-protection layer.

An :class:`OverloadManager` is the single object both planes share:

- the **data plane** (``ActorSystem._deliver`` and friends) consults it
  for mailbox bounds / admission decisions and reports every client
  message's terminal disposition to it, and
- the **control plane** (LEM rounds, the GEM failure detector) drives
  its per-server brownout state machine through :meth:`note_lem_round`.

The :class:`DispositionLedger` is what makes load shedding
*accountable*: every client message is issued exactly once and must
reach exactly one terminal state (:data:`DISPOSITIONS`).  The invariant
checker audits it — see ``admission-conservation`` in ``repro.check``.
The live front door keeps one over HTTP requests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from .config import OverloadConfig

__all__ = ["DispositionLedger", "OverloadManager", "DISPOSITIONS"]

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


class DispositionLedger:
    """Every issued key reaches exactly one of a fixed set of terminal
    dispositions.

    Disposing a key that was never issued (e.g. an actor-to-actor
    message) is ignored; disposing one twice appends ``(key, first,
    second)`` to :attr:`double_dispositions`, which is an accounting
    bug.  ``issued == sum(counts) + outstanding`` holds at every
    instant.
    """

    def __init__(self, kinds: Tuple[str, ...]) -> None:
        self.issued = 0
        self.counts: Dict[str, int] = dict.fromkeys(kinds, 0)
        self.disposed: Dict[Hashable, str] = {}
        self._outstanding: Set[Hashable] = set()
        self.double_dispositions: List[Tuple[Hashable, str, str]] = []

    @property
    def answered(self) -> int:
        """The front door's 2xx count, which its load reports read by
        name."""
        return self.counts["answered"]

    def issue(self, key: Hashable) -> None:
        self.issued += 1
        self._outstanding.add(key)

    def dispose(self, key: Hashable, kind: str) -> None:
        previous = self.disposed.get(key)
        if previous is not None:
            self.double_dispositions.append((key, previous, kind))
        elif key in self._outstanding:
            self._outstanding.remove(key)
            self.disposed[key] = kind
            self.counts[kind] += 1

    @property
    def outstanding(self) -> int:
        """Keys issued but not yet disposed (queued or in flight)."""
        return len(self._outstanding)

    def balanced(self) -> bool:
        """True when every issued key has been disposed."""
        return not self._outstanding

    def as_dict(self) -> Dict[str, int]:
        return {"issued": self.issued, **self.counts,
                "outstanding": self.outstanding}


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
        self.ledger = DispositionLedger(DISPOSITIONS)
        # -- shedding / backpressure telemetry -------------------------
        self.shed_by_server: Dict[str, int] = {}
        self.shed_by_actor: Dict[int, int] = {}
        self.backpressure_waits = 0
        self.peak_mailbox_depth = 0
        # -- brownout --------------------------------------------------
        self._brownout: Dict[str, _BrownoutState] = {}
        self._drowning_announced: Set[str] = set()

    # -- disposition ledger --------------------------------------------

    def dispose(self, message: Any, kind: str) -> None:
        """Record a message's terminal disposition (one of
        :data:`DISPOSITIONS`); untracked messages are ignored."""
        self.ledger.dispose(message.message_id, kind)

    def note_shed(self, message: Any, server_name: str,
                  actor_id: int, reason: str = "shed") -> None:
        """Record a mailbox drop.  Counts *all* sheds per actor/server;
        the disposition ledger only tracks client messages."""
        self.shed_by_server[server_name] = (
            self.shed_by_server.get(server_name, 0) + 1)
        self.shed_by_actor[actor_id] = (
            self.shed_by_actor.get(actor_id, 0) + 1)
        if message.is_client_call():
            self.ledger.dispose(message.message_id, reason)

    def note_backpressure(self, message: Any) -> None:
        self.backpressure_waits += 1

    def note_mailbox_depth(self, depth: int) -> None:
        if depth > self.peak_mailbox_depth:
            self.peak_mailbox_depth = depth

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
