"""Configuration for the overload-protection layer.

Everything here is opt-in: an :class:`OverloadConfig` only takes effect
when attached to :class:`~repro.core.emr.EmrConfig` (or installed on an
``ActorSystem`` directly in tests), and every knob's default keeps the
data plane semantics identical to an unprotected run except for the
mailbox bound itself.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OverloadConfig", "MAILBOX_POLICIES"]

#: Admission policies for a full mailbox.
#:
#: - ``block``: the message is not dropped; delivery retries after
#:   ``block_retry_ms`` (models NIC-level credit-based backpressure —
#:   the sender's traffic occupies the wire until the receiver drains).
#: - ``shed``: deterministic drop-newest.  Client calls receive a
#:   retriable :class:`~repro.actors.Overloaded` NACK; actor-to-actor
#:   messages resolve to ``None`` like calls on a destroyed actor.
#: - ``deadline``: like ``shed``, but additionally drops any client
#:   message whose deadline already expired on arrival, even when the
#:   mailbox has room (the client has given up; the work is waste).
MAILBOX_POLICIES = ("block", "shed", "deadline")


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for bounded mailboxes, admission control, and brownout.

    ``mailbox_capacity == 0`` leaves mailboxes unbounded (admission
    control and brownout can still be active on their own).
    """

    #: Per-actor mailbox bound; 0 = unbounded.
    mailbox_capacity: int = 64
    #: What to do when a mailbox is full (see :data:`MAILBOX_POLICIES`).
    policy: str = "shed"
    #: Backpressure retry interval for the ``block`` policy.
    block_retry_ms: float = 0.5
    #: Reject new client requests when the target's mailbox already
    #: holds this many messages; 0 disables the queue-depth check.
    admission_queue_depth: int = 0
    #: Reject new client requests when the hosting server's CPU
    #: utilisation over a fixed 1 s window (``ADMISSION_CPU_WINDOW_MS`` in
    #: ``repro.actors.system``) is at or above this percentage; 0 disables.
    admission_cpu_perc: float = 0.0
    #: Enter brownout after ``brownout_enter_rounds`` consecutive LEM
    #: rounds at or above this CPU percentage.
    brownout_enter_cpu_perc: float = 90.0
    #: Leave brownout after ``brownout_exit_rounds`` consecutive LEM
    #: rounds at or below this CPU percentage (hysteresis: must be
    #: strictly below the enter watermark).
    brownout_exit_cpu_perc: float = 60.0
    brownout_enter_rounds: int = 2
    brownout_exit_rounds: int = 2
    #: While browned out the LEM reports every ``brownout_stretch``
    #: periods instead of every period, and the failure detector grants
    #: the server the same factor of extra grace before suspecting it.
    brownout_stretch: int = 2
    #: While browned out, REPORTs carry only the top-k actors by CPU
    #: share instead of the full actor set.
    brownout_top_k: int = 8
    #: GEMs planning for a browned-out server that missed the current
    #: round may substitute its last-known-good snapshot if it is at
    #: most this stale.
    stale_snapshot_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.policy not in MAILBOX_POLICIES:
            raise ValueError(f"unknown mailbox policy {self.policy!r}; "
                             f"expected one of {MAILBOX_POLICIES}")
        if self.mailbox_capacity < 0:
            raise ValueError("mailbox_capacity must be >= 0")
        if self.block_retry_ms <= 0:
            raise ValueError("block_retry_ms must be positive")
        if self.admission_queue_depth < 0:
            raise ValueError("admission_queue_depth must be >= 0")
        if not 0.0 <= self.admission_cpu_perc <= 100.0:
            raise ValueError("admission_cpu_perc must be in [0, 100]")
        if not 0.0 <= self.brownout_enter_cpu_perc <= 100.0:
            raise ValueError("brownout_enter_cpu_perc must be in [0, 100]")
        if not 0.0 <= self.brownout_exit_cpu_perc <= 100.0:
            raise ValueError("brownout_exit_cpu_perc must be in [0, 100]")
        if self.brownout_exit_cpu_perc >= self.brownout_enter_cpu_perc:
            raise ValueError("brownout_exit_cpu_perc must be below "
                             "brownout_enter_cpu_perc (hysteresis)")
        if self.brownout_enter_rounds < 1:
            raise ValueError("brownout_enter_rounds must be >= 1")
        if self.brownout_exit_rounds < 1:
            raise ValueError("brownout_exit_rounds must be >= 1")
        if self.brownout_stretch < 1:
            raise ValueError("brownout_stretch must be >= 1")
        if self.brownout_top_k < 1:
            raise ValueError("brownout_top_k must be >= 1")
        if self.stale_snapshot_ms <= 0:
            raise ValueError("stale_snapshot_ms must be positive")
