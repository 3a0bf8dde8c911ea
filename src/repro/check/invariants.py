"""The invariant catalogue and the violation record type.

Each invariant has a stable kebab-case name used in violation reports,
corpus artifacts, and the documentation (``docs/testing.md``).  The
checker in :mod:`repro.check.checker` evaluates them continuously from
runtime events; this module is the single place their meaning is
written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["INVARIANTS", "Violation", "InvariantError"]


#: name -> one-line statement of the property.  Keep in sync with
#: docs/testing.md (the tests assert the two lists match).
INVARIANTS: Dict[str, str] = {
    "stability-window": (
        "an actor never starts a migration before it has spent one full "
        "stability window (default: one elasticity period) on its "
        "current placement"),
    "pin-integrity": (
        "no executed migration moves a pinned actor, except an explicit "
        "reserve (which outranks pin in the paper's priority order)"),
    "conflict-priority": (
        "conflict resolution keeps, for every actor, an action whose "
        "priority is the maximum over all actions proposed for that "
        "actor in the round (ties broken by proposal order)"),
    "scale-out-majority": (
        "every fleet scale-out decision is backed by a GEM majority "
        "vote whose recomputed outcome agrees with the recorded one"),
    "scale-in-majority": (
        "every fleet scale-in (server drain) decision is backed by a "
        "GEM majority vote whose recomputed outcome agrees with the "
        "recorded one"),
    "actor-conservation": (
        "no actor is lost or duplicated: every live actor id has "
        "exactly one directory record, resurrections only revive "
        "actors actually lost to a crash, and never twice"),
    "single-flight": (
        "an actor never has two overlapping migrations: a started "
        "migration completes or aborts before the next one starts"),
    "migration-sanity": (
        "every started migration has src != dst, starts from the "
        "server that actually hosts the actor, and targets a running, "
        "non-draining server"),
    "resource-accounting": (
        "per-server snapshots account for their actors: state memory "
        "of hosted actors sums to the server's booked memory, and "
        "every snapshot percentage lies in [0, 100] (memory may "
        "exceed 100 only through explicit oversubscription)"),
    "availability-consistency": (
        "client availability meters record failures/timeouts only "
        "when faults were actually injected (or a server crashed); a "
        "fault-free run is 100% available"),
    "placement-consistency": (
        "at every sweep, each directory record is hosted on a running "
        "server, pending placements match the provisioner's fleet, and "
        "the directory's per-server placement index lists, for every "
        "running server, exactly the records placed there, in "
        "registration order"),
    "no-split-brain": (
        "while a partition denies a GEM its quorum, that GEM requests "
        "no scale votes, executes no fleet changes, and no migration "
        "starts from or onto a quorum-less side's servers"),
    "epoch-monotonicity": (
        "control-plane epochs only move forward: every event-carried "
        "epoch is non-decreasing over time and never exceeds the "
        "manager's global epoch"),
    "no-duplicate-actor": (
        "an actor alive on an unreachable-but-running server is never "
        "resurrected or re-created elsewhere while the partition "
        "lasts, and after heal every actor id has exactly one record"),
    "state-durability": (
        "a restored actor's state is exactly the newest acknowledged "
        "checkpoint that still has a readable replica (not crashed, "
        "not quorum-less, link to the new host not severed), verified "
        "by round-trip digest — never an unacknowledged or stale one"),
    "checkpoint-monotonicity": (
        "per-actor checkpoint sequence numbers strictly increase, "
        "separately for writes and for acknowledgements: an "
        "acknowledged checkpoint is never re-acknowledged and never "
        "superseded by a lower sequence"),
    "no-minority-restore": (
        "while a partition is active, no state restore reads from a "
        "replica hosted on a quorum-less side's server"),
    "no-message-loss-without-shed-record": (
        "with overload protection active, no bounded mailbox ever "
        "exceeds its capacity, and every message dropped by the data "
        "plane leaves a shed record (ledger counts agree with hook "
        "observations)"),
    "admission-conservation": (
        "every client message reaches exactly one terminal "
        "disposition — delivered, shed, rejected, deadline-dropped, "
        "fabric-lost, or dead on a crashed/missing target — never "
        "zero, never two: issued equals the terminal sum plus "
        "messages still in flight"),
    "brownout-exit": (
        "brownout is not sticky: once a browned-out server's load "
        "falls back below the exit watermark, brownout lifts within a "
        "bounded number of (stretched) reporting rounds"),
    "shard-coverage": (
        "with a sharded directory, every live actor record lives in "
        "exactly one shard map — the consistent-hash ring owner's — "
        "and the union of the shard maps is exactly the authoritative "
        "directory (no dead records linger in any shard)"),
    "aggregate-consistency": (
        "every published group aggregate carries sums that equal the "
        "recomputation over its per-server values, covers only servers "
        "assigned to that group, and the root tier's delta-folded view "
        "of each group matches the group's latest full aggregate"),
    "cross-group-single-authority": (
        "every server belongs to exactly one server group, resource "
        "migrations (balance/reserve/drain) crossing a group boundary "
        "are issued only by the root tier, and every root-issued "
        "migration actually crosses a group boundary"),
    "root-single-authority": (
        "at most one root incarnation holds authority at a time: while "
        "the root is failed no root round runs and no root-issued "
        "migration starts, root generations only move forward, and a "
        "root round never carries a generation other than the latest "
        "promoted one"),
    "aggregate-resync-after-failover": (
        "whenever a group's aggregate stream breaks — root promotion "
        "or recovery, group adoption or release — the next aggregate "
        "published for that group is full (every field ships), never a "
        "delta against a baseline the new consumer or publisher does "
        "not have"),
    "no-stranded-cross-group-migration": (
        "a root-issued cross-group migration started before the root "
        "died is driven to commit or rollback by the two-phase "
        "timeouts: no actor stays marked migrating longer than the "
        "phase-timeout bound, and none is left migrating at the end of "
        "the run beyond that bound"),
}


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    invariant: str
    time_ms: float
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"[{self.time_ms / 1000.0:9.3f}s] {self.invariant}: "
                f"{self.message}")


class InvariantError(AssertionError):
    """Raised in strict mode at the moment an invariant breaks."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation
