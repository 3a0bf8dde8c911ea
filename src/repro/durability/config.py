"""Configuration for the durable-state subsystem.

``DurabilityConfig`` is carried on ``EmrConfig.durability``.  The
default is **off**: with ``enabled=False`` (or the field left ``None``)
the runtime schedules nothing, charges nothing, and consumes no
randomness, so fault-free golden traces stay bit-identical to a build
without the subsystem.  The subsystem itself never draws from an RNG
even when enabled — replica placement and checkpoint timing are fully
deterministic functions of the simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DurabilityConfig"]


@dataclass
class DurabilityConfig:
    """Knobs for checkpointing, replication, and journaling.

    enabled:
        Master switch.  ``False`` makes the whole subsystem inert.
    checkpoint_interval_ms:
        Period of the background checkpoint sweep.  Each sweep
        checkpoints every actor that processed at least one message
        since its last checkpoint.
    dirty_message_threshold:
        If set, an actor that processes this many messages since its
        last checkpoint is checkpointed immediately instead of waiting
        for the sweep.  ``None`` disables dirty-triggered writes.
    replication_factor:
        Number of peer servers each checkpoint is copied to.  Peers are
        chosen deterministically among running servers reachable from
        the actor's host (partition-side-aware: severed links are
        skipped).  When no peer is reachable the write degrades to a
        host-local copy — which a host crash then destroys, exactly the
        exposure the replication factor is meant to buy down.
    serialize_cpu_ms:
        CPU time charged to the host server for serializing one
        snapshot, through the same ``Server.execute`` path EPR profiling
        overhead uses, so checkpointing contends with application work.
    snapshot_fraction:
        Fraction of the actor's ``state_size_mb`` actually written per
        checkpoint (models incremental/delta snapshots).  The byte count
        is charged to NIC meters via the network fabric's transfer cost
        model.
    ship_transfer_checkpoint:
        During two-phase migration, take a checkpoint at transfer start
        whose sole replica is the migration target; commit acknowledges
        it, rollback restores the instance from it.
    max_checkpoints_per_actor:
        Retention cap per actor; older acknowledged checkpoints beyond
        the cap are pruned.
    """

    enabled: bool = False
    checkpoint_interval_ms: float = 10_000.0
    dirty_message_threshold: Optional[int] = None
    replication_factor: int = 2
    serialize_cpu_ms: float = 0.2
    snapshot_fraction: float = 1.0
    ship_transfer_checkpoint: bool = True
    max_checkpoints_per_actor: int = 4

    def __post_init__(self) -> None:
        if self.checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be positive, "
                             f"got {self.checkpoint_interval_ms!r}")
        if (self.dirty_message_threshold is not None
                and self.dirty_message_threshold < 1):
            raise ValueError("dirty_message_threshold must be >= 1 or None, "
                             f"got {self.dirty_message_threshold!r}")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1, "
                             f"got {self.replication_factor!r}")
        if self.serialize_cpu_ms < 0:
            raise ValueError("serialize_cpu_ms must be >= 0, "
                             f"got {self.serialize_cpu_ms!r}")
        if not 0.0 < self.snapshot_fraction <= 1.0:
            raise ValueError("snapshot_fraction must be in (0, 1], "
                             f"got {self.snapshot_fraction!r}")
        if self.max_checkpoints_per_actor < 1:
            raise ValueError("max_checkpoints_per_actor must be >= 1, "
                             f"got {self.max_checkpoints_per_actor!r}")
