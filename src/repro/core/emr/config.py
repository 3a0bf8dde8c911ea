"""Elasticity management runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...durability import DurabilityConfig
from ...overload import OverloadConfig

__all__ = ["EmrConfig", "ADMISSION_UPPER", "CONTROL_LATENCY_MS"]

#: One-way latency of a LEM<->GEM (or leaf<->root) control message.
CONTROL_LATENCY_MS = 1.0

#: Admission upper bound (percent) used by checkIdleRes when a rule
#: supplies no explicit bound.
ADMISSION_UPPER = 80.0


@dataclass
class EmrConfig:
    """Tunables for the elasticity management runtime.

    Defaults follow the paper: the elasticity period is user-set (60 s
    here; experiments use 60–180 s), the placement-stability window
    equals one period (§4.3), and migrations are conservative (a few
    actors per server per period so the system "inches towards" a good
    distribution rather than thrashing).
    """

    #: Elasticity (time) period between management rounds.
    period_ms: float = 60_000.0
    #: Servers per leaf group of the two-tier GEM tree (see
    #: :mod:`.hierarchy`).  ``None`` means one group spanning the whole
    #: fleet — the paper's flat layout, where every GEM evaluates
    #: whatever servers reported to it and the root tier stays inert.
    #: Benchmarks size it ~sqrt(fleet) so root decision cost stays
    #: sub-linear in servers.
    server_group_size: Optional[int] = None
    #: Mean-CPU gap (percentage points) between the hottest and coldest
    #: group before the root plans cross-group migrations.
    cross_group_band: float = 20.0
    #: Placement stability: an actor may move only after this long on its
    #: current server.  ``None`` means one elasticity period.
    stability_ms: Optional[float] = None
    #: Number of global elasticity managers.
    gem_count: int = 1
    #: How long a GEM collects REPORTs after the first one each round.
    gem_wait_ms: float = 2_000.0
    #: Minimum number of reports before a GEM processes (paper's K).
    min_reports: int = 1
    #: LEM waits at most this long for its GEM's RREPLY before proceeding
    #: with local actions only (GEM failure tolerance, §4.3).
    gem_reply_timeout_ms: float = 10_000.0
    #: Max migrations planned per source server per period.
    max_moves_per_server: int = 3
    #: Scale-out/in of the server fleet (dynamic resource allocation).
    allow_scale_out: bool = False
    allow_scale_in: bool = False
    min_servers: int = 1
    max_scale_out_per_period: int = 1
    #: Instance type to boot on scale-out; ``None`` = provisioner default.
    scale_instance_type: Optional[str] = None
    #: Offset between successive LEM period timers (avoids thundering herd).
    lem_stagger_ms: float = 50.0
    #: CPU charged per profiled message (EPR overhead model, Table 3).
    profiling_overhead_cpu_ms: float = 0.0
    #: Failure detection: a server whose LEM has not reported for this
    #: long is suspected dead and its lost actors are resurrected.
    #: ``None`` (the default) disables detection; when set it must exceed
    #: ``period_ms``, because healthy LEMs report once per period.
    suspicion_timeout_ms: Optional[float] = None
    #: Re-create actors lost to a confirmed server failure through the
    #: rule-aware placement path (only effective with detection on).
    resurrect_lost_actors: bool = True
    #: Durable actor state (checkpoints, journaling, state-preserving
    #: recovery).  ``None`` — or a config with ``enabled=False`` — keeps
    #: the subsystem fully inert: no hooks, no scheduling, no RNG, so
    #: fault-free golden traces stay bit-identical.
    durability: Optional[DurabilityConfig] = None
    #: Overload protection (bounded mailboxes, admission control,
    #: brownout reporting).  ``None`` keeps the subsystem fully inert:
    #: the actor system's delivery path stays byte-identical, LEMs
    #: always ship full REPORTs, and the failure detector grants no
    #: drowning grace — golden traces stay bit-identical.
    overload: Optional[OverloadConfig] = None
    #: Seed a resurrected actor's EPR profile from its pre-crash stats
    #: instead of starting cold, so rules re-converge faster after a
    #: recovery.  Off by default (a restarted actor's past rates may no
    #: longer describe it).
    warm_start_profiles: bool = False

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if self.gem_count < 1:
            raise ValueError("gem_count must be at least 1")
        if (self.server_group_size is not None
                and self.server_group_size < 1):
            raise ValueError("server_group_size must be positive (or None)")
        if self.cross_group_band <= 0:
            raise ValueError("cross_group_band must be positive")
        if self.stability_ms is not None and self.stability_ms < 0:
            raise ValueError("stability_ms must be non-negative")
        if self.gem_wait_ms < 0 or self.gem_reply_timeout_ms <= 0:
            raise ValueError("GEM wait/timeout must be non-negative")
        if self.gem_reply_timeout_ms <= self.gem_wait_ms:
            raise ValueError(
                "gem_reply_timeout_ms must exceed gem_wait_ms, or every "
                "LEM would time out before its GEM even starts planning")
        if self.max_moves_per_server < 1:
            raise ValueError("max_moves_per_server must be at least 1")
        if self.min_servers < 0 or self.max_scale_out_per_period < 1:
            raise ValueError("invalid fleet scaling bounds")
        if self.lem_stagger_ms < 0:
            raise ValueError("lem_stagger_ms must be non-negative")
        if self.profiling_overhead_cpu_ms < 0:
            raise ValueError("profiling_overhead_cpu_ms must be "
                             "non-negative")
        if (self.suspicion_timeout_ms is not None
                and self.suspicion_timeout_ms <= self.period_ms):
            raise ValueError(
                "suspicion_timeout_ms must exceed period_ms: LEMs report "
                "once per period, so a shorter timeout suspects every "
                "healthy server")
        if (self.durability is not None
                and not isinstance(self.durability, DurabilityConfig)):
            raise ValueError("durability must be a DurabilityConfig or None, "
                             f"got {type(self.durability).__name__}")
        if (self.overload is not None
                and not isinstance(self.overload, OverloadConfig)):
            raise ValueError("overload must be an OverloadConfig or None, "
                             f"got {type(self.overload).__name__}")

    def stability_window_ms(self) -> float:
        return self.period_ms if self.stability_ms is None else self.stability_ms
