"""The fuzz scenario: a complete, serializable run description.

A :class:`Scenario` captures *everything* a run depends on — topology,
EPL rules, workload, elasticity knobs, fault schedule, and the seed —
so a failing input can be written to a small JSON artifact, checked into
``tests/fuzz/corpus/`` as a regression, and replayed bit-for-bit with
``python -m repro.cli fuzz --replay FILE``.

Scenarios are data, never code: the runner interprets them.  The format
is versioned (:data:`SCENARIO_FORMAT`) so stale corpus artifacts fail
loudly rather than silently meaning something else.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Scenario", "SCENARIO_FORMAT", "APPS"]

SCENARIO_FORMAT = "repro-fuzz-scenario/1"

#: Application topologies the generator knows how to build.
APPS = ("pagerank", "estore", "chatroom")


@dataclass(frozen=True)
class Scenario:
    """One deterministic elasticity-stack run, as data."""

    seed: int
    app: str
    #: -- cluster ----------------------------------------------------
    servers: int = 3
    instance_type: str = "m5.large"
    boot_delay_ms: float = 1_000.0
    #: -- schedule ---------------------------------------------------
    duration_ms: float = 30_000.0
    #: -- elasticity policy (EPL source, one rule per entry) ---------
    rules: Tuple[str, ...] = ()
    #: -- EMR knobs --------------------------------------------------
    period_ms: float = 5_000.0
    stability_ms: Optional[float] = None
    gem_count: int = 1
    gem_wait_ms: float = 300.0
    lem_stagger_ms: float = 10.0
    max_moves_per_server: int = 3
    #: Scale-out boots at most one server per period; scale-in drains
    #: down to ``min_servers`` (the runner maps both onto ``EmrConfig``).
    allow_scale_out: bool = False
    allow_scale_in: bool = False
    min_servers: int = 1
    suspicion_timeout_ms: Optional[float] = None
    #: -- workload ---------------------------------------------------
    clients: int = 4
    think_ms: float = 20.0
    #: -- faults (``fault_to_dict`` form) ----------------------------
    faults: Tuple[Dict[str, Any], ...] = ()
    #: -- app topology parameters ------------------------------------
    app_params: Dict[str, Any] = field(default_factory=dict)
    #: -- durable state (``DurabilityConfig`` kwargs; ``None`` = off) --
    #: Absent from older corpus artifacts, which therefore keep
    #: replaying with durability off.
    durability: Optional[Dict[str, Any]] = None
    #: -- overload protection (``OverloadConfig`` kwargs plus the
    #: runner-level ``client_jitter_frac`` key; ``None`` = off).  Like
    #: ``durability``, absent from older corpus artifacts.
    overload: Optional[Dict[str, Any]] = None
    #: -- cluster-scale control plane.  Defaults to one server group
    #: (the flat control plane), so older corpus artifacts (where the
    #: field is absent) keep replaying bit-identically.
    server_group_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; "
                             f"expected one of {APPS}")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if self.clients < 0:
            raise ValueError("clients must be >= 0")
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "faults",
                           tuple(dict(f) for f in self.faults))
        if self.durability is not None:
            object.__setattr__(self, "durability", dict(self.durability))
        if self.overload is not None:
            object.__setattr__(self, "overload", dict(self.overload))

    # -- serialization -------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        data = asdict(self)
        data["format"] = SCENARIO_FORMAT
        data["rules"] = list(self.rules)
        data["faults"] = [dict(f) for f in self.faults]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent,
                          sort_keys=True)

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "Scenario":
        payload = dict(data)
        found = payload.pop("format", None)
        if found != SCENARIO_FORMAT:
            raise ValueError(
                f"not a fuzz scenario: format {found!r} "
                f"(expected {SCENARIO_FORMAT!r})")
        # Legacy key: artifacts written while a separate flat plane
        # existed name their topology.  ``server_group_size`` alone
        # decides it now, so a valid value is accepted and dropped (the
        # flat plane ignored the group size, so "flat" clears it).
        legacy = payload.pop("control_plane", None)
        if legacy not in (None, "flat", "hierarchical"):
            raise ValueError(f"unknown control_plane {legacy!r}")
        if legacy == "flat":
            payload["server_group_size"] = None
        # Legacy key: artifacts written while ``DurabilityConfig`` had an
        # ``enabled`` switch carry it.  The dict's presence is the switch
        # now, so ``true`` is dropped and ``false`` turns durability off.
        durability = payload.get("durability")
        if durability is not None and "enabled" in durability:
            durability = dict(durability)
            payload["durability"] = (durability if durability.pop("enabled")
                                     else None)
        # Legacy keys: artifacts written while the directory could be
        # spread over a hash ring carry the ring's shape.  There is one
        # directory now, so both are dropped.
        payload.pop("directory_shards", None)
        payload.pop("directory_virtual_nodes", None)
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        payload["rules"] = tuple(payload.get("rules", ()))
        payload["faults"] = tuple(payload.get("faults", ()))
        return cls(**payload)

    # -- convenience ---------------------------------------------------

    def policy_source(self) -> str:
        """The scenario's EPL policy as one source string."""
        return "\n".join(self.rules) + ("\n" if self.rules else "")

    def describe(self) -> str:
        parts = [f"seed={self.seed}", self.app,
                 f"{self.servers}x{self.instance_type}",
                 f"{self.duration_ms / 1000.0:.0f}s",
                 f"{len(self.rules)} rule(s)"]
        if self.faults:
            parts.append(f"{len(self.faults)} fault(s)")
        if self.allow_scale_out or self.allow_scale_in:
            parts.append("autoscale")
        if self.durability is not None:
            parts.append("durable")
        if self.overload is not None:
            parts.append("overload")
        if self.server_group_size is not None:
            parts.append(f"hierarchical(groups of {self.server_group_size})")
        return " ".join(parts)
