"""Declarative fault plans.

A :class:`FaultPlan` is a validated, immutable list of faults with
virtual-time injection points.  Plans are data, not code: the same plan
object can be replayed against different seeds (or the same seed, for
deterministic reproduction of an incident) and serialized into test
parametrizations.

Fault types
-----------

- :class:`CrashServer` — fail-stop a server (its actors die with it);
  optionally boot a replacement after ``replace_after_ms``.
- :class:`KillGem` — stop a global elasticity manager from replying to
  REPORTs; optionally recover it later.
- :class:`KillRoot` — fail the control plane's root tier; optionally
  recover it later.  A root that was superseded by a promotion in the
  meantime stays retired.
- :class:`DegradeNetwork` — multiply remote latencies and/or drop a
  fraction of remote messages for ``duration_ms``.
- :class:`SlowServer` — scale a server's effective CPU speed (a
  "limping" server) for ``duration_ms``.
- :class:`PartitionNetwork` — sever the links between a named group of
  servers (plus, optionally, a set of GEMs) and the rest of the fleet
  for ``duration_ms``; symmetric or asymmetric, absolute or lossy.
- :class:`EventStorm` — flood the fleet (or one server) with junk
  client calls at a fixed rate for ``duration_ms``.
- :class:`HotKeyFlood` — aim the same flood at a *single* actor (the
  hot key), picked deterministically by rank at injection time.

Server-targeting faults refer to servers by *index into the fleet as it
stood when the chaos engine started*, so a plan's meaning does not shift
when earlier faults add or remove servers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["CrashServer", "KillGem", "KillRoot", "DegradeNetwork",
           "SlowServer", "PartitionNetwork", "EventStorm", "HotKeyFlood",
           "FaultPlan", "Fault", "fault_to_dict", "fault_from_dict"]


@dataclass(frozen=True)
class CrashServer:
    """Fail-stop one server at ``at_ms``."""

    at_ms: float
    server_index: int = 0
    #: Boot a same-type replacement this long after the crash (``None``
    #: leaves the fleet permanently smaller).
    replace_after_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.server_index < 0:
            raise ValueError("server_index must be non-negative")
        if self.replace_after_ms is not None and self.replace_after_ms < 0:
            raise ValueError("replace_after_ms must be non-negative")


@dataclass(frozen=True)
class KillGem:
    """Stop GEM ``gem_id`` from replying to REPORTs at ``at_ms``.

    ``gem_id`` is the GEM's *stable id* (the ``GEM.gem_id`` attribute),
    which is also its index in the append-only ``manager.gems``:
    ``respawn_gem`` appends, so an id names the same GEM in every replay.
    """

    at_ms: float
    gem_id: int = 0
    recover_after_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.gem_id < 0:
            raise ValueError("gem_id must be non-negative")
        if self.recover_after_ms is not None and self.recover_after_ms <= 0:
            raise ValueError("recover_after_ms must be positive")


@dataclass(frozen=True)
class KillRoot:
    """Fail the control plane's root tier at ``at_ms``.

    Only consequential on a multi-group tree
    (``EmrConfig.server_group_size`` set): a single-group root is inert,
    so killing it changes no decision.  The engine skips the fault
    (``fault-skipped``) when it runs without an elasticity manager.  With
    ``recover_after_ms`` set the *same incarnation* recovers only if no
    leaf was promoted in the meantime — a superseded root must not
    regain authority (the ``root-single-authority`` invariant).
    """

    at_ms: float
    recover_after_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.recover_after_ms is not None and self.recover_after_ms <= 0:
            raise ValueError("recover_after_ms must be positive")


@dataclass(frozen=True)
class DegradeNetwork:
    """Degrade all remote traffic for ``duration_ms``."""

    at_ms: float
    duration_ms: float
    latency_multiplier: float = 1.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if self.latency_multiplier == 1.0 and self.drop_probability == 0.0:
            raise ValueError("a DegradeNetwork fault must degrade something")


@dataclass(frozen=True)
class SlowServer:
    """Run one server at ``speed_factor`` of nominal CPU speed."""

    at_ms: float
    duration_ms: float
    server_index: int = 0
    speed_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.server_index < 0:
            raise ValueError("server_index must be non-negative")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")


@dataclass(frozen=True)
class PartitionNetwork:
    """Partition ``group`` away from the rest of the fleet at ``at_ms``.

    ``group`` lists server indices (into the starting fleet, like
    :class:`CrashServer`); ``gems`` lists GEM ids stranded on the
    group's side of the cut.  Links within each side keep working.
    ``symmetric=False`` severs only traffic *from* the group outward
    (half-open failure); ``loss`` below 1.0 makes the cut lossy instead
    of absolute.  The partition heals after ``duration_ms``.
    """

    at_ms: float
    duration_ms: float
    group: Tuple[int, ...] = (0,)
    symmetric: bool = True
    gems: Tuple[int, ...] = ()
    loss: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", tuple(self.group))
        object.__setattr__(self, "gems", tuple(self.gems))
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not self.group:
            raise ValueError("group must name at least one server index")
        if any(index < 0 for index in self.group):
            raise ValueError("group indices must be non-negative")
        if len(set(self.group)) != len(self.group):
            raise ValueError("group indices must be unique")
        if any(gem_id < 0 for gem_id in self.gems):
            raise ValueError("gem ids must be non-negative")
        if len(set(self.gems)) != len(self.gems):
            raise ValueError("gem ids must be unique")
        if not 0.0 < self.loss <= 1.0:
            raise ValueError("loss must be in (0, 1]")


@dataclass(frozen=True)
class EventStorm:
    """Flood the fleet with junk client calls for ``duration_ms``.

    Every storm call is a real client request to a random live actor's
    reserved ``storm_tick`` handler, burning ``cpu_ms`` of CPU — so
    storms exercise the full overload path: admission control,
    mailbox bounds, and the conservation ledger all see them.
    ``server_index`` (into the fleet at chaos start, like
    :class:`CrashServer`) narrows the flood to one server's actors;
    ``None`` storms the whole fleet.
    """

    at_ms: float
    duration_ms: float
    #: Storm calls per millisecond (aggregate, not per actor).
    rate_per_ms: float = 0.5
    #: CPU burned by each storm call on the target's server.
    cpu_ms: float = 1.0
    size_bytes: float = 512.0
    server_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be positive")
        if self.cpu_ms < 0:
            raise ValueError("cpu_ms must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.server_index is not None and self.server_index < 0:
            raise ValueError("server_index must be non-negative")


@dataclass(frozen=True)
class HotKeyFlood:
    """Aim an :class:`EventStorm`-style flood at one hot actor.

    The victim is chosen deterministically at injection time:
    ``actor_rank`` indexes into the live actors sorted by actor id
    (modulo the population, so a plan never misses).  This is the
    Elasticutor-style skew burst: one key absorbs the whole flood while
    its neighbours idle.
    """

    at_ms: float
    duration_ms: float
    rate_per_ms: float = 0.5
    cpu_ms: float = 1.0
    size_bytes: float = 512.0
    actor_rank: int = 0

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be positive")
        if self.cpu_ms < 0:
            raise ValueError("cpu_ms must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.actor_rank < 0:
            raise ValueError("actor_rank must be non-negative")


Fault = Union[CrashServer, KillGem, KillRoot, DegradeNetwork, SlowServer,
              PartitionNetwork, EventStorm, HotKeyFlood]

_FAULT_TYPES = (CrashServer, KillGem, KillRoot, DegradeNetwork, SlowServer,
                PartitionNetwork, EventStorm, HotKeyFlood)

_FAULT_NAMES: Dict[str, type] = {
    "crash-server": CrashServer,
    "kill-gem": KillGem,
    "kill-root": KillRoot,
    "degrade-network": DegradeNetwork,
    "slow-server": SlowServer,
    "partition-network": PartitionNetwork,
    "event-storm": EventStorm,
    "hot-key-flood": HotKeyFlood,
}


def fault_to_dict(fault: Fault) -> Dict[str, Any]:
    """Serialize one fault to a JSON-able dict (``{"fault": name, ...}``).

    The inverse of :func:`fault_from_dict`; fuzz scenarios and replay
    artifacts store fault plans in this form.
    """
    for name, cls in _FAULT_NAMES.items():
        if isinstance(fault, cls):
            return {"fault": name, **asdict(fault)}
    raise TypeError(f"not a fault: {fault!r}")


def fault_from_dict(data: Dict[str, Any]) -> Fault:
    """Rebuild a fault from :func:`fault_to_dict` output.  Validation in
    ``__post_init__`` runs again, so a hand-edited artifact that names an
    impossible fault fails loudly instead of injecting garbage."""
    payload = dict(data)
    name = payload.pop("fault", None)
    cls = _FAULT_NAMES.get(name)
    if cls is None:
        raise ValueError(f"unknown fault kind {name!r}; "
                         f"expected one of {sorted(_FAULT_NAMES)}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown fields for {name!r}: {sorted(unknown)}")
    return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered set of faults to inject."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise TypeError(f"not a fault: {fault!r}")

    def ordered(self) -> List[Fault]:
        """Faults sorted by injection time (stable on ties)."""
        return sorted(self.faults, key=lambda fault: fault.at_ms)

    def to_jsonable(self) -> List[Dict[str, Any]]:
        """The plan as a list of JSON-able fault dicts."""
        return [fault_to_dict(fault) for fault in self.faults]

    @classmethod
    def from_jsonable(cls, data: List[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan serialized with :meth:`to_jsonable`."""
        return cls(faults=tuple(fault_from_dict(item) for item in data))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)
