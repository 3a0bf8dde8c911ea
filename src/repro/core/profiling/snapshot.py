"""Snapshot datatypes exchanged between profiling and elasticity runtimes.

These are the payloads of the paper's Table 2 API: LEMs call
``getActorsRuntime`` / ``getServerRuntime`` and ship the results to GEMs
in REPORT messages.  Snapshots are plain data (no references into the
live runtime other than the server handle used as a location token), so a
GEM operating on them is structurally unable to mutate application state —
the same isolation the paper's EMR design prescribes.

An :class:`ActorSnapshot` does not copy its rates.  It points at a
:class:`Rates` payload — for a profiled actor, the one the profiling
runtime caches — and reads its seven rate attributes through it.  Payloads
are immutable once built, so any number of snapshots, across rounds and
servers, may share one: every idle actor's snapshot points at the same
all-zero payload.  What a snapshot reads from the actor's record (server,
memory, property refs, pin and migration flags, placement time) and its
``call_perc`` are its own.  Empty mappings are the shared read-only
:data:`EMPTY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from ...actors import ActorRef
from ...cluster import Server
from .stats import CallKey, PairKey

__all__ = ["ActorSnapshot", "EMPTY", "Rates", "ServerSnapshot"]

#: The empty mapping every snapshot without call counts, call
#: percentages, pair counts or property refs shares.  Read-only, so a
#: stray write raises instead of leaking into other snapshots.
EMPTY: Mapping = MappingProxyType({})


class Rates:
    """Meter-derived rates of one actor over the profiling window.

    Rates are per *minute* (the paper's example time unit for interaction
    features).  Shared between snapshots, so never mutated once built.
    """

    __slots__ = ("cpu_perc", "cpu_ms_per_min", "net_bytes_per_min",
                 "net_perc", "call_count_per_min", "call_bytes_per_min",
                 "pair_count_per_min")


def _rate(name: str) -> property:
    return property(attrgetter(f"rates.{name}"),
                    doc=f"``rates.{name}`` of the shared payload.")


#: Attributes in constructor order: what ``==`` and ``repr`` compare and
#: print.
_FIELDS = ("ref", "server", "cpu_perc", "cpu_ms_per_min", "mem_mb",
           "mem_perc", "net_bytes_per_min", "net_perc", "call_count_per_min",
           "call_bytes_per_min", "call_perc", "pair_count_per_min", "refs",
           "pinned", "migrating", "last_placed_at", "state_size_mb")
_values = attrgetter(*_FIELDS)


class ActorSnapshot:
    """Runtime information for one actor over the profiling window.

    ``cpu_perc`` is the share of the hosting server's CPU (0-100),
    ``mem_perc`` and ``net_perc`` likewise of its memory and NIC.
    ``call_perc`` is the percentage of each call type this actor received
    out of all same-type actors on the same server — computed by the LEM,
    which sees all local actors; it is a fresh dict whenever the rates
    hold call counts.  Build one from values by keyword (tests,
    synthetic benchmarks) or, sharing a payload, with :meth:`sharing`.
    """

    __slots__ = ("ref", "server", "rates", "mem_mb", "mem_perc", "call_perc",
                 "refs", "pinned", "migrating", "last_placed_at",
                 "state_size_mb")

    cpu_perc = _rate("cpu_perc")
    cpu_ms_per_min = _rate("cpu_ms_per_min")
    net_bytes_per_min = _rate("net_bytes_per_min")
    net_perc = _rate("net_perc")
    call_count_per_min = _rate("call_count_per_min")
    call_bytes_per_min = _rate("call_bytes_per_min")
    pair_count_per_min = _rate("pair_count_per_min")

    def __init__(self, ref: ActorRef, server: Server, cpu_perc: float,
                 cpu_ms_per_min: float, mem_mb: float, mem_perc: float,
                 net_bytes_per_min: float, net_perc: float,
                 call_count_per_min: Optional[Mapping[CallKey, float]] = None,
                 call_bytes_per_min: Optional[Mapping[CallKey, float]] = None,
                 call_perc: Optional[Mapping[CallKey, float]] = None,
                 pair_count_per_min: Optional[Mapping[PairKey, float]] = None,
                 refs: Optional[Mapping[str, Tuple[ActorRef, ...]]] = None,
                 pinned: bool = False, migrating: bool = False,
                 last_placed_at: float = 0.0,
                 state_size_mb: float = 1.0) -> None:
        rates = Rates()
        rates.cpu_perc = cpu_perc
        rates.cpu_ms_per_min = cpu_ms_per_min
        rates.net_bytes_per_min = net_bytes_per_min
        rates.net_perc = net_perc
        rates.call_count_per_min = call_count_per_min or EMPTY
        rates.call_bytes_per_min = call_bytes_per_min or EMPTY
        rates.pair_count_per_min = pair_count_per_min or EMPTY
        self._bind(ref, server, rates, mem_mb, mem_perc, refs or EMPTY,
                   pinned, migrating, last_placed_at, state_size_mb)
        if call_perc is not None:
            self.call_perc = call_perc

    @classmethod
    def sharing(cls, rates: Rates, ref: ActorRef, server: Server,
                mem_mb: float, mem_perc: float,
                refs: Mapping[str, Tuple[ActorRef, ...]], pinned: bool,
                migrating: bool, last_placed_at: float,
                state_size_mb: float) -> "ActorSnapshot":
        """A snapshot that reads its rates through ``rates``, uncopied."""
        snap = cls.__new__(cls)
        snap._bind(ref, server, rates, mem_mb, mem_perc, refs, pinned,
                   migrating, last_placed_at, state_size_mb)
        return snap

    def _bind(self, ref, server, rates, mem_mb, mem_perc, refs, pinned,
              migrating, last_placed_at, state_size_mb) -> None:
        self.ref = ref
        self.server = server
        self.rates = rates
        self.mem_mb = mem_mb
        self.mem_perc = mem_perc
        self.call_perc = {} if rates.call_count_per_min else EMPTY
        self.refs = refs
        self.pinned = pinned
        self.migrating = migrating
        self.last_placed_at = last_placed_at
        self.state_size_mb = state_size_mb

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(_FIELDS, _values(self)))
        return f"ActorSnapshot({fields})"

    @property
    def actor_id(self) -> int:
        return self.ref.actor_id

    @property
    def type_name(self) -> str:
        return self.ref.type_name

    def resource_perc(self, resource: str) -> float:
        """Resolve an EPL resource name to this actor's usage percent."""
        if resource == "cpu":
            return self.cpu_perc
        if resource == "mem":
            return self.mem_perc
        if resource == "net":
            return self.net_perc
        raise ValueError(f"unknown resource {resource!r}")

    def demand(self, resource: str) -> float:
        """Absolute demand used by admission checks (checkIdleRes)."""
        if resource == "cpu":
            return self.cpu_ms_per_min
        if resource == "mem":
            return self.mem_mb
        if resource == "net":
            return self.net_bytes_per_min
        raise ValueError(f"unknown resource {resource!r}")


@dataclass
class ServerSnapshot:
    """Runtime information for one server over the profiling window."""

    server: Server
    cpu_perc: float
    mem_perc: float
    net_perc: float
    actor_count: int
    vcpus: int
    instance_type: str
    #: Overload telemetry, filled by the LEM only when overload
    #: protection is active (zero otherwise): total messages queued in
    #: this server's actor mailboxes at snapshot time, and cumulative
    #: messages shed here.  Lets a GEM (and traces) see *queueing*
    #: pressure, which CPU percent alone understates.
    mailbox_backlog: int = 0
    messages_shed: int = 0

    @property
    def name(self) -> str:
        return self.server.name

    def resource_perc(self, resource: str) -> float:
        if resource == "cpu":
            return self.cpu_perc
        if resource == "mem":
            return self.mem_perc
        if resource == "net":
            return self.net_perc
        raise ValueError(f"unknown resource {resource!r}")
