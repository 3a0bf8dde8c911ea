"""Raw per-actor statistics collected by the profiling runtime."""

from __future__ import annotations

from typing import Dict, Tuple

from ...sim import Simulator
from .ring import RingMeter

__all__ = ["ActorStats", "CallKey", "PairKey"]

#: (caller kind, function name) — caller kind is "client" or an actor type.
CallKey = Tuple[str, str]
#: (caller actor id, function name) — per-pair interaction tracking.
PairKey = Tuple[int, str]


class ActorStats:
    """Meters for one actor: CPU, network, and per-call-type messages.

    Call meters are created lazily on first message of each key, so actors
    that never receive a given call type pay nothing for it.

    Every meter is a :class:`RingMeter`: O(1) adds, O(1) amortized
    windowed totals, retention bounded by the window.

    ``version`` counts mutations; the profiling runtime compares it
    against the version captured with a cached snapshot to decide whether
    the actor is dirty.
    """

    __slots__ = ("_sim", "_window_ms", "cpu", "net_in",
                 "net_out", "call_counts", "call_bytes", "pair_counts",
                 "messages_processed", "version")

    def __init__(self, sim: Simulator, window_ms: float = 60_000.0) -> None:
        self._sim = sim
        self._window_ms = window_ms
        self.cpu = self._new_meter()
        self.net_in = self._new_meter()
        self.net_out = self._new_meter()
        self.call_counts: Dict[CallKey, RingMeter] = {}
        self.call_bytes: Dict[CallKey, RingMeter] = {}
        self.pair_counts: Dict[PairKey, RingMeter] = {}
        self.messages_processed = 0
        self.version = 0

    def _new_meter(self) -> RingMeter:
        return RingMeter(self._sim, self._window_ms)

    def record_message(self, caller_kind: str, caller_id, function: str,
                       size_bytes: float) -> None:
        self.version += 1
        key: CallKey = (caller_kind, function)
        counts = self.call_counts.get(key)
        if counts is None:
            counts = self._new_meter()
            self.call_counts[key] = counts
            self.call_bytes[key] = self._new_meter()
        counts.add(1.0)
        self.call_bytes[key].add(size_bytes)
        self.messages_processed += 1
        if caller_id is not None:
            pair_key: PairKey = (caller_id, function)
            pair = self.pair_counts.get(pair_key)
            if pair is None:
                pair = self._new_meter()
                self.pair_counts[pair_key] = pair
            pair.add(1.0)

    def add_cpu(self, busy_ms: float) -> None:
        self.version += 1
        self.cpu.add(busy_ms)

    def add_net_in(self, nbytes: float) -> None:
        self.version += 1
        self.net_in.add(nbytes)

    def add_net_out(self, nbytes: float) -> None:
        self.version += 1
        self.net_out.add(nbytes)
