"""Rule-aware placement of newly created actors (paper §4.2).

When the application creates an actor, PLASMA consults the elasticity
rules to pick an initial server instead of placing randomly:

- a **colocate** rule linking the new actor's type with the type of the
  ``related`` hint places it on the related actor's server (the Halo
  experiment's "new Player actor gets co-located with its session");
- a **reserve** rule targeting the type places it on the server with the
  most idle amount of the reserved resource;
- a **balance** rule listing the type places it on the least-loaded
  server for the balanced resource;
- otherwise the policy abstains and the actor system places uniformly at
  random (the paper's fallback).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING, Type

from ...actors import Actor, ActorRef
from ...cluster import Server
from ..epl import Balance, Colocate, Reserve

if TYPE_CHECKING:  # pragma: no cover
    from .manager import ElasticityManager

__all__ = ["PlasmaPlacement"]


class PlasmaPlacement:
    """Pluggable :class:`~repro.actors.system.PlacementPolicy`."""

    def __init__(self, manager: "ElasticityManager") -> None:
        self.manager = manager
        self.placements_by_rule = 0
        self.placements_random = 0

    def __call__(self, cls: Type[Actor], candidates: List[Server],
                 related: Optional[ActorRef]) -> Optional[Server]:
        type_name = cls.__name__
        chosen = (self._try_colocate(type_name, related)
                  or self._try_reserve(type_name, candidates)
                  or self._try_balance(type_name, candidates))
        if chosen is not None:
            self.placements_by_rule += 1
        else:
            self.placements_random += 1
        return chosen

    def _pattern_type(self, pattern, rule) -> str:
        if pattern.type_name is not None:
            return pattern.type_name
        return rule.variables.get(pattern.var, "any")

    def _try_colocate(self, type_name: str,
                      related: Optional[ActorRef]) -> Optional[Server]:
        if related is None:
            return None
        record = self.manager.system.directory.try_lookup(related.actor_id)
        if record is None:
            return None
        for rule in self.manager.policy.actor_rules:
            for behavior in rule.behaviors:
                if not isinstance(behavior, Colocate):
                    continue
                first = self._pattern_type(behavior.first, rule)
                second = self._pattern_type(behavior.second, rule)
                pair = {first, second}
                if type_name not in pair:
                    continue
                other = (pair - {type_name}) or {type_name}
                if related.type_name in other or "any" in pair:
                    return record.server
        return None

    def _try_reserve(self, type_name: str,
                     candidates: List[Server]) -> Optional[Server]:
        for rule in self.manager.policy.resource_rules:
            for behavior in rule.behaviors:
                if not isinstance(behavior, Reserve):
                    continue
                target = self._pattern_type(behavior.target, rule)
                if target == type_name:
                    return self._least_loaded(candidates, behavior.resource)
        return None

    def _try_balance(self, type_name: str,
                     candidates: List[Server]) -> Optional[Server]:
        for rule in self.manager.policy.resource_rules:
            for behavior in rule.behaviors:
                if (isinstance(behavior, Balance)
                        and type_name in behavior.actor_types):
                    return self._least_loaded(candidates, behavior.resource)
        return None

    def _least_loaded(self, candidates: List[Server],
                      resource: str) -> Optional[Server]:
        window = self.manager.config.period_ms
        # Quorum-less servers sit behind an active partition: an actor
        # placed there would be born unreachable, and a draining server
        # is about to retire, so rule-aware placement skips both (the
        # uniform-random fallback still covers the degenerate case).
        manager = self.manager
        running = [s for s in candidates
                   if s.running and not manager.server_quorumless(s)
                   and not manager.is_draining(s)]
        if not running:
            return None
        return min(running,
                   key=lambda s: (s.resource_percent(resource, window),
                                  s.server_id))
