"""Rule evaluation: from compiled rules + snapshots to variable bindings.

A compiled rule's condition is in DNF.  Each conjunction is evaluated
against a scope of server and actor snapshots:

1. Conjunctions with server atoms iterate candidate *subject servers* —
   the servers whose windowed resource usage satisfies every server atom.
   Actor variables appearing in per-server features (call percentages,
   actor resources) then range over the subject server's actors, which is
   the paper's intended reading: "this folder receives more than 40% of
   client requests among all Folder actors *on this server*".
2. Conjunctions without server atoms have one pass with no subject
   server; actor variables range over the whole scope.
3. Atoms bind or filter variables left to right; ``in ref(...)`` atoms
   join members to containers through snapshotted property refs.
4. Variables used only in behaviors (e.g. ``reserve(VideoStream(v), cpu)``
   under a pure server condition) are bound last, over the subject
   server's actors of the variable's type.

The result is a list of :class:`Match` objects; behavior instantiation
turns matches into migration actions (see :mod:`.actions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...actors import ActorRef
from ..epl import (ActorPattern, Balance, CallFeature, Colocate, CompareCond,
                   CompiledRule, Pin, RefCond, Reserve, ResourceFeature,
                   Separate, TrueCond, CLIENT_CALLER)
from ..profiling import ActorSnapshot, ServerSnapshot

__all__ = ["Match", "EvaluationScope", "evaluate_rule", "compare",
           "extract_bounds", "bound_snapshot", "colocate_groups"]


def compare(value: float, comparison: str, bound: float) -> bool:
    """Apply an EPL comparison operator."""
    if comparison == "<":
        return value < bound
    if comparison == ">":
        return value > bound
    if comparison == "<=":
        return value <= bound
    if comparison == ">=":
        return value >= bound
    raise ValueError(f"unknown comparison {comparison!r}")


@dataclass
class Match:
    """One satisfied conjunction: the subject server (if the rule had
    server atoms) and concrete actors for every bound variable."""

    subject_server: Optional[ServerSnapshot]
    bindings: Dict[str, ActorSnapshot] = field(default_factory=dict)

    def key(self) -> tuple:
        server_id = (self.subject_server.server.server_id
                     if self.subject_server else None)
        bound = tuple(sorted((var, snap.actor_id)
                             for var, snap in self.bindings.items()))
        return (server_id, bound)


@dataclass
class EvaluationScope:
    """Snapshots a rule evaluation may see.

    ``resolve_ref`` maps an :class:`ActorRef` held in a property to its
    snapshot; refs pointing outside the scope resolve to ``None`` unless
    the installed resolver widens the view (LEMs use the manager's global
    resolver so colocation with remote actors works, matching the
    QUERY/QREPLY protocol's reach).

    ``actors_of_type`` is the inner loop of every rule evaluation, so the
    scope lazily indexes its actors by type and by (type, server) on
    first use.  The index preserves ``actors`` order exactly, which keeps
    binding enumeration — and therefore every decision — identical to a
    linear scan.  Callers must treat returned lists as read-only, and
    must not mutate ``actors`` after the first ``actors_of_type`` call.
    """

    servers: List[ServerSnapshot]
    actors: List[ActorSnapshot]
    resolve_ref: Callable[[ActorRef], Optional[ActorSnapshot]]
    _by_type: Optional[Dict[str, List[ActorSnapshot]]] = field(
        default=None, init=False, repr=False, compare=False)
    _by_server: Optional[Dict[int, List[ActorSnapshot]]] = field(
        default=None, init=False, repr=False, compare=False)
    _by_type_server: Optional[Dict[Tuple[str, int], List[ActorSnapshot]]] = \
        field(default=None, init=False, repr=False, compare=False)

    def _build_index(self) -> None:
        by_type: Dict[str, List[ActorSnapshot]] = {}
        by_server: Dict[int, List[ActorSnapshot]] = {}
        by_type_server: Dict[Tuple[str, int], List[ActorSnapshot]] = {}
        for snap in self.actors:
            server_id = snap.server.server_id
            by_type.setdefault(snap.type_name, []).append(snap)
            by_server.setdefault(server_id, []).append(snap)
            by_type_server.setdefault(
                (snap.type_name, server_id), []).append(snap)
        self._by_type = by_type
        self._by_server = by_server
        self._by_type_server = by_type_server

    def actors_of_type(self, type_name: str,
                       server: Optional[ServerSnapshot] = None
                       ) -> List[ActorSnapshot]:
        if self._by_type is None:
            self._build_index()
        if server is None:
            if type_name == "any":
                return self.actors
            return self._by_type.get(type_name, [])
        server_id = server.server.server_id
        if type_name == "any":
            return self._by_server.get(server_id, [])
        return self._by_type_server.get((type_name, server_id), [])


def evaluate_rule(rule: CompiledRule,
                  scope: EvaluationScope) -> List[Match]:
    """Evaluate ``rule`` over ``scope``; returns deduplicated matches."""
    matches: List[Match] = []
    seen = set()
    for conjunction in rule.dnf:
        for match in _evaluate_conjunction(rule, conjunction, scope):
            key = match.key()
            if key not in seen:
                seen.add(key)
                matches.append(match)
    return matches


# ---------------------------------------------------------------------------


def _evaluate_conjunction(rule: CompiledRule, conjunction, scope):
    server_atoms = []
    actor_atoms = []
    for atom in conjunction:
        if isinstance(atom, CompareCond) and isinstance(
                atom.feature, ResourceFeature) and atom.feature.is_server():
            server_atoms.append(atom)
        elif isinstance(atom, TrueCond):
            continue
        else:
            actor_atoms.append(atom)

    if server_atoms:
        candidates = [snap for snap in scope.servers
                      if all(compare(snap.resource_perc(a.feature.resource),
                                     a.comparison, a.value)
                             for a in server_atoms)]
        subject_servers: List[Optional[ServerSnapshot]] = candidates
    else:
        subject_servers = [None]

    results: List[Match] = []
    for subject in subject_servers:
        bindings_list: List[Dict[str, ActorSnapshot]] = [{}]
        for atom in actor_atoms:
            bindings_list = _apply_atom(atom, bindings_list, scope, subject,
                                        rule.variables)
            if not bindings_list:
                break
        for bindings in bindings_list:
            expanded = _bind_behavior_vars(rule, bindings, scope, subject)
            results.extend(
                Match(subject_server=subject, bindings=b) for b in expanded)
    return results


def _apply_atom(atom, bindings_list, scope: EvaluationScope,
                subject: Optional[ServerSnapshot],
                rule_vars: Dict[str, str]):
    if isinstance(atom, RefCond):
        return _apply_ref(atom, bindings_list, scope, rule_vars)
    if isinstance(atom, CompareCond):
        feature = atom.feature
        if isinstance(feature, ResourceFeature):
            return _apply_actor_resource(atom, bindings_list, scope, subject,
                                         rule_vars)
        if isinstance(feature, CallFeature):
            if feature.is_client():
                return _apply_client_call(atom, bindings_list, scope, subject,
                                          rule_vars)
            return _apply_actor_call(atom, bindings_list, scope, subject,
                                     rule_vars)
    raise TypeError(f"unexpected atom {atom!r}")


def _var_or_anon(pattern: ActorPattern, index_hint: str) -> str:
    """Variable name for a pattern; anonymous patterns get a stable key so
    two anonymous uses of the same type in one rule stay independent."""
    if pattern.var is not None:
        return pattern.var
    return f"__anon_{index_hint}_{pattern.type_name}"


def _pattern_type(pattern: ActorPattern, rule_vars: Dict[str, str]) -> str:
    if pattern.type_name is not None:
        return pattern.type_name
    return rule_vars.get(pattern.var, "any")


def _candidates(pattern: ActorPattern, var: str,
                bindings: Dict[str, ActorSnapshot],
                scope: EvaluationScope,
                subject: Optional[ServerSnapshot],
                rule_vars: Dict[str, str],
                restrict_to_subject: bool) -> List[ActorSnapshot]:
    if var in bindings:
        return [bindings[var]]
    type_name = _pattern_type(pattern, rule_vars)
    server = subject if restrict_to_subject else None
    return scope.actors_of_type(type_name, server)


def _apply_ref(atom: RefCond, bindings_list, scope: EvaluationScope,
               rule_vars: Dict[str, str]):
    """Join members to containers via snapshotted property refs.

    Containers and members are not restricted to the subject server: a
    hot folder's files (or a session's players) may live anywhere; the
    behavior is precisely what brings them together.
    """
    member_var = _var_or_anon(atom.member, "refm")
    container_var = _var_or_anon(atom.container, "refc")
    member_type = _pattern_type(atom.member, rule_vars)
    out = []
    for bindings in bindings_list:
        if container_var in bindings:
            containers = [bindings[container_var]]
        else:
            type_name = _pattern_type(atom.container, rule_vars)
            containers = scope.actors_of_type(type_name)
        for container in containers:
            refs = container.refs.get(atom.property_name, ())
            for ref in refs:
                if member_type != "any" and ref.type_name != member_type:
                    continue
                member = bindings.get(member_var)
                if member is not None:
                    if member.actor_id == ref.actor_id:
                        new = dict(bindings)
                        new[container_var] = container
                        out.append(new)
                    continue
                member_snap = scope.resolve_ref(ref)
                if member_snap is None:
                    continue
                new = dict(bindings)
                new[container_var] = container
                new[member_var] = member_snap
                out.append(new)
    return out


def _apply_actor_resource(atom: CompareCond, bindings_list,
                          scope: EvaluationScope,
                          subject: Optional[ServerSnapshot],
                          rule_vars: Dict[str, str]):
    feature: ResourceFeature = atom.feature
    pattern: ActorPattern = feature.entity
    var = _var_or_anon(pattern, "res")
    out = []
    for bindings in bindings_list:
        for snap in _candidates(pattern, var, bindings, scope, subject,
                                rule_vars,
                                restrict_to_subject=subject is not None):
            value = snap.resource_perc(feature.resource)
            if compare(value, atom.comparison, atom.value):
                new = dict(bindings)
                new[var] = snap
                out.append(new)
    return out


def _call_stat(snap: ActorSnapshot, caller_kind: str, function: str,
               stat: str) -> float:
    key = (caller_kind, function)
    if stat == "count":
        return snap.call_count_per_min.get(key, 0.0)
    if stat == "size":
        return snap.call_bytes_per_min.get(key, 0.0)
    if stat == "perc":
        return snap.call_perc.get(key, 0.0)
    raise ValueError(f"unknown statistic {stat!r}")


def _apply_client_call(atom: CompareCond, bindings_list,
                       scope: EvaluationScope,
                       subject: Optional[ServerSnapshot],
                       rule_vars: Dict[str, str]):
    feature: CallFeature = atom.feature
    pattern = feature.callee
    var = _var_or_anon(pattern, "call")
    out = []
    for bindings in bindings_list:
        for snap in _candidates(pattern, var, bindings, scope, subject,
                                rule_vars,
                                restrict_to_subject=subject is not None):
            value = _call_stat(snap, CLIENT_CALLER, feature.function,
                               atom.feature.stat)
            if compare(value, atom.comparison, atom.value):
                new = dict(bindings)
                new[var] = snap
                out.append(new)
    return out


def _apply_actor_call(atom: CompareCond, bindings_list,
                      scope: EvaluationScope,
                      subject: Optional[ServerSnapshot],
                      rule_vars: Dict[str, str]):
    """Actor-to-actor call feature.

    ``count`` joins concrete (caller, callee) pairs through per-pair
    meters; ``size``/``perc`` filter the callee on the caller-type
    aggregate and bind the caller to peers with any traffic.
    """
    feature: CallFeature = atom.feature
    caller_pattern: ActorPattern = feature.caller
    callee_pattern = feature.callee
    caller_var = _var_or_anon(caller_pattern, "caller")
    callee_var = _var_or_anon(callee_pattern, "callee")
    caller_type = _pattern_type(caller_pattern, rule_vars)
    out = []
    for bindings in bindings_list:
        callees = _candidates(callee_pattern, callee_var, bindings, scope,
                              subject, rule_vars,
                              restrict_to_subject=False)
        for callee in callees:
            if feature.stat == "count":
                pairs = [
                    (caller_id, rate)
                    for (caller_id, function), rate
                    in callee.pair_count_per_min.items()
                    if function == feature.function]
                for caller_id, rate in pairs:
                    if not compare(rate, atom.comparison, atom.value):
                        continue
                    caller_snap = scope.resolve_ref(
                        ActorRef(actor_id=caller_id, type_name=caller_type))
                    if caller_snap is None:
                        continue
                    if (caller_type != "any"
                            and caller_snap.type_name != caller_type):
                        continue
                    bound_caller = bindings.get(caller_var)
                    if (bound_caller is not None
                            and bound_caller.actor_id != caller_id):
                        continue
                    new = dict(bindings)
                    new[callee_var] = callee
                    new[caller_var] = caller_snap
                    out.append(new)
            else:
                value = _call_stat(callee, caller_type, feature.function,
                                   feature.stat)
                if not compare(value, atom.comparison, atom.value):
                    continue
                peers = [
                    scope.resolve_ref(ActorRef(actor_id=caller_id,
                                               type_name=caller_type))
                    for (caller_id, function)
                    in callee.pair_count_per_min
                    if function == feature.function]
                peers = [p for p in peers if p is not None and (
                    caller_type == "any" or p.type_name == caller_type)]
                if not peers:
                    continue
                for peer in peers:
                    bound_caller = bindings.get(caller_var)
                    if (bound_caller is not None
                            and bound_caller.actor_id != peer.actor_id):
                        continue
                    new = dict(bindings)
                    new[callee_var] = callee
                    new[caller_var] = peer
                    out.append(new)
    return out


def _bind_behavior_vars(rule: CompiledRule,
                        bindings: Dict[str, ActorSnapshot],
                        scope: EvaluationScope,
                        subject: Optional[ServerSnapshot]):
    """Bind variables that appear only in behaviors.

    They range over the subject server's actors of the variable's type
    (``reserve(VideoStream(v), cpu)`` under an overloaded-server condition
    selects that server's VideoStream actors), or the whole scope when the
    rule has no server atoms.
    """
    needed: List[Tuple[str, str]] = []
    for behavior in rule.behaviors:
        for pattern in _behavior_patterns(behavior):
            var = pattern.var
            if var is None:
                continue
            if var in bindings or any(v == var for v, _t in needed):
                continue
            needed.append((var, rule.variables.get(var, "any")))
    results = [dict(bindings)]
    for var, type_name in needed:
        expanded = []
        for partial in results:
            for snap in scope.actors_of_type(type_name, subject):
                new = dict(partial)
                new[var] = snap
                expanded.append(new)
        results = expanded
        if not results:
            return []
    return results


def _behavior_patterns(behavior) -> Sequence[ActorPattern]:
    if isinstance(behavior, Reserve):
        return (behavior.target,)
    if isinstance(behavior, (Colocate, Separate)):
        return (behavior.first, behavior.second)
    if isinstance(behavior, Pin):
        return (behavior.target,)
    return ()


def bound_snapshot(pattern: ActorPattern, match: Match
                   ) -> Optional[ActorSnapshot]:
    """Snapshot a behavior pattern denotes within a match: its variable's
    binding, or (for anonymous patterns) the single same-typed anonymous
    binding."""
    if pattern.var is not None:
        return match.bindings.get(pattern.var)
    for var, snap in match.bindings.items():
        if var.startswith("__anon") and snap.type_name == pattern.type_name:
            return snap
    return None


def colocate_groups(rules: Sequence[CompiledRule],
                    scope: EvaluationScope) -> Dict[int, int]:
    """Union-find the actors tied together by active colocate rules.

    Returns actor id -> group id; actors in no group are absent.  The
    balance planner uses this to move colocation groups as single units
    (see :class:`repro.core.emr.planning.MoveUnit`).
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for rule in rules:
        pairs = [(behavior.first, behavior.second)
                 for behavior in rule.behaviors
                 if isinstance(behavior, Colocate)]
        if not pairs:
            continue
        for match in evaluate_rule(rule, scope):
            for first, second in pairs:
                a = bound_snapshot(first, match)
                b = bound_snapshot(second, match)
                if a is not None and b is not None:
                    union(a.actor_id, b.actor_id)
    return {actor_id: find(actor_id) for actor_id in parent}


def extract_bounds(rule: CompiledRule, resource: str,
                   default_lower: float = 60.0,
                   default_upper: float = 80.0) -> Tuple[float, float]:
    """Extract (lower, upper) server-resource bounds from a rule's atoms.

    A ``>``/``>=`` server atom supplies the upper (overload) bound, a
    ``<``/``<=`` atom the lower (underload) bound, as in the canonical
    ``server.cpu.perc > 80 or server.cpu.perc < 60 => balance(...)``.
    Missing bounds fall back to the defaults, clamped to stay ordered.
    """
    lower: Optional[float] = None
    upper: Optional[float] = None
    for conjunction in rule.dnf:
        for atom in conjunction:
            if not (isinstance(atom, CompareCond)
                    and isinstance(atom.feature, ResourceFeature)
                    and atom.feature.is_server()
                    and atom.feature.resource == resource):
                continue
            if atom.comparison in (">", ">="):
                upper = atom.value if upper is None else min(upper, atom.value)
            else:
                lower = atom.value if lower is None else max(lower, atom.value)
    if upper is None:
        upper = default_upper
    if lower is None:
        lower = min(default_lower, upper)
    if lower > upper:
        lower = upper
    return lower, upper
