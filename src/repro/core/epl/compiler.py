"""EPL compiler: validation, normalization and rule classification.

Mirrors the PLASMA compiler of the paper's Fig. 2: it consumes the parsed
elasticity policy *and* the actor program (as a schema of actor types,
their properties and functions, extracted from the Python actor classes),
then produces the *elasticity configuration* the management runtime
executes:

- variable occurrences are resolved (``Folder(fo)`` binds ``fo``; a later
  bare ``fo`` refers to it);
- every type, function, property, statistic and bound is validated;
- each rule's condition is normalized to disjunctive normal form, which
  the runtime evaluator consumes;
- rules are classified into **actor rules** (carrying colocate / separate
  / pin behaviors — executed by LEMs, paper Alg. 1) and **resource
  rules** (carrying balance / reserve — executed by GEMs, paper Alg. 2);
  a mixed rule contributes to both sides, like the Metadata Server rule
  whose ``reserve`` is global and whose ``colocate`` is local;
- conflicting rules for the same actor type produce compile *warnings*
  (paper §4.3), never errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ...actors import ActorTypeSchema, describe_actor_class
from .ast import (ActorPattern, AndCond, Balance, CallFeature, Colocate,
                  CompareCond, Condition, OrCond, Pin, Policy, RefCond,
                  Reserve, ResourceFeature, Rule, Separate, TrueCond,
                  Behavior, CLIENT_CALLER, SERVER_ENTITY)
from .errors import EplValidationError, EplWarning
from .parser import parse_policy

__all__ = ["CompiledRule", "CompiledPolicy", "compile_policy",
           "compile_source", "behavior_priority", "BEHAVIOR_PRIORITIES",
           "schema_from_classes"]

#: Migration-action priorities used for runtime conflict resolution
#: (paper §4.3: "If PLASMA prioritizes balance over colocate...").
#: Larger wins.  ``pin`` is not a migration — it is an absolute
#: constraint enforced by the runtime before any action applies.
BEHAVIOR_PRIORITIES: Dict[str, int] = {
    "balance": 40,
    "reserve": 30,
    "separate": 20,
    "colocate": 10,
    "pin": 0,
}

Atom = Union[TrueCond, CompareCond, RefCond]


def behavior_priority(behavior: Behavior) -> int:
    """Built-in conflict priority for ``behavior`` (see the table)."""
    return BEHAVIOR_PRIORITIES[type(behavior).__name__.lower()]


@dataclass(frozen=True)
class CompiledRule:
    """One executable rule.

    ``dnf`` is a tuple of conjunctions; the rule fires for a binding that
    satisfies *any* conjunction.  ``variables`` maps each inline variable
    to its actor type.  ``behaviors`` holds only the behaviors relevant to
    the side (LEM or GEM) this compiled rule was classified for.
    """

    index: int
    line: int
    dnf: Tuple[Tuple[Atom, ...], ...]
    behaviors: Tuple[Behavior, ...]
    variables: Dict[str, str]
    subject_types: FrozenSet[str]
    #: Programmer-specified priority (``priority N:``), or None.
    priority: Optional[int] = None


@dataclass
class CompiledPolicy:
    """The elasticity configuration produced by the compiler."""

    source_policy: Policy
    actor_rules: List[CompiledRule]
    resource_rules: List[CompiledRule]
    warnings: List[EplWarning]
    schema: Dict[str, ActorTypeSchema]
    #: Every property an ``in ref(...)`` atom of any rule reads: the
    #: only actor properties a snapshot has to extract refs from.
    ref_properties: FrozenSet[str] = field(init=False)
    #: Actor types a resource rule may act upon (its subjects and bound
    #: variables); the types a LEM's REPORT carries.  ``"any"`` among
    #: them means every type.
    report_types: FrozenSet[str] = field(init=False)

    def __post_init__(self) -> None:
        self.ref_properties = frozenset(
            atom.property_name
            for rule in self.all_rules() for conj in rule.dnf
            for atom in conj if isinstance(atom, RefCond))
        self.report_types = frozenset(
            type_name for rule in self.resource_rules
            for type_name in (*rule.subject_types,
                              *rule.variables.values()))

    def all_rules(self) -> List[CompiledRule]:
        """Every compiled rule, LEM-side first."""
        return self.actor_rules + self.resource_rules

    def rule_count(self) -> int:
        """Number of source rules (Table 1's "rules" column)."""
        return len(self.source_policy.rules)

    def to_config(self) -> dict:
        """Serialize to the JSON-able elasticity configuration format."""
        return {
            "rules": [_rule_to_dict(rule)
                      for rule in self.source_policy.rules],
            "actor_rule_indexes": [r.index for r in self.actor_rules],
            "resource_rule_indexes": [r.index for r in self.resource_rules],
            "warnings": [str(w) for w in self.warnings],
            "types": sorted(self.schema),
        }

    def to_json(self, indent: int = 2) -> str:
        """The elasticity configuration as JSON text."""
        return json.dumps(self.to_config(), indent=indent)


def schema_from_classes(classes: Sequence[type]) -> Dict[str, ActorTypeSchema]:
    """Build the actor-program schema from Python actor classes."""
    schema: Dict[str, ActorTypeSchema] = {}
    for cls in classes:
        described = describe_actor_class(cls)
        schema[described.name] = described
    return schema


def compile_source(source: str,
                   actor_classes: Sequence[type]) -> CompiledPolicy:
    """Parse and compile EPL ``source`` against ``actor_classes``."""
    return compile_policy(parse_policy(source),
                          schema_from_classes(actor_classes))


def compile_policy(policy: Policy,
                   schema: Dict[str, ActorTypeSchema]) -> CompiledPolicy:
    """Validate and classify a parsed policy.  Raises
    :class:`EplValidationError` on inconsistencies; accumulates
    :class:`EplWarning` for rule conflicts and suspicious bounds."""
    warnings: List[EplWarning] = []
    actor_rules: List[CompiledRule] = []
    resource_rules: List[CompiledRule] = []
    normalized_rules: List[Rule] = []

    for index, rule in enumerate(policy.rules):
        resolver = _RuleResolver(schema, rule.line, warnings)
        condition = resolver.resolve_condition(rule.condition)
        behaviors = tuple(resolver.resolve_behavior(b)
                          for b in rule.behaviors)
        normalized = Rule(condition=condition, behaviors=behaviors,
                          line=rule.line, priority=rule.priority)
        normalized_rules.append(normalized)

        dnf = _to_dnf(condition)
        _validate_dnf(dnf, resolver, rule.line)

        interaction = tuple(b for b in behaviors
                            if isinstance(b, (Colocate, Separate, Pin)))
        resource = tuple(b for b in behaviors
                         if isinstance(b, (Balance, Reserve)))
        subjects = _subject_types(behaviors, resolver.bindings)
        if interaction:
            actor_rules.append(CompiledRule(
                index=index, line=rule.line, dnf=dnf,
                behaviors=interaction, variables=dict(resolver.bindings),
                subject_types=subjects, priority=rule.priority))
        if resource:
            resource_rules.append(CompiledRule(
                index=index, line=rule.line, dnf=dnf,
                behaviors=resource, variables=dict(resolver.bindings),
                subject_types=subjects, priority=rule.priority))

    warnings.extend(_detect_conflicts(normalized_rules))
    return CompiledPolicy(
        source_policy=Policy(rules=normalized_rules),
        actor_rules=actor_rules, resource_rules=resource_rules,
        warnings=warnings, schema=dict(schema))


# ---------------------------------------------------------------------------
# variable resolution & validation
# ---------------------------------------------------------------------------


class _RuleResolver:
    """Per-rule state: variable bindings and pattern normalization."""

    def __init__(self, schema: Dict[str, ActorTypeSchema], line: int,
                 warnings: List[EplWarning]) -> None:
        self.schema = schema
        self.line = line
        self.warnings = warnings
        self.bindings: Dict[str, str] = {}  # var -> type name (or 'any')

    def resolve_pattern(self, pattern: ActorPattern) -> ActorPattern:
        name = pattern.type_name
        if name in self.bindings:
            # Identifier refers to a previously bound variable.
            if pattern.var is not None:
                raise EplValidationError(
                    f"{name!r} is a variable; it cannot bind another "
                    f"variable {pattern.var!r}", self.line)
            return ActorPattern(type_name=None, var=name)
        if name != "any" and name not in self.schema:
            raise EplValidationError(
                f"unknown actor type {name!r}", self.line)
        if pattern.var is not None:
            if pattern.var in self.bindings:
                raise EplValidationError(
                    f"variable {pattern.var!r} bound twice", self.line)
            if pattern.var in self.schema or pattern.var == "any":
                raise EplValidationError(
                    f"variable {pattern.var!r} shadows an actor type name",
                    self.line)
            self.bindings[pattern.var] = name
        return pattern

    def pattern_type(self, pattern: ActorPattern) -> str:
        """Concrete (or 'any') type a resolved pattern denotes."""
        if pattern.type_name is not None:
            return pattern.type_name
        return self.bindings[pattern.var]

    # -- conditions --------------------------------------------------------

    def resolve_condition(self, condition: Condition) -> Condition:
        if isinstance(condition, TrueCond):
            return condition
        if isinstance(condition, AndCond):
            left = self.resolve_condition(condition.left)
            right = self.resolve_condition(condition.right)
            return AndCond(left, right)
        if isinstance(condition, OrCond):
            left = self.resolve_condition(condition.left)
            right = self.resolve_condition(condition.right)
            return OrCond(left, right)
        if isinstance(condition, CompareCond):
            return CompareCond(
                feature=self._resolve_feature(condition.feature),
                comparison=condition.comparison, value=condition.value)
        if isinstance(condition, RefCond):
            member = self.resolve_pattern(condition.member)
            container = self.resolve_pattern(condition.container)
            container_type = self.pattern_type(container)
            if container_type != "any":
                schema = self.schema[container_type]
                if not schema.has_property(condition.property_name):
                    raise EplValidationError(
                        f"type {container_type!r} has no property "
                        f"{condition.property_name!r}", self.line)
            return RefCond(member=member, container=container,
                           property_name=condition.property_name)
        raise EplValidationError(
            f"unsupported condition node {condition!r}", self.line)

    def _resolve_feature(self, feature):
        if isinstance(feature, ResourceFeature):
            if feature.is_server():
                entity = SERVER_ENTITY
            else:
                entity = self.resolve_pattern(feature.entity)
            self._check_resource_stat(feature.resource, feature.stat)
            return ResourceFeature(entity=entity, resource=feature.resource,
                                   stat=feature.stat)
        if isinstance(feature, CallFeature):
            caller = (CLIENT_CALLER if feature.is_client()
                      else self.resolve_pattern(feature.caller))
            callee = self.resolve_pattern(feature.callee)
            callee_type = self.pattern_type(callee)
            if callee_type == "any":
                raise EplValidationError(
                    "call features require a concrete callee type, "
                    "not 'any'", self.line)
            schema = self.schema[callee_type]
            if not schema.has_function(feature.function):
                raise EplValidationError(
                    f"type {callee_type!r} has no function "
                    f"{feature.function!r}", self.line)
            return CallFeature(caller=caller, callee=callee,
                               function=feature.function, stat=feature.stat)
        raise EplValidationError(
            f"unsupported feature node {feature!r}", self.line)

    def _check_resource_stat(self, resource: str, stat: str) -> None:
        allowed = ("perc", "size") if resource == "mem" else ("perc",)
        if stat not in allowed:
            raise EplValidationError(
                f"statistic {stat!r} does not apply to resource "
                f"{resource!r} (allowed: {', '.join(allowed)})", self.line)

    # -- behaviors --------------------------------------------------------

    def resolve_behavior(self, behavior: Behavior) -> Behavior:
        if isinstance(behavior, Balance):
            for type_name in behavior.actor_types:
                if type_name != "any" and type_name not in self.schema:
                    raise EplValidationError(
                        f"balance references unknown actor type "
                        f"{type_name!r}", self.line)
            return behavior
        if isinstance(behavior, Reserve):
            return Reserve(target=self.resolve_pattern(behavior.target),
                           resource=behavior.resource)
        if isinstance(behavior, Colocate):
            return Colocate(first=self.resolve_pattern(behavior.first),
                            second=self.resolve_pattern(behavior.second))
        if isinstance(behavior, Separate):
            return Separate(first=self.resolve_pattern(behavior.first),
                            second=self.resolve_pattern(behavior.second))
        if isinstance(behavior, Pin):
            return Pin(target=self.resolve_pattern(behavior.target))
        raise EplValidationError(
            f"unsupported behavior node {behavior!r}", self.line)


def _validate_dnf(dnf: Tuple[Tuple[Atom, ...], ...],
                  resolver: _RuleResolver, line: int) -> None:
    for conjunction in dnf:
        for atom in conjunction:
            if (isinstance(atom, CompareCond) and _is_percentage(atom)
                    and not 0.0 <= atom.value <= 100.0):
                resolver.warnings.append(EplWarning(
                    f"percentage bound {atom.value} outside [0, 100]",
                    line))


def _is_percentage(atom: CompareCond) -> bool:
    return getattr(atom.feature, "stat", None) == "perc"


def _subject_types(behaviors: Sequence[Behavior],
                   bindings: Dict[str, str]) -> FrozenSet[str]:
    """Actor types a rule's behaviors act upon (for conflict analysis)."""

    def pattern_types(pattern: ActorPattern) -> List[str]:
        if pattern.type_name is not None:
            return [pattern.type_name]
        return [bindings.get(pattern.var, "any")]

    subjects: List[str] = []
    for behavior in behaviors:
        if isinstance(behavior, Balance):
            subjects.extend(behavior.actor_types)
        elif isinstance(behavior, Reserve):
            subjects.extend(pattern_types(behavior.target))
        elif isinstance(behavior, (Colocate, Separate)):
            subjects.extend(pattern_types(behavior.first))
            subjects.extend(pattern_types(behavior.second))
        elif isinstance(behavior, Pin):
            subjects.extend(pattern_types(behavior.target))
    return frozenset(subjects)


# ---------------------------------------------------------------------------
# DNF conversion
# ---------------------------------------------------------------------------


def _to_dnf(condition: Condition) -> Tuple[Tuple[Atom, ...], ...]:
    """Convert a condition to disjunctive normal form.

    EPL rules in practice are small (the paper's largest has three
    conjuncts), so the worst-case blowup of distribution is irrelevant.
    """
    if isinstance(condition, (TrueCond, CompareCond, RefCond)):
        return ((condition,),)
    if isinstance(condition, OrCond):
        return _to_dnf(condition.left) + _to_dnf(condition.right)
    if isinstance(condition, AndCond):
        left = _to_dnf(condition.left)
        right = _to_dnf(condition.right)
        return tuple(l + r for l in left for r in right)
    raise EplValidationError(f"cannot normalize condition {condition!r}")


# ---------------------------------------------------------------------------
# conflict detection (paper §4.3, mechanism 1)
# ---------------------------------------------------------------------------


def _detect_conflicts(rules: Sequence[Rule]) -> List[EplWarning]:
    warnings: List[EplWarning] = []
    pinned: Dict[str, int] = {}
    balanced: Dict[str, int] = {}
    reserved: Dict[str, int] = {}
    colocate_pairs: Dict[Tuple[str, str], int] = {}
    separate_pairs: Dict[Tuple[str, str], int] = {}

    def type_of(pattern: ActorPattern, bindings: Dict[str, str]) -> str:
        if pattern.type_name is not None:
            return pattern.type_name
        return bindings.get(pattern.var or "", "any")

    for rule in rules:
        bindings: Dict[str, str] = {}
        _collect_bindings(rule.condition, bindings)
        for behavior in rule.behaviors:
            _collect_behavior_bindings(behavior, bindings)
        for behavior in rule.behaviors:
            if isinstance(behavior, Pin):
                pinned.setdefault(type_of(behavior.target, bindings),
                                  rule.line)
            elif isinstance(behavior, Balance):
                for type_name in behavior.actor_types:
                    balanced.setdefault(type_name, rule.line)
            elif isinstance(behavior, Reserve):
                reserved.setdefault(type_of(behavior.target, bindings),
                                    rule.line)
            elif isinstance(behavior, Colocate):
                pair = tuple(sorted((type_of(behavior.first, bindings),
                                     type_of(behavior.second, bindings))))
                colocate_pairs.setdefault(pair, rule.line)
            elif isinstance(behavior, Separate):
                pair = tuple(sorted((type_of(behavior.first, bindings),
                                     type_of(behavior.second, bindings))))
                separate_pairs.setdefault(pair, rule.line)

    for pair, line in colocate_pairs.items():
        if pair in separate_pairs:
            warnings.append(EplWarning(
                f"colocate and separate both target actor types "
                f"{pair[0]} and {pair[1]}", line))
    for type_name, line in pinned.items():
        if type_name in balanced:
            warnings.append(EplWarning(
                f"actor type {type_name!r} is pinned but also subject to "
                f"balance", line))
        if type_name in reserved:
            warnings.append(EplWarning(
                f"actor type {type_name!r} is pinned but also subject to "
                f"reserve", line))
    for type_name, line in balanced.items():
        for pair in colocate_pairs:
            if type_name in pair:
                warnings.append(EplWarning(
                    f"actor type {type_name!r} is subject to both balance "
                    f"and colocate; balance takes priority at runtime",
                    line))
                break
    return warnings


def _collect_bindings(condition: Condition,
                      bindings: Dict[str, str]) -> None:
    if isinstance(condition, (AndCond, OrCond)):
        _collect_bindings(condition.left, bindings)
        _collect_bindings(condition.right, bindings)
    elif isinstance(condition, CompareCond):
        feature = condition.feature
        if isinstance(feature, ResourceFeature) and not feature.is_server():
            _bind_pattern(feature.entity, bindings)
        elif isinstance(feature, CallFeature):
            if not feature.is_client():
                _bind_pattern(feature.caller, bindings)
            _bind_pattern(feature.callee, bindings)
    elif isinstance(condition, RefCond):
        _bind_pattern(condition.member, bindings)
        _bind_pattern(condition.container, bindings)


def _collect_behavior_bindings(behavior: Behavior,
                               bindings: Dict[str, str]) -> None:
    patterns: List[ActorPattern] = []
    if isinstance(behavior, Reserve):
        patterns = [behavior.target]
    elif isinstance(behavior, (Colocate, Separate)):
        patterns = [behavior.first, behavior.second]
    elif isinstance(behavior, Pin):
        patterns = [behavior.target]
    for pattern in patterns:
        _bind_pattern(pattern, bindings)


def _bind_pattern(pattern: ActorPattern, bindings: Dict[str, str]) -> None:
    if pattern.type_name is not None and pattern.var is not None:
        bindings.setdefault(pattern.var, pattern.type_name)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _rule_to_dict(rule: Rule) -> dict:
    serialized = {
        "line": rule.line,
        "condition": _condition_to_dict(rule.condition),
        "behaviors": [_behavior_to_dict(b) for b in rule.behaviors],
    }
    if rule.priority is not None:
        serialized["priority"] = rule.priority
    return serialized


def _condition_to_dict(condition: Condition) -> dict:
    if isinstance(condition, TrueCond):
        return {"kind": "true"}
    if isinstance(condition, AndCond):
        return {"kind": "and", "left": _condition_to_dict(condition.left),
                "right": _condition_to_dict(condition.right)}
    if isinstance(condition, OrCond):
        return {"kind": "or", "left": _condition_to_dict(condition.left),
                "right": _condition_to_dict(condition.right)}
    if isinstance(condition, CompareCond):
        return {"kind": "compare", "feature": _feature_to_dict(
            condition.feature), "comparison": condition.comparison,
            "value": condition.value}
    if isinstance(condition, RefCond):
        return {"kind": "ref", "member": condition.member.describe(),
                "container": condition.container.describe(),
                "property": condition.property_name}
    raise TypeError(f"unexpected condition {condition!r}")


def _feature_to_dict(feature) -> dict:
    if isinstance(feature, ResourceFeature):
        entity = (SERVER_ENTITY if feature.is_server()
                  else feature.entity.describe())
        return {"kind": "resource", "entity": entity,
                "resource": feature.resource, "stat": feature.stat}
    return {"kind": "call",
            "caller": (CLIENT_CALLER if feature.is_client()
                       else feature.caller.describe()),
            "callee": feature.callee.describe(),
            "function": feature.function, "stat": feature.stat}


def _behavior_to_dict(behavior: Behavior) -> dict:
    if isinstance(behavior, Balance):
        return {"kind": "balance", "types": list(behavior.actor_types),
                "resource": behavior.resource}
    if isinstance(behavior, Reserve):
        return {"kind": "reserve", "target": behavior.target.describe(),
                "resource": behavior.resource}
    if isinstance(behavior, Colocate):
        return {"kind": "colocate", "first": behavior.first.describe(),
                "second": behavior.second.describe()}
    if isinstance(behavior, Separate):
        return {"kind": "separate", "first": behavior.first.describe(),
                "second": behavior.second.describe()}
    return {"kind": "pin", "target": behavior.target.describe()}
