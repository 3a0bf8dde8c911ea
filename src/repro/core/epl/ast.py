"""Abstract syntax tree for PLASMA's elasticity programming language.

The node shapes follow the paper's Fig. 3.II grammar exactly:

    pol   ::= rul*
    rul   ::= cond => beh+ ;
    cond  ::= cond or cond | cond and cond | true
            | feat.stat comp val
            | actor in ref(actor.pname)
    feat  ::= entity.res | cllr.call(actor.fname)
    beh   ::= balance({atype}, res) | reserve(actor, res)
            | colocate(actor, actor) | separate(actor, actor)
            | pin(actor)

Actor occurrences are *patterns*: a type name optionally binding an inline
variable (``Folder(fo)``), the wildcard type ``any``, or a bare variable
bound earlier in the same rule (``fo``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

__all__ = [
    "ActorPattern", "TrueCond", "AndCond", "OrCond", "CompareCond",
    "RefCond", "ResourceFeature", "CallFeature", "Balance", "Reserve",
    "Colocate", "Separate", "Pin", "Rule", "Policy", "Condition",
    "Feature", "Behavior", "SERVER_ENTITY", "CLIENT_CALLER",
    "RESOURCES", "STATISTICS", "COMPARISONS",
]

SERVER_ENTITY = "server"
CLIENT_CALLER = "client"

RESOURCES = ("cpu", "mem", "net")
STATISTICS = ("count", "size", "perc")
COMPARISONS = ("<", ">", ">=", "<=")


@dataclass(frozen=True)
class ActorPattern:
    """An actor occurrence in a rule.

    ``type_name`` is the declared actor type, ``"any"``, or ``None`` when
    the pattern is a bare variable reference.  ``var`` is the inline
    variable introduced (``Folder(fo)``) or referenced (``fo``).
    """

    type_name: Optional[str]
    var: Optional[str] = None

    def describe(self) -> str:
        if self.type_name is None:
            return self.var or "?"
        if self.var:
            return f"{self.type_name}({self.var})"
        return self.type_name


# -- features ---------------------------------------------------------------


@dataclass(frozen=True)
class ResourceFeature:
    """``entity.res`` — resource usage of a server or of actors ([f-ra]/[f-rs])."""

    entity: Union[str, ActorPattern]  # SERVER_ENTITY or an actor pattern
    resource: str                     # cpu | mem | net
    stat: str                         # perc (count/size rejected by compiler)

    def is_server(self) -> bool:
        return self.entity == SERVER_ENTITY


@dataclass(frozen=True)
class CallFeature:
    """``cllr.call(actor.fname)`` — interaction feature ([f-ia])."""

    caller: Union[str, ActorPattern]  # CLIENT_CALLER or an actor pattern
    callee: ActorPattern
    function: str
    stat: str                         # count | size | perc

    def is_client(self) -> bool:
        return self.caller == CLIENT_CALLER


Feature = Union[ResourceFeature, CallFeature]


# -- conditions ---------------------------------------------------------------


@dataclass(frozen=True)
class TrueCond:
    """The trivial condition ``true``."""


@dataclass(frozen=True)
class AndCond:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class OrCond:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class CompareCond:
    """``feat.stat comp val``."""

    feature: Feature
    comparison: str  # < | > | >= | <=
    value: float


@dataclass(frozen=True)
class RefCond:
    """``actor in ref(actor'.pname)`` — selects members referenced by a
    property of the container actor."""

    member: ActorPattern
    container: ActorPattern
    property_name: str


Condition = Union[TrueCond, AndCond, OrCond, CompareCond, RefCond]


# -- behaviors ---------------------------------------------------------------


@dataclass(frozen=True)
class Balance:
    """``balance({atype...}, res)`` — [r-r]: balance server workload by
    migrating actors of the listed types."""

    actor_types: Tuple[str, ...]
    resource: str


@dataclass(frozen=True)
class Reserve:
    """``reserve(actor, res)`` — [r-r]: keep the actor on a server with
    sufficient idle ``res``."""

    target: ActorPattern
    resource: str


@dataclass(frozen=True)
class Colocate:
    """``colocate(a, b)`` — [r-i]: keep both actors on the same server."""

    first: ActorPattern
    second: ActorPattern


@dataclass(frozen=True)
class Separate:
    """``separate(a, b)`` — [r-i]: keep the actors apart when resources allow."""

    first: ActorPattern
    second: ActorPattern


@dataclass(frozen=True)
class Pin:
    """``pin(a)`` — [r-i]: never migrate the actor."""

    target: ActorPattern


Behavior = Union[Balance, Reserve, Colocate, Separate, Pin]


# -- rules & policy ------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One ``cond => beh;...;`` rule with its source line for diagnostics.

    ``priority`` is the optional programmer-specified conflict priority
    (``priority N: cond => beh;`` — paper §4.3: "the highest priority,
    which can be specified by programmers").  ``None`` means the
    behaviors' built-in priorities apply.
    """

    condition: Condition
    behaviors: Tuple[Behavior, ...]
    line: int = 0
    priority: Optional[int] = None


@dataclass
class Policy:
    """A parsed elasticity policy: an ordered list of rules."""

    rules: List[Rule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)
