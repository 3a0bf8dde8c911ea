"""Additional EPL edge cases: grammar corners, AST helpers, errors."""

import pytest

from repro.actors import Actor
from repro.core.epl import (ActorPattern, EplError, EplSyntaxError,
                            EplValidationError, EplWarning, compile_source,
                            format_policy, parse_policy)


class Node(Actor):
    links: list

    def __init__(self):
        self.links = []

    def ping(self):
        return 1


def test_actor_pattern_describe():
    assert ActorPattern("Folder", "fo").describe() == "Folder(fo)"
    assert ActorPattern("Folder", None).describe() == "Folder"
    assert ActorPattern(None, "fo").describe() == "fo"
    assert ActorPattern(None, None).describe() == "?"


def test_error_hierarchy():
    assert issubclass(EplSyntaxError, EplError)
    assert issubclass(EplValidationError, EplError)
    assert "line 3" in str(EplWarning("boom", line=3))
    assert str(EplWarning("boom")) == "boom"


def test_error_location_rendering():
    error = EplSyntaxError("bad", line=4, column=7)
    assert "line 4" in str(error) and "col 7" in str(error)
    error = EplValidationError("bad", line=4)
    assert "line 4" in str(error)


def test_same_type_both_sides_of_ref():
    compiled = compile_source(
        "Node(a) in ref(Node(b).links) => colocate(a, b);", [Node])
    assert compiled.actor_rules[0].variables == {"a": "Node", "b": "Node"}


def test_keywords_cannot_be_resources():
    with pytest.raises(EplSyntaxError):
        parse_policy("server.gpu.perc > 50 => balance({Node}, cpu);")


def test_chained_behaviors_stop_at_non_behavior():
    policy = parse_policy("""
        true => pin(Node(a));
        true => pin(Node(b));
    """)
    assert len(policy) == 2
    assert len(policy.rules[0].behaviors) == 1


def test_whitespace_and_comment_robustness():
    policy = parse_policy(
        "\n\n  # leading comment\n"
        "true//inline\n=>pin(Node(n));# trailing\n")
    assert len(policy) == 1


def test_number_forms():
    policy = parse_policy(
        "server.cpu.perc > 80.5 => balance({Node}, cpu);")
    assert policy.rules[0].condition.value == 80.5


def test_empty_policy_compiles():
    compiled = compile_source("", [Node])
    assert compiled.rule_count() == 0
    assert compiled.all_rules() == []


def test_unknown_resource_in_behavior_rejected():
    with pytest.raises(EplSyntaxError):
        parse_policy("true => reserve(Node(n), gpu);")


def test_format_policy_idempotent_on_canonical_form():
    source = "server.cpu.perc > 80 => balance({Node}, cpu);\n"
    once = format_policy(parse_policy(source))
    twice = format_policy(parse_policy(once))
    assert once == twice == source
