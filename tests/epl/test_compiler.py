"""Unit tests for EPL compilation: validation, classification, conflicts."""

import json

import pytest

from repro.actors import Actor
from repro.core.epl import (BEHAVIOR_PRIORITIES, EplValidationError,
                            behavior_priority, compile_source, parse_policy,
                            compile_policy, schema_from_classes, Balance,
                            Colocate, Pin, Reserve)


class Folder(Actor):
    files: list

    def __init__(self):
        self.files = []

    def open(self):
        return 1


class File(Actor):
    def read(self):
        return 2


class Worker(Actor):
    def run(self):
        return 3


ALL = [Folder, File, Worker]


def test_mixed_rule_lands_on_both_sides():
    compiled = compile_source("""
        server.cpu.perc > 80 and
        client.call(Folder(fo).open).perc > 40 and
        File(fi) in ref(fo.files) =>
            reserve(fo, cpu); colocate(fo, fi);
    """, ALL)
    assert len(compiled.actor_rules) == 1
    assert len(compiled.resource_rules) == 1
    assert isinstance(compiled.actor_rules[0].behaviors[0], Colocate)
    assert isinstance(compiled.resource_rules[0].behaviors[0], Reserve)
    # Both sides keep the full condition and the variable bindings.
    assert compiled.actor_rules[0].variables == {"fo": "Folder",
                                                 "fi": "File"}


def test_pure_interaction_rule_is_actor_only():
    compiled = compile_source(
        "File(fi) in ref(Folder(fo).files) => colocate(fo, fi);", ALL)
    assert len(compiled.actor_rules) == 1
    assert not compiled.resource_rules
    # The actor-side ref atom is still a property snapshots must read;
    # with no resource rule, a REPORT carries no actor type.
    assert compiled.ref_properties == {"files"}
    assert compiled.report_types == frozenset()


def test_ref_properties_and_report_types_are_the_policys_reads():
    compiled = compile_source("""
        server.cpu.perc > 80 => balance({Worker}, cpu);
        server.cpu.perc > 80 and
        client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);
    """, ALL)
    assert compiled.ref_properties == frozenset()
    assert compiled.report_types == {"Worker", "Folder"}
    assert "any" in compile_source(
        "server.cpu.perc > 80 => balance({any}, cpu);", ALL).report_types


def test_pure_resource_rule_is_gem_only():
    compiled = compile_source(
        "server.cpu.perc > 80 => balance({Worker}, cpu);", ALL)
    assert not compiled.actor_rules
    assert len(compiled.resource_rules) == 1


def test_variable_reuse_resolves_to_binding():
    compiled = compile_source("""
        client.call(Folder(fo).open).count > 5 => pin(fo);
    """, ALL)
    pin = compiled.actor_rules[0].behaviors[0]
    assert isinstance(pin, Pin)
    assert pin.target.type_name is None
    assert pin.target.var == "fo"


def test_unknown_type_rejected():
    with pytest.raises(EplValidationError) as excinfo:
        compile_source("true => pin(Ghost(g));", ALL)
    assert "Ghost" in str(excinfo.value)


def test_unknown_function_rejected():
    with pytest.raises(EplValidationError) as excinfo:
        compile_source(
            "client.call(Folder(f).destroy).count > 1 => pin(f);", ALL)
    assert "destroy" in str(excinfo.value)


def test_unknown_property_rejected():
    with pytest.raises(EplValidationError) as excinfo:
        compile_source(
            "File(fi) in ref(Folder(fo).subdirs) => colocate(fo, fi);", ALL)
    assert "subdirs" in str(excinfo.value)


def test_double_binding_rejected():
    with pytest.raises(EplValidationError):
        compile_source(
            "client.call(Folder(x).open).count > 1 and "
            "client.call(File(x).read).count > 1 => pin(x);", ALL)


def test_variable_shadowing_type_rejected():
    with pytest.raises(EplValidationError):
        compile_source("true => pin(Folder(File));", ALL)


def test_count_stat_on_resource_rejected():
    with pytest.raises(EplValidationError):
        compile_source("server.cpu.count > 5 => balance({Worker}, cpu);",
                       ALL)


def test_mem_size_stat_allowed():
    compiled = compile_source(
        "server.mem.size > 1024 => balance({Worker}, mem);", ALL)
    assert len(compiled.resource_rules) == 1


def test_balance_unknown_type_rejected():
    with pytest.raises(EplValidationError):
        compile_source("true => balance({Ghost}, cpu);", ALL)


def test_any_type_allowed():
    compiled = compile_source(
        "server.cpu.perc > 90 => balance({Worker}, cpu); pin(any(a));",
        ALL)
    assert compiled.rule_count() == 1


def test_call_on_any_rejected():
    with pytest.raises(EplValidationError):
        compile_source("client.call(any(a).run).count > 1 => pin(a);", ALL)


def test_out_of_range_percentage_warns():
    compiled = compile_source(
        "server.cpu.perc > 140 => balance({Worker}, cpu);", ALL)
    assert any("140" in str(w) for w in compiled.warnings)


def test_conflict_pin_vs_balance_warns():
    compiled = compile_source("""
        true => pin(Worker(w));
        server.cpu.perc > 80 => balance({Worker}, cpu);
    """, ALL)
    assert any("pinned" in str(w) and "balance" in str(w)
               for w in compiled.warnings)


def test_conflict_colocate_vs_separate_warns():
    compiled = compile_source("""
        File(fi) in ref(Folder(fo).files) => colocate(fo, fi);
        true => separate(Folder(a), File(b));
    """, ALL)
    assert any("colocate and separate" in str(w)
               for w in compiled.warnings)


def test_conflict_balance_vs_colocate_warns():
    compiled = compile_source("""
        File(fi) in ref(Folder(fo).files) => colocate(fo, fi);
        server.cpu.perc > 80 => balance({Folder}, cpu);
    """, ALL)
    assert any("balance takes priority" in str(w)
               for w in compiled.warnings)


def test_priorities_order_balance_over_colocate():
    assert BEHAVIOR_PRIORITIES["balance"] > BEHAVIOR_PRIORITIES["reserve"]
    assert BEHAVIOR_PRIORITIES["reserve"] > BEHAVIOR_PRIORITIES["separate"]
    assert BEHAVIOR_PRIORITIES["separate"] > BEHAVIOR_PRIORITIES["colocate"]
    assert behavior_priority(Balance(("Worker",), "cpu")) == \
        BEHAVIOR_PRIORITIES["balance"]


def test_dnf_distributes_or_over_and():
    compiled = compile_source(
        "(server.cpu.perc > 80 or server.cpu.perc < 60) and true "
        "=> balance({Worker}, cpu);", ALL)
    rule = compiled.resource_rules[0]
    assert len(rule.dnf) == 2


def test_config_serialization_roundtrips_to_json():
    compiled = compile_source("""
        server.cpu.perc > 80 and
        client.call(Folder(fo).open).perc > 40 and
        File(fi) in ref(fo.files) =>
            reserve(fo, cpu); colocate(fo, fi);
        server.cpu.perc < 50 => balance({Worker}, cpu);
    """, ALL)
    config = json.loads(compiled.to_json())
    assert len(config["rules"]) == 2
    assert config["rules"][0]["behaviors"][0]["kind"] == "reserve"
    assert config["rules"][1]["behaviors"][0]["types"] == ["Worker"]
    assert "Folder" in config["types"]


def test_schema_from_classes():
    schema = schema_from_classes(ALL)
    assert set(schema) == {"Folder", "File", "Worker"}
    assert schema["Folder"].has_property("files")
    assert schema["File"].has_function("read")


def test_compile_policy_accepts_prebuilt_schema():
    policy = parse_policy("true => pin(Worker(w));")
    compiled = compile_policy(policy, schema_from_classes(ALL))
    assert compiled.rule_count() == 1
