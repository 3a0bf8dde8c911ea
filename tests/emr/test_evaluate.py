"""Unit tests for rule evaluation over snapshots."""

import pytest

from repro.actors import Actor, ActorRef
from repro.cluster import Server, instance_type
from repro.core.emr import (EvaluationScope, compare, evaluate_rule,
                            extract_bounds)
from repro.core.emr.evaluate import colocate_groups
from repro.core.epl import compile_source
from repro.core.profiling import ActorSnapshot, ServerSnapshot
from repro.sim import Simulator


class Folder(Actor):
    files: list

    def __init__(self):
        self.files = []

    def open(self):
        return 1


class File(Actor):
    def read(self):
        return 2


class Stream(Actor):
    def push(self):
        return 3


class User(Actor):
    def track(self):
        return 4


ALL = [Folder, File, Stream, User]

_next_id = [1]


def make_server(sim, name="s", server_id=1):
    return Server(sim, instance_type("m5.large"), server_id, name=name)


def snap_server(server, cpu=50.0, mem=10.0, net=10.0, actors=0):
    return ServerSnapshot(server=server, cpu_perc=cpu, mem_perc=mem,
                          net_perc=net, actor_count=actors, vcpus=2,
                          instance_type="m5.large")


def snap_actor(type_name, server, cpu=5.0, calls=None, call_perc=None,
               pairs=None, refs=None, pinned=False):
    actor_id = _next_id[0]
    _next_id[0] += 1
    return ActorSnapshot(
        ref=ActorRef(actor_id=actor_id, type_name=type_name),
        server=server, cpu_perc=cpu, cpu_ms_per_min=cpu * 1200.0,
        mem_mb=1.0, mem_perc=0.1, net_bytes_per_min=0.0, net_perc=0.0,
        call_count_per_min=dict(calls or {}),
        call_perc=dict(call_perc or {}),
        pair_count_per_min=dict(pairs or {}),
        refs=dict(refs or {}), pinned=pinned)


def make_scope(servers, actors):
    by_id = {snap.actor_id: snap for snap in actors}

    def resolve(ref):
        return by_id.get(ref.actor_id)

    return EvaluationScope(servers=servers, actors=actors,
                           resolve_ref=resolve)


def test_compare_operators():
    assert compare(5, "<", 10) and compare(10, ">", 5)
    assert compare(5, "<=", 5) and compare(5, ">=", 5)
    assert not compare(5, ">", 5)
    with pytest.raises(ValueError):
        compare(1, "==", 1)


def test_server_condition_selects_matching_servers():
    sim = Simulator()
    hot = snap_server(make_server(sim, "hot"), cpu=90.0)
    cold = snap_server(make_server(sim, "cold", 2), cpu=30.0)
    compiled = compile_source(
        "server.cpu.perc > 80 => balance({Folder}, cpu);", ALL)
    scope = make_scope([hot, cold], [])
    matches = evaluate_rule(compiled.resource_rules[0], scope)
    assert [m.subject_server.name for m in matches] == ["hot"]


def test_client_call_perc_binds_actor_on_subject_server():
    sim = Simulator()
    server = make_server(sim)
    server_snap = snap_server(server, cpu=90.0)
    hot = snap_actor("Folder", server,
                     call_perc={("client", "open"): 60.0})
    cold = snap_actor("Folder", server,
                      call_perc={("client", "open"): 10.0})
    compiled = compile_source(
        "server.cpu.perc > 80 and "
        "client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);", ALL)
    scope = make_scope([server_snap], [hot, cold])
    matches = evaluate_rule(compiled.resource_rules[0], scope)
    assert len(matches) == 1
    assert matches[0].bindings["fo"].actor_id == hot.actor_id


def test_actor_on_other_server_not_selected_for_server_scoped_feature():
    sim = Simulator()
    hot_server = make_server(sim, "hot")
    other_server = make_server(sim, "other", 2)
    hot_snap = snap_server(hot_server, cpu=90.0)
    other_snap = snap_server(other_server, cpu=20.0)
    elsewhere = snap_actor("Folder", other_server,
                           call_perc={("client", "open"): 90.0})
    compiled = compile_source(
        "server.cpu.perc > 80 and "
        "client.call(Folder(fo).open).perc > 40 => reserve(fo, cpu);", ALL)
    scope = make_scope([hot_snap, other_snap], [elsewhere])
    assert evaluate_rule(compiled.resource_rules[0], scope) == []


def test_ref_condition_joins_members_to_containers():
    sim = Simulator()
    server = make_server(sim)
    server_snap = snap_server(server)
    file_a = snap_actor("File", server)
    file_b = snap_actor("File", server)
    folder = snap_actor("Folder", server,
                        refs={"files": (file_a.ref, file_b.ref)})
    compiled = compile_source(
        "File(fi) in ref(Folder(fo).files) => colocate(fo, fi);", ALL)
    scope = make_scope([server_snap], [folder, file_a, file_b])
    matches = evaluate_rule(compiled.actor_rules[0], scope)
    members = sorted(m.bindings["fi"].actor_id for m in matches)
    assert members == sorted([file_a.actor_id, file_b.actor_id])
    assert all(m.bindings["fo"].actor_id == folder.actor_id
               for m in matches)


def test_ref_condition_filters_by_member_type():
    sim = Simulator()
    server = make_server(sim)
    server_snap = snap_server(server)
    stranger = snap_actor("Stream", server)
    folder = snap_actor("Folder", server, refs={"files": (stranger.ref,)})
    compiled = compile_source(
        "File(fi) in ref(Folder(fo).files) => colocate(fo, fi);", ALL)
    scope = make_scope([server_snap], [folder, stranger])
    assert evaluate_rule(compiled.actor_rules[0], scope) == []


def test_actor_pair_call_count_binds_both_sides():
    sim = Simulator()
    server = make_server(sim)
    server_snap = snap_server(server)
    stream = snap_actor("Stream", server)
    user = snap_actor("User", server,
                      pairs={(stream.actor_id, "track"): 12.0})
    compiled = compile_source(
        "Stream(v).call(User(u).track).count > 0 => colocate(v, u);", ALL)
    scope = make_scope([server_snap], [stream, user])
    matches = evaluate_rule(compiled.actor_rules[0], scope)
    assert len(matches) == 1
    assert matches[0].bindings["v"].actor_id == stream.actor_id
    assert matches[0].bindings["u"].actor_id == user.actor_id


def test_behavior_only_variable_binds_on_subject_server():
    sim = Simulator()
    hot_server = make_server(sim, "hot")
    cold_server = make_server(sim, "cold", 2)
    hot_snap = snap_server(hot_server, cpu=60.0)
    cold_snap = snap_server(cold_server, cpu=10.0)
    on_hot = snap_actor("Stream", hot_server)
    on_cold = snap_actor("Stream", cold_server)
    compiled = compile_source(
        "server.cpu.perc > 50 => reserve(Stream(v), cpu);", ALL)
    scope = make_scope([hot_snap, cold_snap], [on_hot, on_cold])
    matches = evaluate_rule(compiled.resource_rules[0], scope)
    assert len(matches) == 1
    assert matches[0].bindings["v"].actor_id == on_hot.actor_id


def test_or_condition_produces_union_of_matches():
    sim = Simulator()
    hot = snap_server(make_server(sim, "hot"), cpu=90.0)
    idle = snap_server(make_server(sim, "idle", 2), cpu=10.0)
    mid = snap_server(make_server(sim, "mid", 3), cpu=70.0)
    compiled = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Folder}, cpu);", ALL)
    scope = make_scope([hot, idle, mid], [])
    names = {m.subject_server.name
             for m in evaluate_rule(compiled.resource_rules[0], scope)}
    assert names == {"hot", "idle"}


def test_extract_bounds_from_balance_rule():
    compiled = compile_source(
        "server.cpu.perc > 80 or server.cpu.perc < 60 "
        "=> balance({Folder}, cpu);", ALL)
    lower, upper = extract_bounds(compiled.resource_rules[0], "cpu")
    assert (lower, upper) == (60.0, 80.0)


def test_extract_bounds_defaults_when_missing():
    compiled = compile_source(
        "server.cpu.perc < 50 => balance({Folder}, cpu);", ALL)
    lower, upper = extract_bounds(compiled.resource_rules[0], "cpu")
    assert (lower, upper) == (50.0, 80.0)

    compiled = compile_source("true => balance({Folder}, cpu);", ALL)
    lower, upper = extract_bounds(compiled.resource_rules[0], "cpu",
                                  default_lower=55.0, default_upper=75.0)
    assert (lower, upper) == (55.0, 75.0)


def test_colocate_groups_union_find():
    sim = Simulator()
    server = make_server(sim)
    server_snap = snap_server(server)
    file_a = snap_actor("File", server)
    file_b = snap_actor("File", server)
    folder = snap_actor("Folder", server,
                        refs={"files": (file_a.ref, file_b.ref)})
    loner = snap_actor("Stream", server)
    compiled = compile_source(
        "File(fi) in ref(Folder(fo).files) => colocate(fo, fi);", ALL)
    scope = make_scope([server_snap], [folder, file_a, file_b, loner])
    groups = colocate_groups(compiled.actor_rules, scope)
    assert groups[folder.actor_id] == groups[file_a.actor_id]
    assert groups[file_a.actor_id] == groups[file_b.actor_id]
    assert loner.actor_id not in groups
