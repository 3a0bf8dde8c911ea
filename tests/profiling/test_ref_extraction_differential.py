"""Snapshots restricted to the policy's ref properties decide like full ones.

A profiler extracts refs only from the properties its policy's
``in ref(...)`` atoms name (``CompiledPolicy.ref_properties``).  For
every ``*_POLICY`` of ``repro.apps`` and every ref template of the
fuzzer's rule pools, this compares each actor's restricted snapshot
with the whole-``__dict__`` oracle of ``ref_oracle``, and every rule's
matches over the two snapshot sets.  Each ``in ref(...)`` atom is also
evaluated on its own, so the joins demonstrably find members and the
comparison is not over empty match lists.
"""

import random

import pytest
from ref_oracle import OracleProfiler

import repro.apps as apps
from repro.bench import build_cluster
from repro.core import compile_source
from repro.core.emr.evaluate import EvaluationScope, evaluate_rule
from repro.core.epl import CompiledRule, RefCond
from repro.core.profiling import ProfilingRuntime
from repro.core.profiling.snapshot import EMPTY
from repro.fuzz.generator import rule_pool_for
from repro.fuzz.runner import actor_classes_for
from repro.graphs import powerlaw_graph


def _halo(bed):
    deployment = apps.build_halo(bed, num_routers=3, num_sessions=3)
    for index, session in enumerate(deployment.sessions):
        instance = bed.system.actor_instance(session)
        for offset in range(3):
            server = bed.servers[(index + offset + 1) % len(bed.servers)]
            instance.players.append(
                bed.system.create_actor(apps.Player, server=server))


def _pagerank(bed):
    graph = powerlaw_graph(60, 3, random.Random(3))
    apps.build_pagerank(bed, graph, 6)


def _chatroom(bed):
    for index in range(2):
        server = bed.servers[index % len(bed.servers)]
        room = bed.system.create_actor(apps.ChatRoom, server=server)
        members = bed.system.actor_instance(room).members
        for offset in range(3):
            members.append(bed.system.create_actor(
                apps.ChatUser, room,
                server=bed.servers[(index + offset) % len(bed.servers)]))


def _estore(bed):
    apps.build_estore(bed, num_roots=6, children_per_root=3)


#: Policy name -> (its actor program, a deployment of it).
APP_POLICIES = {
    "BTREE_POLICY": ([apps.InnerNode, apps.LeafNode],
                     lambda bed: apps.build_btree(bed, fanout=3,
                                                  leaf_count=9)),
    "CASSANDRA_POLICY": ([apps.Replica],
                         lambda bed: apps.build_cassandra(
                             bed, num_shards=3, all_on_first=False)),
    "ESTORE_POLICY": ([apps.Partition], _estore),
    "HALO_INTERACTION_POLICY": ([apps.Router, apps.Session, apps.Player],
                                _halo),
    "HALO_RESOURCE_POLICY": ([apps.Router, apps.Session, apps.Player],
                             _halo),
    "MEDIA_POLICY": (apps.MEDIA_ACTOR_CLASSES, apps.build_media_service),
    "METADATA_POLICY": ([apps.Folder, apps.File],
                        lambda bed: apps.build_metadata_server(
                            bed, num_folders=3, files_per_folder=4)),
    "PAGERANK_POLICY": ([apps.PageRankWorker], _pagerank),
    "PICCOLO_POLICY": ([apps.PiccoloWorker, apps.Table],
                       lambda bed: apps.build_piccolo(bed, num_workers=4)),
    "ZEXPANDER_POLICY": ([apps.IndexNode, apps.CacheLeaf],
                         apps.build_zexpander),
}

#: The policies whose rules name a ref property.
REF_POLICIES = {"BTREE_POLICY", "CASSANDRA_POLICY", "ESTORE_POLICY",
                "HALO_INTERACTION_POLICY", "METADATA_POLICY",
                "PICCOLO_POLICY"}

FUZZ_DEPLOYMENTS = {"estore": _estore, "chatroom": _chatroom}


def _fuzz_ref_rules():
    """Every ref template of the fuzz rule pools, in each form its rng
    can give it (with and without a ``priority N:`` prefix)."""
    cases = []
    for app in ("pagerank", "estore", "chatroom"):
        for template in rule_pool_for(app):
            texts = {template(random.Random(seed)) for seed in range(8)}
            for text in sorted(texts):
                if " in ref(" in text:
                    cases.append((app, text))
    return cases


FUZZ_REF_RULES = _fuzz_ref_rules()


def _scope(profiler, bed):
    """Every server's and actor's snapshot, as one LEM round takes them."""
    servers, actors = [], []
    for server in bed.system.running_servers():
        records = bed.system.actors_on(server)
        servers.append(profiler.snapshot_server(server, records))
        actors.extend(profiler.snapshot_actors(records))
    by_id = {snap.actor_id: snap for snap in actors}
    return EvaluationScope(servers=servers, actors=actors,
                           resolve_ref=lambda ref: by_id.get(ref.actor_id))


def _ref_atom_rules(policy):
    """Each ``in ref(...)`` atom of the policy as a rule of its own."""
    return [CompiledRule(index=rule.index, line=rule.line, dnf=((atom,),),
                         behaviors=(), variables=rule.variables,
                         subject_types=frozenset())
            for rule in policy.all_rules()
            for conj in rule.dnf for atom in conj
            if isinstance(atom, RefCond)]


def _compare(policy, deploy):
    """Assert restricted and oracle snapshots agree; returns how many
    matches the standalone ref atoms found."""
    bed = build_cluster(3, "m1.small", seed=7)
    deploy(bed)
    scopes = (_scope(ProfilingRuntime(
                  bed.sim, ref_properties=policy.ref_properties), bed),
              _scope(OracleProfiler(bed.sim), bed))
    for snap, full in zip(scopes[0].actors, scopes[1].actors):
        assert snap.actor_id == full.actor_id
        expected = {name: held for name, held in full.refs.items()
                    if name in policy.ref_properties}
        assert snap.refs == expected, snap.ref
        if not expected:
            assert snap.refs is EMPTY
    for rule in policy.all_rules():
        keys = [[match.key() for match in evaluate_rule(rule, scope)]
                for scope in scopes]
        assert keys[0] == keys[1], rule.line
    joined = 0
    for rule in _ref_atom_rules(policy):
        keys = [[match.key() for match in evaluate_rule(rule, scope)]
                for scope in scopes]
        assert keys[0] == keys[1], rule.line
        joined += len(keys[0])
    return joined


def test_every_app_policy_is_covered():
    names = {name for name in apps.__all__ if name.endswith("_POLICY")}
    assert names == set(APP_POLICIES)


@pytest.mark.parametrize("name", sorted(APP_POLICIES))
def test_app_policy_decides_alike_on_restricted_snapshots(name):
    classes, deploy = APP_POLICIES[name]
    policy = compile_source(getattr(apps, name), classes)
    assert bool(policy.ref_properties) == (name in REF_POLICIES)
    joined = _compare(policy, deploy)
    assert (joined > 0) == (name in REF_POLICIES)


def test_fuzz_pools_have_ref_templates_for_both_ref_apps():
    assert {app for app, _ in FUZZ_REF_RULES} == set(FUZZ_DEPLOYMENTS)


@pytest.mark.parametrize("app, text", FUZZ_REF_RULES)
def test_fuzz_ref_rule_decides_alike_on_restricted_snapshots(app, text):
    policy = compile_source(text, actor_classes_for(app))
    assert len(policy.ref_properties) == 1
    assert _compare(policy, FUZZ_DEPLOYMENTS[app]) > 0
