"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.actors import ActorRef
from repro.cluster import RingMeter, Server, instance_type
from repro.core.emr import Action, resolve_actions
from repro.core.epl import BEHAVIOR_PRIORITIES, parse_policy, tokenize
from repro.core.profiling import ActorSnapshot
from repro.graphs import (edge_cut, partition_graph, powerlaw_graph,
                          uniform_graph)
from repro.sim import Simulator
from repro.workload import WeightedChoice, cascade_split, hot_one_split


# -- windowed meters ----------------------------------------------------------

@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=100_000.0),
    st.floats(min_value=0.0, max_value=1_000.0)), min_size=1, max_size=60))
def test_meter_window_total_never_exceeds_lifetime(events):
    sim = Simulator()
    meter = RingMeter(sim, 100_000.0)
    for when, amount in sorted(events):
        if when > sim.now:
            sim.schedule_at(when, lambda: None)
            sim.run()
        meter.add(amount)
    total = sum(amount for _w, amount in events)
    assert abs(meter.lifetime_total - total) < 1e-6 * max(1.0, total)
    for window in (100.0, 1_000.0, 50_000.0, 1e9):
        assert 0.0 <= meter.total(window) <= total * (1 + 1e-9) + 1e-6


@given(st.floats(min_value=1.0, max_value=10_000.0),
       st.floats(min_value=0.0, max_value=500.0))
def test_meter_recent_event_always_in_window(window, amount):
    sim = Simulator()
    meter = RingMeter(sim, 10_000.0)
    meter.add(amount)
    assert meter.total(window) == amount


# -- EPL lexer/parser ---------------------------------------------------------

_ident = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,8}", fullmatch=True)


@given(_ident, st.sampled_from(["cpu", "mem", "net"]),
       st.sampled_from(["<", ">", "<=", ">="]),
       st.floats(min_value=0, max_value=100, allow_nan=False))
def test_generated_balance_rules_parse(type_name, resource, comp, value):
    source = (f"server.{resource}.perc {comp} {value:.3f} "
              f"=> balance({{{type_name}}}, {resource});")
    policy = parse_policy(source)
    assert len(policy) == 1
    behavior = policy.rules[0].behaviors[0]
    assert behavior.actor_types == (type_name,)


@given(st.text(alphabet=" \t\n#/abcdefXYZ0123456789_.<>=(){},;",
               max_size=80))
def test_lexer_never_crashes_unexpectedly(text):
    # The lexer either tokenizes or raises the documented error type.
    from repro.core.epl import EplSyntaxError
    try:
        tokens = tokenize(text)
        assert tokens[-1].kind == "EOF"
    except EplSyntaxError:
        pass


# -- conflict resolution --------------------------------------------------------

_kinds = st.sampled_from(list(BEHAVIOR_PRIORITIES))


@st.composite
def action_lists(draw):
    sim = Simulator()
    servers = [Server(sim, instance_type("m5.large")) for _ in range(3)]
    actions = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        actor_id = draw(st.integers(min_value=1, max_value=5))
        kind = draw(st.sampled_from(
            ["balance", "reserve", "separate", "colocate"]))
        snap = ActorSnapshot(
            ref=ActorRef(actor_id=actor_id, type_name="W"),
            server=servers[0], cpu_perc=1.0, cpu_ms_per_min=1.0,
            mem_mb=1.0, mem_perc=0.1, net_bytes_per_min=0.0, net_perc=0.0)
        actions.append(Action(kind=kind, actor=snap, src=servers[0],
                              dst=servers[draw(st.integers(1, 2))]))
    return actions


@given(action_lists(), action_lists())
def test_resolve_actions_invariants(lem, gem):
    final = resolve_actions(lem, gem)
    ids = [action.actor_id for action in final]
    # One action per actor.
    assert len(ids) == len(set(ids))
    # Every kept action has maximal priority among its actor's proposals.
    by_actor = {}
    for action in list(lem) + list(gem):
        by_actor.setdefault(action.actor_id, []).append(action)
    for action in final:
        assert action.priority == max(a.priority
                                      for a in by_actor[action.actor_id])
    # No actions invented.
    all_inputs = set(map(id, list(lem) + list(gem)))
    assert all(id(action) in all_inputs for action in final)


# -- partitioner ----------------------------------------------------------------

@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=40, max_value=200),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_partition_invariants(k, num_nodes, seed):
    graph = powerlaw_graph(num_nodes, 3, random.Random(seed))
    result = partition_graph(graph, k, random.Random(seed + 1))
    assert len(result.assignment) == num_nodes
    assert all(0 <= part < k for part in result.assignment)
    sizes = result.sizes()
    assert sum(sizes) == num_nodes
    # No partition is empty unless k is close to the node count.
    if num_nodes >= 8 * k:
        assert min(sizes) > 0
    assert 0 <= edge_cut(graph, result.assignment) <= graph.num_edges


# -- workload distributions -------------------------------------------------------

@given(st.integers(min_value=1, max_value=100),
       st.floats(min_value=0.0, max_value=1.0))
def test_hot_one_split_sums_to_one(n, share):
    weights = hot_one_split(n, share)
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(w >= 0 for w in weights)


@given(st.integers(min_value=1, max_value=100),
       st.floats(min_value=0.01, max_value=0.9))
def test_cascade_split_sums_to_one_and_decreases(n, fraction):
    weights = cascade_split(n, fraction)
    assert abs(sum(weights) - 1.0) < 1e-9
    head = weights[:-1]  # the final catch-all bucket may break monotony
    assert all(a >= b for a, b in zip(head, head[1:]))


@given(st.lists(st.floats(min_value=0.001, max_value=10.0),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=2**31))
def test_weighted_choice_only_returns_items(weights, seed):
    items = list(range(len(weights)))
    picker = WeightedChoice(items, weights, random.Random(seed))
    for _ in range(50):
        assert picker.pick() in items
