"""Unit tests for migration actions and conflict resolution."""

from repro.actors import ActorRef
from repro.cluster import Server, instance_type
from repro.core.emr import Action, resolve_actions
from repro.core.profiling import ActorSnapshot
from repro.sim import Simulator


def snap(actor_id, server):
    return ActorSnapshot(
        ref=ActorRef(actor_id=actor_id, type_name="W"), server=server,
        cpu_perc=10.0, cpu_ms_per_min=100.0, mem_mb=1.0, mem_perc=0.1,
        net_bytes_per_min=0.0, net_perc=0.0)


def make_servers():
    sim = Simulator()
    return [Server(sim, instance_type("m5.large"), i, name=n)
            for i, n in enumerate(("a", "b", "c"), 1)]


def action(kind, actor_id, src, dst):
    return Action(kind=kind, actor=snap(actor_id, src), src=src, dst=dst)


def test_priorities_match_table():
    a, b, _ = make_servers()
    assert action("balance", 1, a, b).priority > \
        action("reserve", 1, a, b).priority > \
        action("separate", 1, a, b).priority > \
        action("colocate", 1, a, b).priority


def test_resolve_keeps_highest_priority_per_actor():
    a, b, c = make_servers()
    lem = [action("colocate", 1, a, b)]
    gem = [action("balance", 1, a, c)]
    final = resolve_actions(lem, gem)
    assert len(final) == 1
    assert final[0].kind == "balance"
    assert final[0].dst is c


def test_resolve_keeps_earliest_on_tie():
    a, b, c = make_servers()
    first = action("colocate", 1, a, b)
    second = action("colocate", 1, a, c)
    final = resolve_actions([first], [second])
    assert final == [first]


def test_resolve_preserves_order_and_distinct_actors():
    a, b, c = make_servers()
    lem = [action("colocate", 1, a, b), action("separate", 2, a, c)]
    gem = [action("reserve", 3, b, c)]
    final = resolve_actions(lem, gem)
    assert [act.actor_id for act in final] == [1, 2, 3]


def test_resolve_empty():
    assert resolve_actions([], []) == []
