"""Unit tests for balance/reserve/drain planning heuristics."""

import pytest

from repro.actors import ActorRef
from repro.cluster import Server, instance_type
from repro.core.emr import (contribution_perc, plan_balance, plan_drain,
                            plan_reserve)
from repro.core.profiling import ActorSnapshot, ServerSnapshot
from repro.sim import Simulator

_next_id = [1]


def server_pair(sim, names=("a", "b"), type_name="m5.large"):
    return [Server(sim, instance_type(type_name), i, name=n)
            for i, n in enumerate(names, 1)]


def snap_server(server, cpu, actor_count=10):
    return ServerSnapshot(server=server, cpu_perc=cpu, mem_perc=0.0,
                          net_perc=0.0, actor_count=actor_count,
                          vcpus=server.itype.vcpus,
                          instance_type=server.itype.name)


def snap_actor(server, cpu_perc, type_name="Worker", pinned=False,
               placed_at=0.0):
    actor_id = _next_id[0]
    _next_id[0] += 1
    capacity = 60_000.0 * server.itype.vcpus
    return ActorSnapshot(
        ref=ActorRef(actor_id=actor_id, type_name=type_name),
        server=server, cpu_perc=cpu_perc,
        cpu_ms_per_min=cpu_perc / 100.0 * capacity,
        mem_mb=1.0, mem_perc=0.1, net_bytes_per_min=0.0, net_perc=0.0,
        pinned=pinned, last_placed_at=placed_at)


def test_contribution_rescales_for_speed():
    sim = Simulator()
    slow = Server(sim, instance_type("m1.small"), 1)   # speed 0.5, 1 vcpu
    fast = Server(sim, instance_type("m1.medium"), 2)  # speed 1.0, 1 vcpu
    actor = snap_actor(slow, cpu_perc=40.0)
    # Moving to a 2x faster server halves the busy-ms, same vcpu count.
    assert contribution_perc(actor, fast, "cpu") == pytest.approx(20.0)


def test_overload_moves_to_idle_server():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 20.0)]
    actors = {a.server_id: [snap_actor(a, 25.0), snap_actor(a, 30.0),
                            snap_actor(a, 40.0)],
              b.server_id: []}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        lower=60.0, upper=80.0, now=100_000.0,
                        stability_ms=10_000.0, max_moves_per_server=3)
    assert plan.actions
    assert all(action.dst is b for action in plan.actions)
    assert not plan.need_scale_out


def test_in_band_servers_produce_no_actions():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 70.0), snap_server(b, 65.0)]
    actors = {a.server_id: [snap_actor(a, 30.0)],
              b.server_id: [snap_actor(b, 30.0)]}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, 100_000.0, 10_000.0, 3)
    assert plan.actions == []


def test_pinned_and_recent_actors_not_moved():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 10.0)]
    actors = {a.server_id: [
        snap_actor(a, 50.0, pinned=True),
        snap_actor(a, 45.0, placed_at=95_000.0),  # inside stability
    ], b.server_id: []}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, now=100_000.0, stability_ms=10_000.0,
                        max_moves_per_server=3)
    assert plan.actions == []
    assert plan.need_scale_out  # overloaded but nothing can move


def test_type_filter_respected():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 10.0)]
    actors = {a.server_id: [snap_actor(a, 50.0, type_name="Other")],
              b.server_id: []}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, 100_000.0, 10_000.0, 3)
    assert plan.actions == []


def test_all_overloaded_flag_set():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 90.0)]
    actors = {a.server_id: [snap_actor(a, 95.0)],
              b.server_id: [snap_actor(b, 90.0)]}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, 100_000.0, 10_000.0, 3)
    assert plan.all_overloaded


def test_underload_path_feeds_idle_servers():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 76.0), snap_server(b, 30.0)]
    actors = {a.server_id: [snap_actor(a, 18.0), snap_actor(a, 20.0),
                            snap_actor(a, 19.0), snap_actor(a, 19.0)],
              b.server_id: [snap_actor(b, 30.0)]}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        lower=50.0, upper=80.0, now=100_000.0,
                        stability_ms=10_000.0, max_moves_per_server=3)
    assert plan.actions
    assert all(action.dst is b for action in plan.actions)


def test_moves_strictly_reduce_pair_peak():
    sim = Simulator()
    a, b = server_pair(sim)
    # Moving the 45% actor to a 50% server would raise the peak; the
    # planner must refuse rather than create a new hotspot.
    servers = [snap_server(a, 85.0), snap_server(b, 50.0)]
    actors = {a.server_id: [snap_actor(a, 45.0), snap_actor(a, 40.0)],
              b.server_id: []}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, 100_000.0, 10_000.0, 3)
    for action in plan.actions:
        contrib = contribution_perc(action.actor, b, "cpu")
        assert 50.0 + contrib < 85.0


def test_groups_move_as_units():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 5.0)]
    anchor = snap_actor(a, 20.0)
    partner = snap_actor(a, 10.0)
    solo = snap_actor(a, 8.0)
    actors = {a.server_id: [anchor, partner, solo], b.server_id: []}
    groups = {anchor.actor_id: 1, partner.actor_id: 1}
    plan = plan_balance(servers, actors, ("Worker",), "cpu",
                        60.0, 80.0, 100_000.0, 10_000.0, 3, groups=groups)
    moved = {action.actor_id for action in plan.actions}
    # If any group member moved, the whole group moved with it.
    if anchor.actor_id in moved or partner.actor_id in moved:
        assert {anchor.actor_id, partner.actor_id} <= moved
        dsts = {action.dst.name for action in plan.actions
                if action.actor_id in (anchor.actor_id, partner.actor_id)}
        assert len(dsts) == 1


def test_reserve_prefers_dedicated_idle_server():
    sim = Simulator()
    a, b, c = [Server(sim, instance_type("m5.large"), i, name=n)
               for i, n in enumerate(("src", "busy", "empty"), 1)]
    servers = [snap_server(a, 90.0), snap_server(b, 40.0),
               snap_server(c, 5.0)]
    hot = snap_actor(a, 30.0)
    other = snap_actor(a, 20.0)
    actors = {a.server_id: [hot, other],
              b.server_id: [snap_actor(b, 40.0)],
              c.server_id: []}
    actions, scale = plan_reserve(hot, servers, actors, "cpu",
                                  admission_upper=80.0, now=100_000.0,
                                  stability_ms=10_000.0)
    assert not scale
    assert len(actions) == 1
    assert actions[0].dst is c


def test_reserve_noop_when_already_dedicated():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 90.0, actor_count=1), snap_server(b, 5.0)]
    alone = snap_actor(a, 88.0)
    actors = {a.server_id: [alone], b.server_id: []}
    actions, scale = plan_reserve(alone, servers, actors, "cpu",
                                  80.0, 100_000.0, 10_000.0)
    assert actions == [] and not scale


def test_reserve_requests_scale_out_when_no_idle_target():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 95.0), snap_server(b, 90.0)]
    hot = snap_actor(a, 30.0)
    actors = {a.server_id: [hot, snap_actor(a, 30.0)],
              b.server_id: [snap_actor(b, 90.0)]}
    actions, scale = plan_reserve(hot, servers, actors, "cpu",
                                  80.0, 100_000.0, 10_000.0, trigger=80.0)
    assert actions == []
    assert scale


def test_reserve_target_must_be_under_trigger():
    sim = Simulator()
    a, b = server_pair(sim)
    # b is below the admission bound but above the rule trigger (50):
    # it has no *idle* CPU in the rule's sense.
    servers = [snap_server(a, 90.0), snap_server(b, 60.0)]
    hot = snap_actor(a, 10.0)
    actors = {a.server_id: [hot, snap_actor(a, 30.0)],
              b.server_id: [snap_actor(b, 60.0)]}
    actions, scale = plan_reserve(hot, servers, actors, "cpu",
                                  80.0, 100_000.0, 10_000.0, trigger=50.0)
    assert actions == []
    assert scale


def test_reserve_moves_whole_group():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 90.0), snap_server(b, 5.0)]
    anchor = snap_actor(a, 20.0)
    partner = snap_actor(a, 5.0)
    stranger = snap_actor(a, 40.0)
    actors = {a.server_id: [anchor, partner, stranger], b.server_id: []}
    groups = {anchor.actor_id: 7, partner.actor_id: 7}
    actions, _ = plan_reserve(anchor, servers, actors, "cpu",
                              80.0, 100_000.0, 10_000.0, groups=groups)
    moved = {action.actor_id for action in actions}
    assert moved == {anchor.actor_id, partner.actor_id}
    assert {action.dst.name for action in actions} == {b.name}


def test_reserve_overrides_pin():
    sim = Simulator()
    a, b = server_pair(sim)
    servers = [snap_server(a, 90.0), snap_server(b, 5.0)]
    pinned = snap_actor(a, 20.0, pinned=True)
    actors = {a.server_id: [pinned, snap_actor(a, 30.0)],
              b.server_id: []}
    actions, _ = plan_reserve(pinned, servers, actors, "cpu",
                              80.0, 100_000.0, 10_000.0)
    assert len(actions) == 1


def test_drain_places_every_actor_or_fails():
    sim = Simulator()
    a, b, c = [Server(sim, instance_type("m5.large"), i, name=n)
               for i, n in enumerate(("victim", "x", "y"), 1)]
    victim = snap_server(a, 20.0)
    others = [snap_server(b, 30.0), snap_server(c, 40.0)]
    actors = [snap_actor(a, 8.0), snap_actor(a, 6.0)]
    actions = plan_drain(victim, others, actors, "cpu", upper=80.0,
                         now=100_000.0, stability_ms=10_000.0)
    assert actions is not None
    assert {action.actor_id for action in actions} == \
        {actor.actor_id for actor in actors}


def test_drain_refuses_if_an_actor_cannot_be_placed():
    sim = Simulator()
    a, b = server_pair(sim)
    victim = snap_server(a, 20.0)
    others = [snap_server(b, 79.0)]
    actors = [snap_actor(a, 10.0)]
    assert plan_drain(victim, others, actors, "cpu", 80.0,
                      100_000.0, 10_000.0) is None


def test_drain_refuses_pinned_actor():
    sim = Simulator()
    a, b = server_pair(sim)
    victim = snap_server(a, 20.0)
    others = [snap_server(b, 10.0)]
    actors = [snap_actor(a, 5.0, pinned=True)]
    assert plan_drain(victim, others, actors, "cpu", 80.0,
                      100_000.0, 10_000.0) is None
