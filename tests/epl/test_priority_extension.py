"""Tests for the programmer-specified rule priority extension (§4.3)."""

import pytest

from repro.actors import Actor, ActorRef
from repro.cluster import Server, instance_type
from repro.core.emr import Action, resolve_actions
from repro.core.epl import EplSyntaxError, compile_source, parse_policy
from repro.core.profiling import ActorSnapshot
from repro.sim import Simulator


class Worker(Actor):
    friends: list

    def __init__(self):
        self.friends = []

    def go(self):
        return 1


def test_priority_prefix_parses():
    policy = parse_policy(
        "priority 55: server.cpu.perc > 80 => balance({W}, cpu);")
    assert policy.rules[0].priority == 55


def test_rules_without_prefix_have_no_priority():
    policy = parse_policy("true => pin(W(w));")
    assert policy.rules[0].priority is None


def test_priority_identifier_still_usable_as_type_name():
    # 'priority' not followed by NUMBER ':' is an ordinary identifier.
    policy = parse_policy("true => pin(priority(p));")
    assert policy.rules[0].priority is None


def test_priority_requires_colon():
    with pytest.raises(EplSyntaxError):
        parse_policy("priority 55 server.cpu.perc > 80 "
                     "=> balance({W}, cpu);")


def test_priority_flows_to_compiled_rules_and_config():
    compiled = compile_source(
        "priority 7: Worker(a) in ref(Worker(b).friends) "
        "=> colocate(a, b);", [Worker])
    assert compiled.actor_rules[0].priority == 7
    assert compiled.to_config()["rules"][0]["priority"] == 7


def _snap(actor_id, server):
    return ActorSnapshot(
        ref=ActorRef(actor_id=actor_id, type_name="W"), server=server,
        cpu_perc=1.0, cpu_ms_per_min=10.0, mem_mb=1.0, mem_perc=0.1,
        net_bytes_per_min=0.0, net_perc=0.0)


def test_priority_override_beats_behavior_default():
    sim = Simulator()
    a = Server(sim, instance_type("m5.large"), 1, name="a")
    b = Server(sim, instance_type("m5.large"), 2, name="b")
    c = Server(sim, instance_type("m5.large"), 3, name="c")
    # A colocate with programmer priority 99 must beat a default balance
    # (priority 40) for the same actor.
    colocate = Action(kind="colocate", actor=_snap(1, a), src=a, dst=b,
                      priority_override=99)
    balance = Action(kind="balance", actor=_snap(1, a), src=a, dst=c)
    final = resolve_actions([colocate], [balance])
    assert len(final) == 1
    assert final[0].kind == "colocate"
    assert final[0].priority == 99
