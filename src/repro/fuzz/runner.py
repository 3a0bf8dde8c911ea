"""Scenario interpreter: build, run, and check one fuzz scenario.

``run_scenario`` is the deterministic bridge between a :class:`Scenario`
and a verdict: it stands up the cluster, deploys the scenario's app
topology, compiles its EPL policy, starts the elasticity manager with
the :class:`~repro.check.InvariantChecker` attached, injects the fault
plan, drives the workload, and reports every invariant violation (or
crash) found.

Determinism contract: two calls with an equal scenario produce identical
runs.  The process-global id counters (actor/server/message) are reset
at the start of every run — the same trick the golden-trace equivalence
tests use — so replayed corpus artifacts reproduce bit-for-bit even
after other simulations ran in the same process.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..actors import Client, Overloaded
from ..bench import TestBed, build_cluster
from ..chaos import ChaosEngine, FaultPlan, fault_from_dict
from ..check import InvariantChecker, Violation
from ..cluster import AvailabilityMeter
from ..core import ElasticityManager, EmrConfig, compile_source
from ..core.tracing import ElasticityTracer
from ..durability import DurabilityConfig
from ..overload import OverloadConfig
from ..sim import Timeout, spawn
from .scenario import Scenario

__all__ = ["FuzzResult", "run_scenario", "actor_classes_for"]


@dataclass
class FuzzResult:
    """Verdict of one scenario run."""

    scenario: Scenario
    violations: List[Violation] = field(default_factory=list)
    #: Traceback text when the run itself crashed (also a finding).
    error: Optional[str] = None
    migrations: int = 0
    sim_time_ms: float = 0.0
    checks_run: int = 0
    messages_dropped: int = 0
    partition_drops: int = 0
    checkpoints_written: int = 0
    checkpoints_acked: int = 0
    state_restores: int = 0
    messages_shed: int = 0
    requests_rejected: int = 0
    dead_letters: int = 0
    root_failovers: int = 0
    leaf_failovers: int = 0
    #: Full ``DurabilityManager.summary()`` (empty when durability off).
    store_summary: Dict = field(default_factory=dict)
    trace_tail: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def summary(self) -> str:
        if self.ok:
            dropped = (f", {self.messages_dropped} msg(s) dropped"
                       if self.messages_dropped else "")
            shed = (f", {self.messages_shed} shed"
                    if self.messages_shed else "")
            return (f"ok ({self.migrations} migration(s), "
                    f"{self.checks_run} check(s){dropped}{shed})")
        if self.error is not None:
            last = self.error.strip().splitlines()[-1]
            return f"CRASH: {last}"
        head = self.violations[0]
        extra = (f" (+{len(self.violations) - 1} more)"
                 if len(self.violations) > 1 else "")
        return f"VIOLATION: {head}{extra}"


def _reset_id_counters() -> None:
    """Reset process-global id counters for cross-run determinism."""
    from ..actors import message as message_module
    from ..actors import system as system_module
    from ..cluster import server as server_module
    server_module._server_ids = itertools.count(1)
    system_module._actor_ids = itertools.count(1)
    message_module._message_ids = itertools.count(1)


def actor_classes_for(app: str) -> list:
    """The actor program a scenario's EPL policy compiles against."""
    if app == "pagerank":
        from ..apps.pagerank import PageRankWorker
        return [PageRankWorker]
    if app == "estore":
        from ..apps.estore import Partition
        return [Partition]
    if app == "chatroom":
        from ..apps.chatroom import ChatRoom, ChatUser
        return [ChatRoom, ChatUser]
    raise ValueError(f"unknown app {app!r}")


# -- app deployments -------------------------------------------------------

def _deploy_pagerank(bed: TestBed, scenario: Scenario,
                     clients: List[Client]) -> None:
    from ..apps.pagerank import EXCHANGE_GRACE_MS, build_pagerank
    from ..graphs import powerlaw_graph
    params = scenario.app_params
    graph_rng = bed.streams.stream("fuzz-graph")
    graph = powerlaw_graph(params.get("nodes", 80),
                           params.get("edges_per_node", 3), graph_rng)
    partitions = params.get("partitions", 6)
    placement = [0] * partitions if params.get("pack") else None
    deployment = build_pagerank(
        bed, graph, partitions, placement=placement,
        alpha_ms=params.get("alpha_ms", 0.5))
    driver = clients[0] if clients else Client(bed.system, name="driver")

    def call_all(function, *args):
        signals = [driver.call(ref, function, *args)
                   for ref in deployment.workers]
        results = []
        for signal in signals:
            value = yield signal
            # Under overload protection a raw call can come back as a
            # shed/rejected NACK; the BSP driver treats that round's
            # contribution as lost (found by the overload fuzz profile:
            # summing an Overloaded NACK crashed the loop).
            results.append(None if isinstance(value, Overloaded)
                           else value)
        return results

    def bsp_loop():
        yield from call_all("load_data")
        while bed.sim.now < scenario.duration_ms:
            dangling = yield from call_all(
                "compute_contribs", deployment.damping)
            yield from call_all("send_updates")
            yield Timeout(bed.sim, EXCHANGE_GRACE_MS)
            total = sum(d for d in dangling if d is not None)
            yield from call_all("apply_update", deployment.damping, total)

    spawn(bed.sim, bsp_loop())


def _deploy_estore(bed: TestBed, scenario: Scenario,
                   clients: List[Client]) -> None:
    from ..apps.estore import build_estore
    params = scenario.app_params
    setup = build_estore(
        bed, num_roots=params.get("roots", 10),
        children_per_root=params.get("children_per_root", 2),
        skew_fraction=params.get("skew_fraction", 0.35),
        num_home_servers=1 if params.get("pack") else None)
    key_rng = bed.streams.stream("fuzz-keys")

    def loop(client: Client):
        while bed.sim.now < scenario.duration_ms:
            root = setup.picker.pick()
            key = key_rng.randrange(10_000)
            if scenario.faults:
                yield from client.reliable_call(root, "read", key)
            else:
                yield from client.timed_call(root, "read", key)
            yield Timeout(bed.sim, scenario.think_ms)

    for client in clients:
        spawn(bed.sim, loop(client))


def _deploy_chatroom(bed: TestBed, scenario: Scenario,
                     clients: List[Client]) -> None:
    from ..apps.chatroom import ChatRoom, ChatUser
    params = scenario.app_params
    rooms = []
    users = []
    pack = params.get("pack", False)
    for index in range(params.get("rooms", 2)):
        server = bed.servers[0 if pack else index % len(bed.servers)]
        room = bed.system.create_actor(ChatRoom, server=server)
        rooms.append(room)
        for _ in range(params.get("users_per_room", 4)):
            users.append((room, bed.system.create_actor(
                ChatUser, room, server=server)))
    message_bytes = params.get("message_bytes", 512)
    pick_rng = bed.streams.stream("fuzz-chat-pick")

    def loop(client: Client):
        room, user = users[pick_rng.randrange(len(users))]
        yield client.call(room, "join", user)
        while bed.sim.now < scenario.duration_ms:
            if scenario.faults:
                yield from client.reliable_call(
                    room, "post", user.actor_id, message_bytes)
            else:
                yield from client.timed_call(
                    room, "post", user.actor_id, message_bytes)
            yield Timeout(bed.sim, scenario.think_ms)

    for client in clients:
        spawn(bed.sim, loop(client))


_DEPLOYERS = {
    "pagerank": _deploy_pagerank,
    "estore": _deploy_estore,
    "chatroom": _deploy_chatroom,
}


# -- top level -------------------------------------------------------------

def run_scenario(scenario: Scenario, strict: bool = False,
                 with_trace: bool = False) -> FuzzResult:
    """Execute one scenario under the invariant checker.

    Never raises for in-run failures (unless ``strict``): crashes are
    captured in :attr:`FuzzResult.error` so the shrinker can minimize
    crashing scenarios exactly like violating ones.
    """
    _reset_id_counters()
    result = FuzzResult(scenario=scenario)
    try:
        bed = build_cluster(scenario.servers,
                            instance_type=scenario.instance_type,
                            seed=scenario.seed,
                            boot_delay_ms=scenario.boot_delay_ms)
        if scenario.directory_shards is not None:
            # Swap in the sharded directory before any actor exists, so
            # every record of the run lives under ring ownership.
            from ..actors import ShardedDirectory
            bed.system.directory = ShardedDirectory(
                shards=scenario.directory_shards,
                virtual_nodes=scenario.directory_virtual_nodes)
        policy = compile_source(scenario.policy_source(),
                                actor_classes_for(scenario.app))
        jitter_frac = 0.0
        overload_config = None
        if scenario.overload is not None:
            overload_kwargs = dict(scenario.overload)
            # client_jitter_frac is a runner-level knob (it configures
            # the Clients, not the OverloadConfig).
            jitter_frac = overload_kwargs.pop("client_jitter_frac", 0.0)
            overload_config = OverloadConfig(**overload_kwargs)
        config = EmrConfig(
            period_ms=scenario.period_ms,
            stability_ms=scenario.stability_ms,
            gem_count=scenario.gem_count,
            gem_wait_ms=scenario.gem_wait_ms,
            lem_stagger_ms=scenario.lem_stagger_ms,
            max_moves_per_server=scenario.max_moves_per_server,
            allow_scale_out=scenario.allow_scale_out,
            allow_scale_in=scenario.allow_scale_in,
            min_servers=scenario.min_servers,
            suspicion_timeout_ms=scenario.suspicion_timeout_ms,
            durability=(DurabilityConfig(**scenario.durability)
                        if scenario.durability is not None else None),
            overload=overload_config,
            server_group_size=scenario.server_group_size)
        manager = ElasticityManager(bed.system, policy, config)
        tracer = None
        if with_trace:
            tracer = ElasticityTracer(manager)
            tracer.attach()
        meter = AvailabilityMeter(bed.sim,
                                  window_ms=scenario.period_ms)
        checker = InvariantChecker(manager, meters=[meter],
                                   tracer=tracer, strict=strict)
        checker.attach()

        clients = [
            Client(bed.system, name=f"fuzz-client{i}",
                   timeout_ms=2_000.0 if scenario.faults else None,
                   max_retries=3, backoff_base_ms=100.0,
                   backoff_cap_ms=2_000.0, meter=meter,
                   jitter_frac=jitter_frac)
            for i in range(scenario.clients)]
        _DEPLOYERS[scenario.app](bed, scenario, clients)

        manager.start()
        if scenario.faults:
            plan = FaultPlan(faults=tuple(
                fault_from_dict(f) for f in scenario.faults))
            ChaosEngine(bed.system, plan, manager=manager).start()

        bed.run(until_ms=scenario.duration_ms)
        checker.final_check()
        result.violations = list(checker.violations)
        result.migrations = len(manager.migration_log)
        result.sim_time_ms = bed.sim.now
        result.checks_run = checker.checks_run
        result.messages_dropped = bed.system.fabric.messages_dropped
        result.partition_drops = bed.system.fabric.partition_drops
        if manager.durability is not None:
            result.store_summary = manager.durability.summary()
            totals = result.store_summary["totals"]
            result.checkpoints_written = totals["checkpoints_written"]
            result.checkpoints_acked = totals["checkpoints_acked"]
            result.state_restores = totals["restores"]
        if manager.overload is not None:
            result.messages_shed = manager.overload.total_shed()
            result.requests_rejected = \
                manager.overload.counts["rejected"]
        result.dead_letters = sum(client.dead_letters_total
                                  for client in clients)
        result.root_failovers = manager.root_failovers
        result.leaf_failovers = manager.leaf_failovers
        if tracer is not None and not result.ok:
            result.trace_tail = [str(event) for event in tracer.tail(20)]
    except Exception:
        if strict:
            raise
        result.error = traceback.format_exc()
    return result
