"""Seeded random scenario generation.

``generate_scenario(seed)`` derives every choice from one
``random.Random(seed)`` stream, so the mapping seed → scenario is a pure
function: the fuzzer only ever needs to store seeds (fresh exploration)
or full scenarios (shrunk corpus artifacts).

Rules are composed from per-app template families covering the whole EPL
behavior grammar — balance, reserve (with client-call interaction
features), ref-join colocate/separate where the app's schema has
annotated reference properties, and pin — with randomized thresholds,
resources, and optional explicit ``priority N:`` overrides.  Every
template is kept *schema-valid* for its app so generated policies always
compile; the compiler's negative paths are covered separately by the
diagnostics tests, not by the fuzzer.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from .scenario import Scenario

__all__ = ["generate_scenario", "rule_pool_for"]

_RESOURCES = ("cpu", "mem", "net")
_INSTANCE_TYPES = ("m1.small", "m1.medium", "m5.large")


def _band(rng: random.Random) -> tuple:
    """A (high, low) threshold pair with high > low.

    Thresholds sit deliberately low: fuzz clusters are small and their
    packed-placement CPU plateaus around 30–60%, so paper-style 80/60
    bands would leave the balance machinery idle in most runs.
    """
    low = rng.choice((15, 25, 35, 45))
    high = low + rng.choice((5, 10, 20))
    return high, low


def _prio(rng: random.Random) -> str:
    """Sometimes prefix an explicit priority override."""
    if rng.random() < 0.25:
        return f"priority {rng.randrange(0, 100)}: "
    return ""


# -- per-app rule template families ---------------------------------------
# Each template takes the rng and returns one EPL rule string.

def _balance(type_name: str) -> Callable[[random.Random], str]:
    def make(rng: random.Random) -> str:
        res = rng.choice(_RESOURCES)
        high, low = _band(rng)
        if rng.random() < 0.5:
            cond = (f"server.{res}.perc > {high} "
                    f"or server.{res}.perc < {low}")
        else:
            cond = f"server.{res}.perc > {high}"
        return f"{_prio(rng)}{cond} => balance({{{type_name}}}, {res});"
    return make


def _reserve(type_name: str, method: str) -> Callable[[random.Random], str]:
    def make(rng: random.Random) -> str:
        high, _low = _band(rng)
        share = rng.choice((5, 10, 20))
        res = rng.choice(("cpu", "mem"))
        return (f"{_prio(rng)}server.cpu.perc > {high} and "
                f"client.call({type_name}(v).{method}).perc > {share} "
                f"=> reserve(v, {res});")
    return make


def _ref_join(owner: str, prop: str, member: str,
              behavior: str) -> Callable[[random.Random], str]:
    def make(rng: random.Random) -> str:
        return (f"{_prio(rng)}{member}(m) in ref({owner}(o).{prop}) "
                f"=> {behavior}(o, m);")
    return make


def _pin(type_name: str) -> Callable[[random.Random], str]:
    def make(rng: random.Random) -> str:
        return f"{_prio(rng)}true => pin({type_name}(p));"
    return make


_RULE_POOLS: Dict[str, List[Callable[[random.Random], str]]] = {
    "pagerank": [
        _balance("PageRankWorker"),
        _reserve("PageRankWorker", "compute_contribs"),
        _pin("PageRankWorker"),
    ],
    "estore": [
        _balance("Partition"),
        _reserve("Partition", "read"),
        _ref_join("Partition", "children", "Partition", "colocate"),
        _ref_join("Partition", "children", "Partition", "separate"),
        _pin("Partition"),
    ],
    "chatroom": [
        _balance("ChatUser"),
        _balance("ChatRoom"),
        _reserve("ChatRoom", "post"),
        _ref_join("ChatRoom", "members", "ChatUser", "colocate"),
        _pin("ChatRoom"),
    ],
}


def rule_pool_for(app: str) -> List[Callable[[random.Random], str]]:
    """The rule template family for one app (exposed for tests)."""
    return list(_RULE_POOLS[app])


# -- faults ----------------------------------------------------------------

def _gen_partition(rng: random.Random,
                   scenario: Dict[str, Any]) -> Dict[str, Any]:
    """One random partition-network fault for the scenario's fleet."""
    duration = scenario["duration_ms"]
    servers = scenario["servers"]
    group_size = rng.randrange(1, servers) if servers > 1 else 1
    group = tuple(sorted(rng.sample(range(servers), group_size)))
    fault: Dict[str, Any] = {
        "fault": "partition-network",
        "at_ms": round(rng.uniform(0.15, 0.6) * duration, 1),
        "duration_ms": round(rng.uniform(0.15, 0.4) * duration, 1),
        "group": group,
        "symmetric": rng.random() < 0.75}
    if scenario["gem_count"] > 1 and rng.random() < 0.5:
        fault["gems"] = (rng.randrange(scenario["gem_count"]),)
    if rng.random() < 0.25:
        # A lossy (rather than absolute) cut.
        fault["loss"] = round(rng.uniform(0.5, 0.95), 2)
    return fault


def _gen_faults(rng: random.Random, scenario: Dict[str, Any],
                profile: str = "default") -> List[dict]:
    if profile == "partition":
        # Partition-focused campaigns always inject at least one cut,
        # optionally stacked with one fault from the regular pool.
        faults = [_gen_partition(rng, scenario)]
        if rng.random() < 0.4:
            faults.extend(_gen_faults(rng, scenario))
        return faults
    if profile == "durability":
        # Durability campaigns always crash a server mid-run — the one
        # event that makes checkpoint-restore observable — landing with
        # 60% odds inside the checkpoint/transfer window of an active
        # run, optionally stacked with a partition (minority-replica
        # restores) or regular faults.
        duration = scenario["duration_ms"]
        crash: Dict[str, Any] = {
            "fault": "crash-server",
            "at_ms": round(rng.uniform(0.25, 0.7) * duration, 1),
            "server_index": rng.randrange(scenario["servers"])}
        if rng.random() < 0.6:
            crash["replace_after_ms"] = round(
                rng.uniform(0.05, 0.3) * duration, 1)
        faults = [crash]
        if rng.random() < 0.3:
            faults.append(_gen_partition(rng, scenario))
        if rng.random() < 0.3:
            faults.extend(_gen_faults(rng, scenario))
        return faults
    if profile == "overload":
        # Overload campaigns always inject at least one load storm, so
        # mailbox bounds, admission control, and the disposition ledger
        # are under pressure on every seed; optionally stacked with a
        # second storm or faults from the regular pool (a storm during a
        # partition or crash is where accounting bugs hide).
        faults = [_gen_storm(rng, scenario)]
        if rng.random() < 0.3:
            faults.append(_gen_storm(rng, scenario))
        if rng.random() < 0.3:
            faults.extend(_gen_faults(rng, scenario))
        return faults
    if profile == "scale-chaos":
        # Control-plane chaos on the hierarchical topology: every seed
        # kills at least one tier of the GEM tree (root, a leaf, or a
        # server) so failover, group adoption and view rebuilding are
        # exercised on every run.  Same branch confinement as the other
        # profiles.
        duration = scenario["duration_ms"]
        leaf_pool = (-(-scenario["servers"] //
                       scenario["server_group_size"])
                     * scenario["gem_count"])
        faults = []
        for _ in range(rng.choice((1, 2))):
            kind = rng.choice(("kill-root", "kill-gem",
                               "crash-server", "partition-network"))
            at = round(rng.uniform(0.15, 0.6) * duration, 1)
            if kind == "kill-root":
                fault: Dict[str, Any] = {"fault": kind, "at_ms": at}
                if rng.random() < 0.5:
                    fault["recover_after_ms"] = round(
                        rng.uniform(0.1, 0.4) * duration, 1)
                faults.append(fault)
            elif kind == "kill-gem":
                fault = {"fault": kind, "at_ms": at,
                         "gem_id": rng.randrange(leaf_pool)}
                if rng.random() < 0.6:
                    fault["recover_after_ms"] = round(
                        rng.uniform(0.1, 0.4) * duration, 1)
                faults.append(fault)
            elif kind == "crash-server":
                fault = {"fault": kind, "at_ms": at,
                         "server_index":
                             rng.randrange(scenario["servers"])}
                if rng.random() < 0.5:
                    fault["replace_after_ms"] = round(
                        rng.uniform(0.05, 0.3) * duration, 1)
                faults.append(fault)
            else:
                faults.append(_gen_partition(rng, scenario))
        return faults
    if rng.random() < 0.5:
        return []
    duration = scenario["duration_ms"]
    servers = scenario["servers"]
    faults: List[dict] = []
    for _ in range(rng.choice((1, 1, 2))):
        at = round(rng.uniform(0.15, 0.7) * duration, 1)
        kind = rng.choice(("crash-server", "slow-server",
                           "degrade-network", "kill-gem"))
        if kind == "crash-server" and servers > 1:
            fault = {"fault": kind, "at_ms": at,
                     "server_index": rng.randrange(servers)}
            if rng.random() < 0.5:
                fault["replace_after_ms"] = round(
                    rng.uniform(0.05, 0.3) * duration, 1)
            faults.append(fault)
        elif kind == "slow-server":
            faults.append({
                "fault": kind, "at_ms": at,
                "duration_ms": round(rng.uniform(0.1, 0.4) * duration, 1),
                "server_index": rng.randrange(servers),
                "speed_factor": round(rng.uniform(0.25, 0.75), 2)})
        elif kind == "degrade-network":
            faults.append({
                "fault": kind, "at_ms": at,
                "duration_ms": round(rng.uniform(0.1, 0.4) * duration, 1),
                "latency_multiplier": round(rng.uniform(1.5, 5.0), 1),
                "drop_probability": round(rng.uniform(0.0, 0.2), 2)})
        elif kind == "kill-gem":
            faults.append({
                "fault": kind, "at_ms": at,
                "gem_id": rng.randrange(scenario["gem_count"]),
                "recover_after_ms": round(
                    rng.uniform(0.1, 0.4) * duration, 1)})
    return faults


def _gen_storm(rng: random.Random,
               scenario: Dict[str, Any]) -> Dict[str, Any]:
    """One random load-storm fault (event-storm or hot-key-flood)."""
    duration = scenario["duration_ms"]
    fault: Dict[str, Any] = {
        "at_ms": round(rng.uniform(0.15, 0.5) * duration, 1),
        "duration_ms": round(rng.uniform(0.15, 0.4) * duration, 1),
        "rate_per_ms": rng.choice((0.25, 0.5, 1.0, 2.0)),
        "cpu_ms": rng.choice((0.5, 1.0, 2.0))}
    if rng.random() < 0.7:
        fault["fault"] = "event-storm"
        if rng.random() < 0.4:
            fault["server_index"] = rng.randrange(scenario["servers"])
    else:
        fault["fault"] = "hot-key-flood"
        fault["actor_rank"] = rng.randrange(8)
    return fault


# -- durable state ---------------------------------------------------------

def _gen_durability(rng: random.Random,
                    period_ms: float) -> Dict[str, Any]:
    """A random ``DurabilityConfig`` kwargs dict.

    Intervals are drawn relative to the elasticity period so checkpoints
    interleave with LEM/GEM rounds and migrations rather than straddling
    whole runs.
    """
    config: Dict[str, Any] = {
        "checkpoint_interval_ms": round(
            period_ms * rng.choice((0.25, 0.5, 1.0)), 1),
        "replication_factor": rng.choice((1, 2)),
        "serialize_cpu_ms": rng.choice((0.0, 0.2, 1.0)),
    }
    if rng.random() < 0.5:
        config["dirty_message_threshold"] = rng.choice((25, 50, 100))
    if rng.random() < 0.25:
        config["snapshot_fraction"] = rng.choice((0.25, 0.5))
    if rng.random() < 0.25:
        config["ship_transfer_checkpoint"] = False
    return config


# -- overload protection ---------------------------------------------------

def _gen_overload(rng: random.Random) -> Dict[str, Any]:
    """A random enabled ``OverloadConfig`` kwargs dict (plus the
    runner-level ``client_jitter_frac`` key).

    Capacities sit deliberately low so fuzz-sized storms actually fill
    mailboxes; brownout watermarks sit low for the same reason the rule
    thresholds do (small fleets plateau well under paper-scale load).
    """
    capacity = rng.choice((8, 16, 32, 64))
    config: Dict[str, Any] = {
        "mailbox_capacity": capacity,
        "policy": rng.choice(("shed", "shed", "block", "deadline")),
    }
    if config["policy"] == "block":
        config["block_retry_ms"] = rng.choice((0.25, 0.5, 1.0))
    if rng.random() < 0.5:
        config["admission_queue_depth"] = max(2, capacity // 2)
    if rng.random() < 0.3:
        config["admission_cpu_perc"] = rng.choice((85.0, 95.0))
    enter = rng.choice((50.0, 70.0, 90.0))
    config["brownout_enter_cpu_perc"] = enter
    config["brownout_exit_cpu_perc"] = enter - rng.choice((20.0, 30.0))
    config["brownout_enter_rounds"] = rng.choice((1, 2))
    config["brownout_exit_rounds"] = rng.choice((1, 2))
    config["brownout_stretch"] = rng.choice((2, 3))
    config["brownout_top_k"] = rng.choice((4, 8))
    if rng.random() < 0.5:
        config["client_jitter_frac"] = rng.choice((0.1, 0.25, 0.5))
    return config


# -- app topology parameters ----------------------------------------------

def _gen_app_params(rng: random.Random, app: str) -> Dict[str, Any]:
    # "pack" deploys the whole topology onto the first server, the
    # skewed starting point that makes balance/reserve rules actually
    # fire (a perfectly even initial spread leaves nothing to migrate).
    pack = rng.random() < 0.5
    if app == "pagerank":
        return {"nodes": rng.randrange(40, 121),
                "edges_per_node": rng.choice((2, 3, 4)),
                "partitions": rng.randrange(4, 9),
                "alpha_ms": round(rng.uniform(0.2, 0.8), 2),
                "pack": pack}
    if app == "estore":
        return {"roots": rng.randrange(6, 17),
                "children_per_root": rng.randrange(1, 4),
                "skew_fraction": round(rng.uniform(0.2, 0.6), 2),
                "pack": pack}
    return {"rooms": rng.randrange(1, 4),
            "users_per_room": rng.randrange(3, 9),
            "message_bytes": rng.choice((128, 512, 2048)),
            "pack": pack}


# -- top level -------------------------------------------------------------

def generate_scenario(seed: int, profile: str = "default") -> Scenario:
    """Pure function (seed, profile) → scenario.

    ``profile`` selects a generator emphasis without touching the
    default mapping (existing seeds keep reproducing bit-identically):

    - ``"default"``: the full mixed input space.
    - ``"partition"``: every scenario gets at least one
      ``partition-network`` fault and at least three servers, so a cut
      always leaves both a majority and a minority side to exercise
      the epoch/quorum machinery.
    - ``"durability"``: every scenario runs with checkpointing enabled
      (random interval/replication), at least three servers (so replica
      placement has real choices), suspicion always armed (crashed
      actors actually resurrect), and at least one mid-run
      ``crash-server`` fault to force checkpoint-restore.
    - ``"overload"``: every scenario runs with overload protection
      enabled (bounded mailboxes with a random policy, sometimes
      admission control, brownout armed) and at least one load storm
      (``event-storm`` / ``hot-key-flood``), so shedding, backpressure,
      and the disposition ledger are exercised on every seed.
    - ``"scale"``: every scenario runs the hierarchical control plane
      with a randomized group topology (fleet large enough for several
      groups), so the GEM tree and root arbitration are exercised on
      every seed.
    - ``"scale-chaos"``: the ``scale`` topology (same draws — a seed's
      cluster shape is identical across the two profiles) plus
      control-plane chaos: every scenario injects at least one
      root/leaf/server kill or partition, with suspicion always armed
      so failover and adoption actually trigger.
    """
    if profile not in ("default", "partition", "durability", "overload",
                       "scale", "scale-chaos"):
        raise ValueError(f"unknown generator profile {profile!r}")
    rng = random.Random(seed)
    app = rng.choice(("pagerank", "estore", "chatroom"))
    servers = (rng.randrange(3, 6)
               if profile in ("partition", "durability")
               else rng.randrange(2, 5))
    period_ms = float(rng.choice((2_000, 3_000, 5_000)))
    duration_ms = period_ms * rng.randrange(3, 7)
    stability_choice = rng.random()
    if stability_choice < 0.5:
        stability_ms = None                      # one period (default)
    elif stability_choice < 0.8:
        stability_ms = period_ms * rng.choice((2, 3))
    else:
        stability_ms = period_ms * 0.5           # shorter than a period
    gem_count = 1 if rng.random() < 0.7 else 2

    pool = _RULE_POOLS[app]
    rule_count = rng.randrange(1, min(4, len(pool)) + 1)
    templates = rng.sample(pool, rule_count)
    rules = tuple(template(rng) for template in templates)

    allow_scale = rng.random() < 0.25
    fields: Dict[str, Any] = dict(
        seed=seed, app=app, servers=servers,
        instance_type=rng.choice(_INSTANCE_TYPES),
        boot_delay_ms=float(rng.choice((500, 1_000, 2_000))),
        duration_ms=duration_ms, rules=rules, period_ms=period_ms,
        stability_ms=stability_ms, gem_count=gem_count,
        gem_wait_ms=float(rng.choice((200, 300, 500))),
        lem_stagger_ms=float(rng.choice((5, 10, 25))),
        max_moves_per_server=rng.choice((1, 2, 3)),
        allow_scale_out=allow_scale,
        allow_scale_in=allow_scale and rng.random() < 0.5,
        min_servers=1,
        suspicion_timeout_ms=(period_ms + 1_000.0
                              if rng.random() < 0.5 else None),
        clients=rng.randrange(4, 13),
        think_ms=float(rng.choice((2, 5, 10, 20))),
        app_params=_gen_app_params(rng, app),
    )
    if profile == "durability":
        # Without suspicion nothing ever resurrects, and without
        # resurrection a checkpoint is never read back.  The extra RNG
        # draws live only on this branch, so the default and partition
        # seed mappings stay bit-identical.
        if fields["suspicion_timeout_ms"] is None:
            fields["suspicion_timeout_ms"] = period_ms + 1_000.0
        fields["durability"] = _gen_durability(rng, period_ms)
    if profile == "overload":
        # Same branch-confinement rule as durability: the extra draws
        # only happen for overload campaigns, so every other profile's
        # seed mapping stays bit-identical.
        fields["overload"] = _gen_overload(rng)
    if profile in ("scale", "scale-chaos"):
        # Same branch-confinement rule again.  The fleet is regrown to
        # several groups' worth of servers (the small draw above is
        # overridden; fault server indices are drawn later, against the
        # final count) and the whole cluster-scale machinery is armed.
        # scale-chaos shares these draws exactly, so a seed's topology
        # is identical across the two profiles — only the fault plan
        # (drawn last) and the no-draw suspicion override differ.
        fields["servers"] = rng.randrange(6, 13)
        fields["server_group_size"] = rng.choice((2, 3, 4))
        # Two discarded draws, once the shape of a hash-ring directory
        # that no longer exists: they keep each seed's mapping stable.
        rng.choice((2, 3, 5))
        rng.choice((8, 16))
    if profile == "scale-chaos" and fields["suspicion_timeout_ms"] is None:
        # No RNG draw: without suspicion a killed leaf is never
        # detected, so promotion/adoption would never run.
        fields["suspicion_timeout_ms"] = period_ms + 1_000.0
    fields["faults"] = tuple(_gen_faults(rng, fields, profile))
    return Scenario(**fields)
