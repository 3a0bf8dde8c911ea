"""Cluster-scale control-plane benchmark: sub-linear root decisions.

The hierarchical control plane's scaling claim is that the root tier
never touches per-actor (or even per-server) state: it consumes one
delta-compressed aggregate per server group, so with groups sized
~sqrt(fleet) its per-round decision cost grows like sqrt(S) while the
fleet grows like S.  This benchmark builds a synthetic fleet at two
sizes (500 and 5,000 servers; ~1M synthetic actors at the large size),
folds each group's actors through the real ``build_aggregate`` path,
and times ``RootGem.arbitrate`` over the folded views.

Gated metric: ``root_decision_scaling_ratio`` — the root's cost growth
divided by the fleet's size growth.  Sub-linearity means < 1; we assert
< 0.9 with a wide margin (sqrt scaling predicts ~0.3), and the recorded
ratio is regression-checked at 20% by CI's perf gate.

``SCALE_SMOKE=1`` trims the fleet to 100/500 servers for CI.
"""

import math
import os
from types import SimpleNamespace

from repro.actors.refs import ActorRef
from repro.bench import record_metrics, time_ops
from repro.core import EmrConfig
from repro.core.emr.hierarchy import (GROUP_TOP_K, RootGem,
                                      build_aggregate)
from repro.core.profiling import ActorSnapshot, ServerSnapshot

if os.environ.get("SCALE_SMOKE"):
    FLEET_SMALL, FLEET_LARGE = 100, 500
    ACTORS_PER_SERVER = 50
else:
    FLEET_SMALL, FLEET_LARGE = 500, 5_000
    ACTORS_PER_SERVER = 200

ARBITRATE_LOOPS = 500
NOW_MS = 1_000_000.0


class _FakeServer:
    """Just enough server surface for snapshots and arbitration."""

    __slots__ = ("server_id", "name", "running")

    def __init__(self, server_id):
        self.server_id = server_id
        self.name = f"s{server_id}"
        self.running = True


class _FakeGem:
    __slots__ = ("gem_id", "epoch", "overload_fraction",
                 "underload_fraction")

    def __init__(self, gem_id):
        self.gem_id = gem_id
        self.epoch = 0
        self.overload_fraction = 0.0
        self.underload_fraction = 0.0


def _stub_root(config):
    manager = SimpleNamespace(
        config=config, backend=SimpleNamespace(now=NOW_MS))
    return RootGem(manager, hierarchy=None)


def _build_views(num_servers, group_size):
    """Fold a synthetic fleet into per-group root views, one group at a
    time — exactly the real pipeline's memory profile: no global
    per-actor view ever materializes, only bounded aggregates survive.

    Group 0 runs hot and the last group cold, so arbitration has a real
    hot spot to work on (the non-vacuity check relies on it)."""
    num_groups = math.ceil(num_servers / group_size)
    views = {}
    next_actor_id = 1
    total_actors = 0
    for group in range(num_groups):
        lo = group * group_size
        hi = min(lo + group_size, num_servers)
        if group == 0:
            base_cpu = 90.0
        elif group == num_groups - 1:
            base_cpu = 5.0
        else:
            base_cpu = 40.0
        servers = []
        actors_by_server = {}
        for server_id in range(lo + 1, hi + 1):
            server = _FakeServer(server_id)
            cpu = base_cpu + (server_id % 7)
            servers.append(ServerSnapshot(
                server=server, cpu_perc=cpu, mem_perc=30.0, net_perc=10.0,
                actor_count=ACTORS_PER_SERVER, vcpus=4,
                instance_type="m5.large"))
            snaps = []
            for _ in range(ACTORS_PER_SERVER):
                snaps.append(ActorSnapshot(
                    ref=ActorRef(next_actor_id, "Shard"), server=server,
                    cpu_perc=cpu / ACTORS_PER_SERVER
                    + (next_actor_id % 13) * 0.01,
                    cpu_ms_per_min=100.0, mem_mb=2.0, mem_perc=0.1,
                    net_bytes_per_min=1_000.0, net_perc=0.05))
                next_actor_id += 1
            actors_by_server[server_id] = snaps
            total_actors += ACTORS_PER_SERVER
        gem = _FakeGem(gem_id=group)
        aggregate = build_aggregate(group, gem, servers, actors_by_server,
                                    GROUP_TOP_K)
        # What the root actually folds: the first publish's full delta.
        views[group] = aggregate.delta_against(None)
    return views, total_actors


def _bench_fleet(num_servers, config):
    group_size = max(1, round(math.sqrt(num_servers)))
    build_timing = time_ops(
        lambda: _build_views(num_servers, group_size),
        ops=num_servers * ACTORS_PER_SERVER, repeats=1)
    views, total_actors = _build_views(num_servers, group_size)
    root = _stub_root(config)
    actions = root.arbitrate(views)
    assert actions, "arbitration found no hot spot: benchmark is vacuous"

    def decide():
        for _ in range(ARBITRATE_LOOPS):
            root.arbitrate(views)

    decide_timing = time_ops(decide, ops=ARBITRATE_LOOPS, repeats=3)
    return {
        "groups": len(views),
        "group_size": group_size,
        "actors": total_actors,
        "aggregate_us_per_actor": build_timing.ms_per_op * 1000.0,
        "decide_us": decide_timing.ms_per_op * 1000.0,
        "moves_planned": len(actions),
    }


def test_root_decision_cost_is_sublinear(report):
    config = EmrConfig(cross_group_band=15.0, max_moves_per_server=3)
    small = _bench_fleet(FLEET_SMALL, config)
    large = _bench_fleet(FLEET_LARGE, config)

    growth = large["decide_us"] / small["decide_us"]
    fleet_growth = FLEET_LARGE / FLEET_SMALL
    scaling_ratio = growth / fleet_growth

    report.add("Cluster-scale control plane: root decision cost")
    report.add(f"{'servers':>10} {'groups':>8} {'actors':>10} "
               f"{'decide us':>10} {'agg us/actor':>13}")
    for label, row in (("small", small), ("large", large)):
        report.add(f"{(FLEET_SMALL if label == 'small' else FLEET_LARGE):>10}"
                   f" {row['groups']:>8} {row['actors']:>10}"
                   f" {row['decide_us']:>10.2f}"
                   f" {row['aggregate_us_per_actor']:>13.3f}")
    report.add(f"cost growth {growth:.2f}x over {fleet_growth:.0f}x fleet "
               f"=> scaling ratio {scaling_ratio:.3f} (sub-linear < 1)")
    report.write("scale_cluster")

    record_metrics("scale_cluster", {
        "servers_small": FLEET_SMALL,
        "servers_large": FLEET_LARGE,
        "actors_large": large["actors"],
        "root_groups_large": large["groups"],
        "root_decide_small_us": small["decide_us"],
        "root_decide_large_us": large["decide_us"],
        "aggregate_us_per_actor": large["aggregate_us_per_actor"],
        "root_decision_scaling_ratio": scaling_ratio,
    })

    # Sub-linearity gate: sqrt-sized groups predict ~sqrt growth
    # (ratio ~0.3); 0.9 leaves shared-runner noise a wide berth while
    # still failing any O(servers) regression in the root tier.
    assert scaling_ratio < 0.9, (
        f"root decision cost grew {growth:.2f}x for a {fleet_growth:.0f}x "
        f"fleet (ratio {scaling_ratio:.3f}): the root tier is no longer "
        f"sub-linear in server count")
    # The large fleet really was cluster-scale.
    assert large["actors"] >= 25_000 if os.environ.get("SCALE_SMOKE") \
        else large["actors"] >= 1_000_000
