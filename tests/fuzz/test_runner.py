"""Scenario runner: determinism and checker integration."""

import pytest

from repro.fuzz import Scenario, run_scenario

BALANCE = ("server.cpu.perc > 15 or server.cpu.perc < 10 "
           "=> balance({Partition}, cpu);")


def small_scenario(**overrides):
    base = dict(
        seed=5, app="estore", servers=2, instance_type="m1.small",
        duration_ms=8_000.0, period_ms=2_000.0, gem_wait_ms=200.0,
        rules=(BALANCE,), clients=4, think_ms=5.0,
        app_params={"roots": 2, "children_per_root": 1,
                    "skew_fraction": 0.1, "pack": True})
    base.update(overrides)
    return Scenario(**base)


def test_healthy_run_is_clean():
    result = run_scenario(small_scenario())
    assert result.ok, result.summary()
    assert result.checks_run > 0
    assert result.sim_time_ms >= 8_000.0


def test_same_scenario_same_outcome():
    """Bit-for-bit replayability is what makes shrunk artifacts useful:
    the same scenario must produce the same migrations, checks, and
    violations every time."""
    first = run_scenario(small_scenario())
    second = run_scenario(small_scenario())
    assert first.migrations == second.migrations
    assert first.checks_run == second.checks_run
    assert [str(v) for v in first.violations] == \
        [str(v) for v in second.violations]
    assert first.sim_time_ms == second.sim_time_ms


def test_packed_small_cluster_migrates():
    """The packed topology plus a low balance band must produce
    migrations — otherwise the fuzzer exercises nothing."""
    result = run_scenario(small_scenario())
    assert result.migrations > 0


def test_faulty_run_records_faults():
    scenario = small_scenario(
        seed=6,
        faults=({"fault": "crash-server", "at_ms": 4_000.0,
                 "server_index": 1},),
        suspicion_timeout_ms=3_000.0)
    result = run_scenario(scenario)
    assert result.error is None, result.error
    assert not result.violations, "\n".join(
        str(v) for v in result.violations)


@pytest.mark.parametrize("app, params, pin_type", [
    ("pagerank", {"partitions": 4, "nodes": 40, "edges_per_node": 3,
                  "pack": True}, "PageRankWorker"),
    ("chatroom", {"rooms": 2, "users_per_room": 2, "message_bytes": 64,
                  "pack": True}, "ChatRoom"),
])
def test_all_apps_run(app, params, pin_type):
    scenario = small_scenario(
        seed=7, app=app, app_params=params,
        rules=(f"true => pin({pin_type}(x));",))
    result = run_scenario(scenario)
    assert result.error is None, f"{app}: {result.error}"
    assert not result.violations, f"{app}: {result.violations[0]}"


def test_strict_mode_clean_run_does_not_raise():
    result = run_scenario(small_scenario(), strict=True)
    assert result.ok


def test_partitioned_run_counts_fabric_drops():
    # PageRank spread over the fleet gossips across servers, so the cut
    # actually eats traffic (a packed app would dodge the fabric).
    scenario = small_scenario(
        seed=8, servers=3, app="pagerank", rules=(),
        app_params={"partitions": 6, "nodes": 60, "edges_per_node": 3,
                    "pack": False},
        duration_ms=10_000.0,
        faults=({"fault": "partition-network", "at_ms": 2_000.0,
                 "duration_ms": 3_000.0, "group": (0,)},),
        suspicion_timeout_ms=3_000.0)
    result = run_scenario(scenario)
    assert result.ok, result.summary()
    assert result.partition_drops > 0
    assert result.messages_dropped >= result.partition_drops
    assert "dropped" in result.summary()


def test_partition_campaign_is_violation_free():
    """Acceptance sweep: a fixed block of partition-profile seeds (every
    scenario contains a network cut) must run to completion with zero
    invariant violations.  Any failure here is replayable by seed."""
    from repro.fuzz import generate_scenario

    for seed in range(12):
        scenario = generate_scenario(seed, profile="partition")
        result = run_scenario(scenario)
        assert result.error is None, f"seed {seed}: {result.error}"
        assert not result.violations, \
            f"seed {seed}: {result.violations[0]}"
