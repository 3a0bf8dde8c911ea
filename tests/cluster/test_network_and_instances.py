"""Unit tests for the network fabric and the instance-type catalog."""

import random

import pytest

from repro.cluster import (INSTANCE_TYPES, NetworkFabric, Server,
                           instance_type)
from repro.sim import Simulator


def test_catalog_contains_paper_types():
    for name in ("m1.small", "m1.medium", "m5.large"):
        itype = instance_type(name)
        assert itype.vcpus >= 1
        assert itype.memory_mb > 0


def test_unknown_type_raises_with_suggestions():
    with pytest.raises(KeyError) as excinfo:
        instance_type("t2.nano")
    assert "m5.large" in str(excinfo.value)


def test_relative_capacities_match_paper():
    small = instance_type("m1.small")
    medium = instance_type("m1.medium")
    large = instance_type("m5.large")
    assert small.cpu_capacity_ms_per_ms() < medium.cpu_capacity_ms_per_ms()
    assert large.vcpus == 2
    assert large.net_mbps == 10_000.0


def test_local_delivery_is_cheap_and_unmetered():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    server = Server(sim, instance_type("m5.large"), 1)
    delay = fabric.delivery_delay(server, server, 1_000_000.0)
    assert delay == fabric.local_latency_ms
    assert server.net_meter.lifetime_total == 0.0


def test_remote_delivery_pays_rtt_and_serialization():
    sim = Simulator()
    fabric = NetworkFabric(sim, remote_rtt_ms=2.0)
    a = Server(sim, instance_type("m5.large"), 1)
    b = Server(sim, instance_type("m5.large"), 2)
    size = 1_250_000.0  # 1 ms at 10 Gbps
    delay = fabric.delivery_delay(a, b, size)
    assert delay == pytest.approx(1.0 + 1.0)  # rtt/2 + serialization
    assert a.net_meter.lifetime_total == size
    assert b.net_meter.lifetime_total == size


def test_remote_delivery_limited_by_slower_nic():
    sim = Simulator()
    fabric = NetworkFabric(sim, remote_rtt_ms=0.0)
    fast = Server(sim, instance_type("m5.large"), 1)
    slow = Server(sim, instance_type("m1.small"), 2)
    size = slow.itype.net_bytes_per_ms() * 10.0
    assert fabric.delivery_delay(fast, slow, size) == pytest.approx(10.0)


def test_client_delivery_charges_only_the_server():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    server = Server(sim, instance_type("m5.large"), 1)
    fabric.delivery_delay(None, server, 1_000.0)
    assert server.net_meter.lifetime_total == 1_000.0


def test_bulk_transfer_pays_full_rtt():
    sim = Simulator()
    fabric = NetworkFabric(sim, remote_rtt_ms=2.0)
    a = Server(sim, instance_type("m5.large"), 1)
    b = Server(sim, instance_type("m5.large"), 2)
    size = 1_250_000.0
    assert fabric.transfer_delay(a, b, size) == pytest.approx(2.0 + 1.0)
    assert fabric.transfer_delay(a, a, size) == fabric.local_latency_ms


# -- partitions --------------------------------------------------------


def _three_servers():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    servers = [Server(sim, instance_type("m5.large"), i) for i in (1, 2, 3)]
    return fabric, servers


def test_symmetric_partition_severs_both_directions():
    fabric, (a, b, c) = _three_servers()
    token = fabric.partition({a.server_id})
    assert fabric.partitioned
    assert fabric.link_blocked(a, b) and fabric.link_blocked(b, a)
    assert fabric.drop_message(a, b) and fabric.drop_message(b, a)
    # Links within a side keep working.
    assert not fabric.link_blocked(b, c)
    assert not fabric.drop_message(b, c)
    fabric.heal_partition(token)
    assert not fabric.partitioned
    assert not fabric.link_blocked(a, b)
    assert not fabric.drop_message(a, b)


def test_asymmetric_partition_severs_group_outward_only():
    fabric, (a, b, _c) = _three_servers()
    fabric.partition({a.server_id}, symmetric=False)
    assert fabric.link_blocked(a, b)
    assert not fabric.link_blocked(b, a)
    assert fabric.drop_message(a, b)
    assert not fabric.drop_message(b, a)


def test_clients_are_never_partitioned():
    fabric, (a, _b, _c) = _three_servers()
    fabric.partition({a.server_id})
    assert not fabric.drop_message(None, a)
    assert not fabric.drop_message(a, None)


def test_partition_drop_counters_track_links():
    fabric, (a, b, c) = _three_servers()
    fabric.partition({a.server_id})
    fabric.drop_message(a, b)
    fabric.drop_message(a, b)
    fabric.drop_message(a, c)
    assert fabric.messages_dropped == 3
    assert fabric.partition_drops == 3
    assert fabric.drops_by_link == {(a.name, b.name): 2,
                                    (a.name, c.name): 1}


def test_full_loss_partition_consumes_no_rng():
    fabric, (a, b, _c) = _three_servers()
    fabric.partition({a.server_id})  # no rng passed, none needed
    assert fabric.drop_message(a, b)


def test_lossy_partition_requires_rng_and_does_not_block_links():
    fabric, (a, b, _c) = _three_servers()
    with pytest.raises(ValueError, match="requires an rng"):
        fabric.partition({a.server_id}, loss=0.5)
    fabric.partition({a.server_id}, loss=0.5, rng=random.Random(1))
    # A lossy cut never *blocks* a link — messages may get through.
    assert not fabric.link_blocked(a, b)
    outcomes = {fabric.drop_message(a, b) for _ in range(200)}
    assert outcomes == {True, False}
    assert fabric.partition_drops > 0


@pytest.mark.parametrize("loss", [0.0, -0.1, 1.5])
def test_partition_rejects_bad_loss(loss):
    fabric, (a, _b, _c) = _three_servers()
    with pytest.raises(ValueError):
        fabric.partition({a.server_id}, loss=loss,
                         rng=random.Random(1))


def test_partition_rejects_empty_group():
    fabric, _servers = _three_servers()
    with pytest.raises(ValueError, match="non-empty"):
        fabric.partition(set())


def test_overlapping_degradations_compose():
    fabric, (a, b, _c) = _three_servers()
    t1 = fabric.degrade(latency_multiplier=2.0)
    t2 = fabric.degrade(latency_multiplier=4.0)
    assert fabric.latency_multiplier == 4.0
    fabric.heal(t2)
    assert fabric.latency_multiplier == 2.0
    fabric.heal(t1)
    assert fabric.latency_multiplier == 1.0
    rng = random.Random(7)
    fabric.degrade(drop_probability=0.5, rng=rng)
    fabric.degrade(drop_probability=0.5, rng=rng)
    assert fabric.drop_probability == pytest.approx(0.75)
    fabric.heal()  # no token: lift everything
    assert not fabric.degraded
    assert not fabric.drop_message(a, b)


def test_degradation_and_partition_compose():
    fabric, (a, b, c) = _three_servers()
    rng = random.Random(3)
    fabric.degrade(drop_probability=1.0, rng=rng)
    token = fabric.partition({a.server_id})
    # The cut drops cross-link traffic, the degradation everything else.
    assert fabric.drop_message(a, b)
    assert fabric.partition_drops == 1
    assert fabric.drop_message(b, c)
    assert fabric.messages_dropped == 2
    fabric.heal_partition(token)
    assert fabric.drop_message(a, b)  # degradation still active
    assert fabric.partition_drops == 1
