"""Unit tests for the server provisioner."""

import pytest

from repro.cluster import Provisioner
from repro.sim import Simulator


def test_immediate_boot_joins_at_once():
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    done = prov.boot_server(immediate=True)
    sim.run()
    assert prov.fleet_size() == 1
    assert done.value is prov.servers[0]


def test_boot_respects_delay():
    sim = Simulator()
    prov = Provisioner(sim, boot_delay_ms=30_000.0)
    prov.boot_server()
    sim.run(until=29_999.0)
    assert prov.fleet_size() == 0
    assert prov.pending_boots() == 1
    sim.run(until=30_001.0)
    assert prov.fleet_size() == 1
    assert prov.pending_boots() == 0


def test_fleet_cap_returns_none():
    sim = Simulator()
    prov = Provisioner(sim, max_servers=2)
    prov.boot_server(immediate=True)
    prov.boot_server(immediate=True)
    sim.run()
    refused = prov.boot_server(immediate=True)
    sim.run()
    assert refused.value is None
    assert prov.fleet_size() == 2


def test_pending_boots_count_toward_cap():
    sim = Simulator()
    prov = Provisioner(sim, max_servers=1, boot_delay_ms=10.0)
    prov.boot_server()
    refused = prov.boot_server()
    sim.run()
    assert refused.value is None
    assert prov.fleet_size() == 1


def test_join_listener_invoked():
    sim = Simulator()
    prov = Provisioner(sim)
    joined = []
    prov.add_join_listener(joined.append)
    prov.boot_server(immediate=True)
    sim.run()
    assert joined == prov.servers


def test_retire_removes_and_shuts_down():
    sim = Simulator()
    prov = Provisioner(sim)
    prov.boot_server(immediate=True)
    sim.run()
    server = prov.servers[0]
    prov.retire_server(server)
    assert prov.fleet_size() == 0
    assert not server.running


def test_retire_unknown_server_rejected():
    sim = Simulator()
    prov = Provisioner(sim)
    prov.boot_server(immediate=True)
    sim.run()
    server = prov.servers[0]
    prov.retire_server(server)
    with pytest.raises(ValueError):
        prov.retire_server(server)


def test_boot_type_override():
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    prov.boot_server("m1.small", immediate=True)
    sim.run()
    assert prov.servers[0].itype.name == "m1.small"
