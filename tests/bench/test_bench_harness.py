"""Unit tests for the bench harness and recorder."""

import pytest

from repro.actors import Actor, Client
from repro.bench import (ClusterRecorder, TestBed, build_cluster,
                         format_series, format_table, latency_curve, mean)
from repro.sim import spawn


class Echo(Actor):
    def ping(self):
        yield self.compute(1.0)
        return "pong"


def test_build_cluster_boots_and_wires():
    bed = build_cluster(3, instance_type="m1.small", seed=5)
    assert len(bed.servers) == 3
    assert bed.provisioner.fleet_size() == 3
    assert bed.system.provisioner is bed.provisioner
    assert all(s.itype.name == "m1.small" for s in bed.servers)


def test_build_cluster_boots_up_to_its_cap_and_rejects_more():
    bed = build_cluster(4, max_servers=4)
    assert len(bed.servers) == bed.provisioner.fleet_size() == 4
    with pytest.raises(ValueError, match=r"5 servers.*max_servers is 4"):
        build_cluster(5, max_servers=4)
    # The default cap: a larger fleet fails loudly instead of silently
    # booting only 1,024 servers.
    with pytest.raises(ValueError, match=r"1600 servers.*max_servers is 1024"):
        build_cluster(1600)


def test_recorder_samples_cluster_state():
    bed = build_cluster(2)
    recorder = ClusterRecorder(bed.system, sample_ms=1_000.0)
    bed.system.create_actor(Echo, server=bed.servers[0])
    recorder.start()
    bed.run(until_ms=5_500.0)
    assert len(recorder.fleet_size) == 5
    assert recorder.fleet_size.last() == 2
    assert recorder.actor_counts[bed.servers[0].name].last() == 1


def test_latency_curve_buckets_by_time():
    bed = build_cluster(1)
    ref = bed.system.create_actor(Echo)
    client = Client(bed.system)

    def body():
        for _ in range(10):
            yield from client.timed_call(ref, "ping")

    spawn(bed.sim, body())
    bed.run(until_ms=10_000.0)
    curve = latency_curve([client], bucket_ms=1_000.0)
    assert curve
    assert all(latency > 0 for _t, latency in curve)


def test_mean_helper():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        mean([])


def test_format_table_aligns_columns():
    text = format_table(["name", "value"],
                        [["alpha", 1.5], ["b", 20]], title="Demo")
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert "alpha" in lines[3]
    assert "1.500" in lines[3]


def test_format_series_downsamples():
    series = [(float(i), float(i * 2)) for i in range(100)]
    text = format_series("curve", series, max_points=10)
    assert text.startswith("curve")
    assert text.count(":") <= 11
