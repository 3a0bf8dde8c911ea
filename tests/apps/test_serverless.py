"""Tests for the serverless + storage-tier substrate (paper §2.1)."""

import random

import pytest

from repro.graphs import pagerank, powerlaw_graph
from repro.serverless import (FunctionPlatform, ServerlessPageRank,
                              StorageTier, upload_graph)
from repro.sim import Simulator, Timeout, spawn


def drive(sim, gen, until=600_000.0):
    out = []

    def body():
        result = yield from gen
        out.append(result)

    spawn(sim, body())
    sim.run(until=until)
    assert out, "driver did not finish"
    return out[0]


# -- storage tier ----------------------------------------------------------------

def test_put_get_roundtrip_with_latency():
    sim = Simulator()
    store = StorageTier(sim, read_latency_ms=10.0, write_latency_ms=25.0)

    def body():
        yield store.put("k", {"v": 1}, 100.0)
        write_done = sim.now
        value = yield store.get("k")
        return write_done, sim.now, value

    write_done, read_done, value = drive(sim, body())
    assert value == {"v": 1}
    assert write_done >= 25.0                 # base write latency
    assert read_done - write_done >= 10.0     # base read latency


def test_get_missing_key_returns_none():
    sim = Simulator()
    store = StorageTier(sim)

    def body():
        value = yield store.get("missing")
        return value

    assert drive(sim, body()) is None


def test_large_item_pays_transfer_time():
    sim = Simulator()
    store = StorageTier(sim, write_latency_ms=0.0, bytes_per_ms=100.0)

    def body():
        yield store.put("big", "x", 10_000.0)
        return sim.now

    assert drive(sim, body()) >= 100.0


def test_concurrency_limit_queues_requests():
    sim = Simulator()
    store = StorageTier(sim, write_latency_ms=10.0, concurrency=1)

    def body():
        first = store.put("a", 1, 0.0)
        second = store.put("b", 2, 0.0)
        yield first
        t_first = sim.now
        yield second
        return t_first, sim.now

    t_first, t_second = drive(sim, body())
    assert t_second >= t_first + 10.0  # serialized behind one worker


def test_two_workers_serve_requests_in_fifo_order():
    sim = Simulator()
    store = StorageTier(sim, read_latency_ms=10.0, write_latency_ms=25.0,
                        bytes_per_ms=1.0, concurrency=2)
    requests = [store.put("a", "A", 0.0),    # worker 1:  0 -> 25
                store.put("b", "B", 15.0),   # worker 2:  0 -> 40
                store.get("a"),              # worker 1: 25 -> 35
                store.get("b"),              # worker 1: 35 -> 45, b not yet stored
                store.get("b")]              # worker 2: 40 -> 65, reads 15 bytes
    done = {}

    def wait(index, signal):
        value = yield signal
        done[index] = (sim.now, value)

    for index, signal in enumerate(requests):
        spawn(sim, wait(index, signal))
    sim.run()
    assert done == {0: (25.0, True), 1: (40.0, True), 2: (35.0, "A"),
                    3: (45.0, None), 4: (65.0, "B")}
    assert store.stats.total_latency_ms == 25.0 + 40.0 + 35.0 + 45.0 + 65.0
    assert store.stats.bytes_read == 15.0


def test_stats_accounting():
    sim = Simulator()
    store = StorageTier(sim)

    def body():
        yield store.put("a", 1, 500.0)
        yield store.get("a")
        yield store.get("nope")
        return True

    drive(sim, body())
    assert store.stats.writes == 1
    assert store.stats.reads == 2
    assert store.stats.bytes_written == 500.0
    assert store.mean_latency_ms() > 0


# -- function platform -----------------------------------------------------------

def _noop(platform, payload):
    yield Timeout(platform.sim, 5.0)
    return payload


def test_invoke_runs_function_and_returns_result():
    sim = Simulator()
    platform = FunctionPlatform(sim, cold_start_ms=100.0)
    platform.register("echo", _noop)

    def body():
        result = yield platform.invoke("echo", "hello")
        return result, sim.now

    result, elapsed = drive(sim, body())
    assert result == "hello"
    assert elapsed >= 105.0  # cold start + body
    assert platform.stats.cold_starts == 1


def test_warm_container_skips_cold_start():
    sim = Simulator()
    platform = FunctionPlatform(sim, cold_start_ms=100.0)
    platform.register("echo", _noop)

    def body():
        yield platform.invoke("echo", 1)
        warm_start = sim.now
        yield platform.invoke("echo", 2)
        return sim.now - warm_start

    warm_elapsed = drive(sim, body())
    assert warm_elapsed < 100.0
    assert platform.stats.cold_starts == 1
    assert platform.stats.invocations == 2


def test_parallel_invocations_scale_out_containers():
    sim = Simulator()
    platform = FunctionPlatform(sim, cold_start_ms=50.0)
    platform.register("echo", _noop)

    def body():
        signals = [platform.invoke("echo", i) for i in range(8)]
        results = []
        for signal in signals:
            value = yield signal
            results.append(value)
        return results

    results = drive(sim, body())
    assert sorted(results) == list(range(8))
    assert platform.stats.cold_starts == 8  # all parallel, all cold


def test_keep_alive_reclaims_idle_containers():
    sim = Simulator()
    platform = FunctionPlatform(sim, cold_start_ms=10.0,
                                keep_alive_ms=1_000.0)
    platform.register("echo", _noop)

    def body():
        yield platform.invoke("echo", 1)
        yield Timeout(sim, 5_000.0)  # past keep-alive
        yield platform.invoke("echo", 2)
        return True

    drive(sim, body())
    assert platform.stats.cold_starts == 2


def test_unknown_function_rejected():
    sim = Simulator()
    platform = FunctionPlatform(sim)
    with pytest.raises(KeyError):
        platform.invoke("ghost")


# -- serverless PageRank ------------------------------------------------------------

def test_serverless_pagerank_matches_reference():
    graph = powerlaw_graph(300, 3, random.Random(5))
    sim = Simulator()
    store = StorageTier(sim)
    platform = FunctionPlatform(sim)
    upload_graph(sim, store, graph, 4)
    serverless = ServerlessPageRank(sim, store, platform, 4,
                                    graph.num_nodes)
    outcome = serverless.run(15)
    reference = pagerank(graph, iterations=15)
    got = serverless.collect_ranks()
    assert max(abs(a - b) for a, b in zip(reference, got)) < 1e-12
    assert len(outcome.iteration_ms) == 15
    assert outcome.storage_ops > 15 * 4 * 2  # every round hits the tier


def test_upload_time_scales_with_serialized_size():
    graph = powerlaw_graph(300, 3, random.Random(5))
    sim_small = Simulator()
    store_small = StorageTier(sim_small)
    small = upload_graph(sim_small, store_small, graph, 4,
                         bytes_per_node=16.0, bytes_per_edge=8.0)
    sim_big = Simulator()
    store_big = StorageTier(sim_big)
    big = upload_graph(sim_big, store_big, graph, 4,
                       bytes_per_node=1600.0, bytes_per_edge=800.0)
    assert big["upload_ms"] > 10 * small["upload_ms"]
