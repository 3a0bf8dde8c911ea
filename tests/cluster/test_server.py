"""Unit tests for the simulated server (CPU, memory, utilization)."""

import pytest

from repro.cluster import Server, instance_type
from repro.sim import Simulator, spawn


def make_server(sim, type_name="m5.large"):
    return Server(sim, instance_type(type_name))


def test_execute_completes_after_scaled_demand():
    sim = Simulator()
    server = make_server(sim, "m1.small")  # cpu_speed 0.5
    seen = []

    def body():
        busy = yield server.execute(10.0)
        seen.append((sim.now, busy))

    spawn(sim, body())
    sim.run()
    assert seen == [(20.0, 20.0)]  # 10 ms demand at half speed


def test_cores_run_in_parallel():
    sim = Simulator()
    server = make_server(sim, "m5.large")  # 2 vCPUs
    done_times = []

    def submit():
        signals = [server.execute(10.0) for _ in range(2)]
        for signal in signals:
            yield signal
        done_times.append(sim.now)

    spawn(sim, submit())
    sim.run()
    assert done_times == [10.0]  # both jobs finish together on 2 cores


def test_queueing_when_offered_load_exceeds_cores():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    finish = []

    def submit():
        signals = [server.execute(10.0) for _ in range(4)]
        for signal in signals:
            yield signal
        finish.append(sim.now)

    spawn(sim, submit())
    sim.run()
    assert finish == [20.0]  # 4 x 10ms over 2 cores = 20ms makespan


def test_cpu_percent_reflects_busy_fraction():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    server.execute(10.0)
    sim.run(until=100.0)
    # 10 busy-ms over a 100 ms window with 2 cores = 5%.
    assert server.cpu_percent(100.0) == pytest.approx(5.0, abs=0.5)


def test_cpu_percent_zero_before_any_time_passes():
    sim = Simulator()
    server = make_server(sim)
    assert server.cpu_percent(1_000.0) == 0.0


def test_memory_accounting():
    sim = Simulator()
    server = make_server(sim, "m5.large")  # 8192 MB
    server.allocate_memory(2048.0)
    assert server.memory_percent() == pytest.approx(25.0)
    server.free_memory(1024.0)
    assert server.memory_percent() == pytest.approx(12.5)
    server.free_memory(10_000.0)  # clamps at zero
    assert server.memory_percent() == 0.0


def test_negative_demand_and_memory_rejected():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(ValueError):
        server.execute(-1.0)
    with pytest.raises(ValueError):
        server.allocate_memory(-1.0)


def test_net_percent_uses_nic_capacity():
    sim = Simulator()
    server = make_server(sim, "m1.small")  # 250 Mbps
    per_ms = server.itype.net_bytes_per_ms()
    server.net_meter.add(per_ms * 50.0)  # 50 ms worth of line rate
    sim.schedule_at(100.0, lambda: None)
    sim.run()
    assert server.net_percent(100.0) == pytest.approx(50.0, abs=1.0)


def test_shutdown_stops_cores():
    sim = Simulator()
    server = make_server(sim)
    server.shutdown()
    assert not server.running
    server.shutdown()  # idempotent
    sim.run()
    # Work submitted after shutdown is never serviced.
    done = server.execute(1.0)
    sim.run()
    assert not done.triggered


def _finishes(sim, server, demands):
    """Submit jobs now; returns the (time, busy ms) each one finishes at."""
    done = []
    for demand in demands:
        server.execute(demand)._subscribe(
            lambda busy: done.append((sim.now, busy)))
    return done


def test_shutdown_lets_queued_work_finish_unmetered():
    # The cores stop on sentinels queued behind the waiting work: both
    # jobs submitted before shutdown complete (crash scenarios depend on
    # their done signals firing), but a stopped server meters nothing.
    sim = Simulator()
    server = make_server(sim, "m1.small")  # 1 vCPU at half speed
    done = _finishes(sim, server, [10.0, 10.0])
    sim.schedule(1.0, server.shutdown)
    sim.run()
    assert done == [(20.0, 20.0), (40.0, 20.0)]
    assert server.cpu_meter.lifetime_total == 0.0
    late = server.execute(1.0)
    sim.run()
    assert not late.triggered and server.run_queue_length() == 1


def test_speed_factor_applies_when_a_job_is_dequeued():
    sim = Simulator()
    server = make_server(sim, "m1.small")
    done = _finishes(sim, server, [10.0, 10.0])
    # The running job keeps its speed; the queued one, submitted at the
    # old speed, starts at the new one.
    sim.schedule(5.0, server.set_speed_factor, 2.0)
    sim.run()
    assert done == [(20.0, 20.0), (30.0, 10.0)]


def test_run_queue_length_counts_waiting_jobs():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    for _ in range(5):
        server.execute(100.0)
    sim.run(until=1.0)
    # 2 jobs on cores, 3 waiting.
    assert server.run_queue_length() == 3


def test_idle_headroom():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    assert server.idle_cpu_headroom(1_000.0) == pytest.approx(2.0)
