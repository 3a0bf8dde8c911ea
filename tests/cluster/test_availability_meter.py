"""AvailabilityMeter: windowed outcome accounting."""

import pytest

from repro.actors import Actor, Client
from repro.bench import build_cluster
from repro.cluster import AvailabilityMeter
from repro.overload import OverloadConfig, OverloadManager
from repro.sim import Simulator, Timeout, spawn
from repro.workload import burst_windows


def test_rejects_bad_window_and_outcome():
    sim = Simulator()
    with pytest.raises(ValueError):
        AvailabilityMeter(sim, window_ms=0.0)
    meter = AvailabilityMeter(sim)
    with pytest.raises(ValueError):
        meter.record("dropped")


def test_lifetime_and_interval_availability():
    sim = Simulator()
    meter = AvailabilityMeter(sim, window_ms=1_000.0)
    assert meter.availability() == 1.0          # nothing recorded yet
    meter.record("success", at=100.0)
    meter.record("success", at=200.0)
    meter.record("timeout", at=1_100.0)
    meter.record("failure", at=1_200.0)
    meter.record("success", at=2_500.0)
    assert meter.availability() == pytest.approx(3 / 5)
    assert meter.availability_between(0.0, 1_000.0) == 1.0
    assert meter.availability_between(1_000.0, 2_000.0) == 0.0
    assert meter.availability_between(2_000.0, 3_000.0) == 1.0
    assert meter.availability_between(5_000.0, 6_000.0) == 1.0  # empty
    assert len(meter) == 5


def test_counts_use_half_open_intervals():
    sim = Simulator()
    meter = AvailabilityMeter(sim, window_ms=1_000.0)
    meter.record("success", at=1_000.0)
    assert meter.counts_between(0.0, 1_000.0)["success"] == 0
    assert meter.counts_between(1_000.0, 2_000.0)["success"] == 1


def test_per_window_buckets():
    sim = Simulator()
    meter = AvailabilityMeter(sim, window_ms=1_000.0)
    meter.record("success", at=100.0)
    meter.record("failure", at=1_500.0)
    meter.record("timeout", at=1_700.0)
    windows = meter.per_window()
    assert [start for start, _counts in windows] == [0.0, 1_000.0]
    assert windows[1][1] == {"success": 0, "failure": 1, "timeout": 1,
                             "rejected": 0, "shed": 0}


def test_recovery_time_spans_disruptions():
    sim = Simulator()
    meter = AvailabilityMeter(sim)
    assert meter.recovery_time_ms() is None
    meter.record("success", at=100.0)
    assert meter.recovery_time_ms() is None
    meter.record("timeout", at=2_000.0)
    meter.record("failure", at=7_500.0)
    meter.record("success", at=9_000.0)
    assert meter.recovery_time_ms() == pytest.approx(5_500.0)


class _Busy(Actor):
    def work(self):
        yield self.compute(30.0)
        return "ok"


@pytest.mark.parametrize("seed", [3, 17, 92])
def test_conservation_under_bursty_overloaded_schedule(seed):
    """Property: every issued attempt lands in exactly one outcome
    bucket, even when bursts drive the full overload machinery (shed
    mailboxes, admission rejects, timeouts) at once."""
    bed = build_cluster(1, seed=seed)
    bed.system.overload = OverloadManager(
        bed.system, OverloadConfig(mailbox_capacity=3, policy="shed",
                                   admission_queue_depth=2))
    ref = bed.system.create_actor(_Busy)
    meter = AvailabilityMeter(bed.sim, window_ms=1_000.0)
    windows = burst_windows(duration_ms=8_000.0, burst_ms=1_000.0,
                            idle_ms=1_500.0, think_ms=400.0,
                            burst_think_ms=1.0)
    clients = [Client(bed.system, name=f"burst{i}", timeout_ms=500.0,
                      max_retries=1, backoff_base_ms=50.0,
                      backoff_cap_ms=200.0, meter=meter)
               for i in range(4)]

    def loop(client):
        for start, end, think in windows:
            if bed.sim.now < start:
                yield Timeout(bed.sim, start - bed.sim.now)
            while bed.sim.now < end:
                yield from client.reliable_call(ref, "work")
                yield Timeout(bed.sim, think)

    for client in clients:
        spawn(bed.sim, loop(client))
    bed.run(until_ms=30_000.0)

    issued = sum(client.attempts for client in clients)
    assert issued > 0
    assert sum(meter.totals.values()) == issued
    # The bursts actually exercised the overload paths: some attempts
    # succeeded, some were turned away.
    assert meter.totals["success"] > 0
    assert meter.totals["rejected"] + meter.totals["shed"] > 0
    # The meter's view agrees with the data plane's disposition ledger.
    overload = bed.system.overload
    assert meter.totals["shed"] <= overload.total_shed()
    assert meter.totals["rejected"] == overload.ledger.counts["rejected"]
    per_window = meter.per_window()
    assert sum(sum(counts.values()) for _start, counts in per_window) \
        == issued


def test_latency_samples_feed_the_recorder():
    sim = Simulator()
    meter = AvailabilityMeter(sim)
    meter.record_success(latency_ms=10.0)
    meter.record_success(latency_ms=30.0)
    meter.record("timeout", at=500.0, latency_ms=500.0)
    meter.record_success()                       # no sample: count only
    assert meter.totals["success"] == 3
    assert meter.latency.count == 3              # only sampled outcomes
    summary = meter.latency_summary()
    assert summary["p50"] == 30.0
    assert summary["max_ms"] == 500.0
    report = meter.report()
    assert report["success"] == 3
    assert report["issued"] == 4
    assert report["latency"] == summary
    assert report["availability"] == pytest.approx(3 / 4)


def test_records_at_sim_now_by_default():
    sim = Simulator()
    meter = AvailabilityMeter(sim)
    sim.schedule(300.0, meter.record_timeout)
    sim.run(until=1_000.0)
    assert meter.counts_between(0.0, 1_000.0)["timeout"] == 1
    assert meter.recovery_time_ms() == 0.0
