"""Property tests: the ring-buffer meter vs brute-force and scan oracles.

The profiling hot path and every server's CPU/NIC gauge are only
admissible because :class:`RingMeter` promises *bit-identical* windowed
totals to a bucket scan (see the exactness contract in
``repro/cluster/metrics.py``).  These properties drive the ring, the
bucket-scanning oracle :class:`window_oracle.WindowedMeter` and an
independent brute-force reference through random event sequences and
assert exact ``==`` on every query, with the edges that matter: empty
windows, window-boundary bucket cutoffs, actor resurrection, and server
windows over histories longer than the servers' retention.

``derandomize=True`` keeps the suite reproducible in CI.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.actors import Actor
from repro.bench import build_cluster
from repro.cluster import Server, instance_type
from repro.cluster.metrics import BUCKET_MS
from repro.cluster.server import SERVER_WINDOW_MS
from repro.core.profiling import ProfilingRuntime, RingMeter
from repro.sim import Simulator

from window_oracle import WindowedMeter

WINDOW_MS = 10_000.0

# An event sequence: (advance time by delta, record amount).  Deltas mix
# sub-bucket steps with jumps past the whole window so eviction and the
# stale-prefix recompute both trigger.
_events = st.lists(
    st.tuples(
        st.one_of(
            st.floats(min_value=0.0, max_value=3 * BUCKET_MS),
            st.floats(min_value=WINDOW_MS, max_value=3 * WINDOW_MS)),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False)),
    max_size=60)

# Query windows around the interesting sizes: empty, sub-bucket, exact
# bucket multiples, the configured window itself.
_windows = st.sampled_from([
    0.0, 1.0, BUCKET_MS / 2, BUCKET_MS, 3 * BUCKET_MS,
    WINDOW_MS / 2, WINDOW_MS - BUCKET_MS, WINDOW_MS])


class _BruteForce:
    """Independent reference: keeps every (bucket, amount) event and
    recomputes totals the way WindowedMeter defines them — accumulate
    arrival-ordered events into buckets, then sum surviving buckets
    oldest-first."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []

    def add(self, amount):
        self.events.append((int(self.sim.now // BUCKET_MS), amount))

    def total(self, window_ms):
        if window_ms <= 0:
            return 0.0
        buckets = {}
        for index, amount in self.events:
            if index in buckets:
                buckets[index] += amount
            else:
                buckets[index] = amount
        cutoff = int((self.sim.now - window_ms) // BUCKET_MS)
        result = 0.0
        for index, total in buckets.items():  # insertion == arrival order
            if index >= cutoff:
                result += total
        return result


def _drive(events):
    sim = Simulator()
    ring = RingMeter(sim, WINDOW_MS)
    legacy = WindowedMeter(sim, bucket_ms=BUCKET_MS)
    brute = _BruteForce(sim)
    for delta, amount in events:
        sim.run(until=sim.now + delta)
        ring.add(amount)
        legacy.add(amount)
        brute.add(amount)
    return sim, ring, legacy, brute


@settings(derandomize=True, max_examples=200, deadline=None)
@given(events=_events, window=_windows, tail_ms=st.floats(0.0, WINDOW_MS))
def test_ring_matches_legacy_and_brute_force(events, window, tail_ms):
    sim, ring, legacy, brute = _drive(events)
    sim.run(until=sim.now + tail_ms)  # query mid-window, not only on adds
    assert ring.total(window) == legacy.total(window)
    assert ring.total(window) == brute.total(window)
    assert ring.total() == legacy.total(WINDOW_MS)
    assert ring.lifetime_total == legacy.lifetime_total


@settings(derandomize=True, max_examples=100, deadline=None)
@given(events=_events)
def test_interleaved_queries_do_not_perturb_state(events):
    """total() mutates internal caches (eviction, prefix recompute);
    interleaving queries between adds must never change later answers."""
    sim_a, ring_a, legacy_a, _ = _drive(events)
    # Second run: same events, but query after every add.
    sim_b = Simulator()
    ring_b = RingMeter(sim_b, WINDOW_MS)
    for delta, amount in events:
        sim_b.run(until=sim_b.now + delta)
        ring_b.add(amount)
        ring_b.total()
        ring_b.total(BUCKET_MS)
    assert ring_b.total() == ring_a.total() == legacy_a.total(WINDOW_MS)


def test_empty_window_and_empty_meter():
    sim = Simulator()
    ring = RingMeter(sim, WINDOW_MS)
    assert ring.total() == 0.0
    assert ring.total(0.0) == 0.0
    ring.add(5.0)
    assert ring.total(0.0) == 0.0          # empty window is always zero
    assert ring.total(-1.0) == 0.0
    zero = RingMeter(sim, 0.0)             # zero-width configured window
    zero.add(5.0)
    assert zero.total() == 0.0


def test_window_boundary_bucket_is_included():
    """WindowedMeter's cutoff comparison keeps the partially expired
    boundary bucket; the ring must reproduce that, not "improve" it."""
    sim = Simulator()
    ring = RingMeter(sim, WINDOW_MS)
    legacy = WindowedMeter(sim, bucket_ms=BUCKET_MS)
    for meter in (ring, legacy):
        meter.add(3.0)                     # bucket 0
    sim.run(until=WINDOW_MS)               # exactly one window later
    assert ring.total() == legacy.total(WINDOW_MS) == 3.0
    sim.run(until=WINDOW_MS + BUCKET_MS - 1e-9)
    assert ring.total() == legacy.total(WINDOW_MS) == 3.0
    sim.run(until=WINDOW_MS + BUCKET_MS)   # boundary bucket expires
    assert ring.total() == legacy.total(WINDOW_MS) == 0.0


def test_eviction_bounds_memory():
    sim = Simulator()
    ring = RingMeter(sim, WINDOW_MS)
    legacy = WindowedMeter(sim, bucket_ms=BUCKET_MS)
    for step in range(5_000):
        sim.run(until=sim.now + BUCKET_MS)
        ring.add(1.0)
        legacy.add(1.0)
    # Retention spans indices [newest - _max_buckets, newest] inclusive.
    assert len(ring._buckets) <= ring._max_buckets + 1
    assert ring.total() == legacy.total(WINDOW_MS)
    assert ring.lifetime_total == 5_000.0


class _Idle(Actor):
    def poke(self):
        yield self.compute(1.0)
        return True


def test_resurrection_resets_profile():
    """A resurrected actor restarts from a blank profile — pre-crash
    rates must not leak through the snapshot cache."""
    bed = build_cluster(1, "m5.large", seed=3)
    ref = bed.system.create_actor(_Idle)
    record = bed.system.directory.lookup(ref.actor_id)
    profiler = ProfilingRuntime(bed.sim, window_ms=WINDOW_MS)
    profiler.on_actor_created(record)
    profiler.on_compute(record, 42.0)
    bed.sim.run(until=bed.sim.now + BUCKET_MS)
    before = profiler.snapshot_actors([record])[0]
    assert before.cpu_ms_per_min > 0.0
    profiler.on_actor_resurrected(record)
    after = profiler.snapshot_actors([record])[0]
    assert after.cpu_ms_per_min == 0.0
    assert after.call_count_per_min == {}
    # And the fresh profile keeps metering normally afterwards.
    profiler.on_compute(record, 7.0)
    again = profiler.snapshot_actors([record])[0]
    assert again.cpu_ms_per_min > 0.0


# -- server windows -----------------------------------------------------------

#: The windows servers are read at: admission (1 s), the live harness
#: (2 s), ``ClusterRecorder`` (10 s), the longest EMR/baseline/collector
#: period (180 s), and one bucket under the servers' retention horizon.
_SERVER_WINDOWS = (1_000.0, 2_000.0, 10_000.0, 180_000.0,
                   SERVER_WINDOW_MS - BUCKET_MS)
#: Any EMR, baseline or collector period (2-180 s).
_periods = st.floats(min_value=2_000.0, max_value=180_000.0)


def _server_adds(seed, sparse):
    """(time advance, cpu amount, net amount) triples.  Dense sequences
    step sub-bucket; sparse ones skip several buckets per add and span
    more than the retention horizon, so the oracle's count-based
    720-bucket retention keeps buckets the ring's index-based retention
    has already dropped."""
    rng = random.Random(seed)
    if sparse:
        count = rng.randint(150, 240)
        steps = [rng.uniform(2.0, 8.0) * BUCKET_MS for _ in range(count)]
    else:
        count = rng.randint(200, 1_200)
        steps = [rng.uniform(0.0, 1.5) * BUCKET_MS for _ in range(count)]
    return [(step, rng.random() * 10.0 ** rng.randint(-3, 3),
             rng.random() * 10.0 ** rng.randint(0, 6)) for step in steps]


def _assert_server_matches(server, cpu, net, window):
    assert server.cpu_meter.total(window) == cpu.total(window)
    assert server.net_meter.total(window) == net.total(window)
    effective = min(window, server.clock.now - server.started_at)
    if effective <= 0:
        expected_cpu = expected_net = 0.0
    else:
        expected_cpu = min(100.0, 100.0 * cpu.total(window)
                           / (effective * server.itype.vcpus))
        expected_net = min(100.0, 100.0 * net.total(window)
                           / (effective * server.itype.net_bytes_per_ms()))
    assert server.cpu_percent(window) == expected_cpu
    assert server.net_percent(window) == expected_net


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), sparse=st.booleans(),
       periods=st.lists(_periods, min_size=1, max_size=6),
       every=st.integers(1, 50))
def test_server_meters_match_the_oracle(seed, sparse, periods, every):
    sim = Simulator()
    server = Server(sim, instance_type("m5.large"))
    cpu = WindowedMeter(sim)
    net = WindowedMeter(sim)
    adds = _server_adds(seed, sparse)
    windows = _SERVER_WINDOWS + tuple(periods)
    if sparse:
        assert sum(step for step, _c, _n in adds) > SERVER_WINDOW_MS
    for position, (step, cpu_amount, net_amount) in enumerate(adds):
        sim.run(until=sim.now + step)
        server.cpu_meter.add(cpu_amount)
        server.net_meter.add(net_amount)
        cpu.add(cpu_amount)
        net.add(net_amount)
        if position % every == 0:   # queries mid-sequence mutate the ring
            _assert_server_matches(server, cpu, net,
                                   windows[position % len(windows)])
    for window in windows:
        _assert_server_matches(server, cpu, net, window)
    assert server.cpu_meter.lifetime_total == cpu.lifetime_total
    assert server.net_meter.lifetime_total == net.lifetime_total
