"""Property tests: ring-buffer meters vs brute-force and scan meters.

The profiling hot path is only admissible because :class:`RingMeter`
promises *bit-identical* windowed totals to the bucket-scanning
:class:`WindowedMeter` (see the exactness contract in
``repro/core/profiling/ring.py``).  These properties drive both
implementations — plus an independent brute-force reference — through
random event sequences and assert exact ``==`` on every query, with the
edges called out in the PR checklist: empty windows, window-boundary
bucket cutoffs, and actor resurrection.

``derandomize=True`` keeps the suite reproducible in CI.
"""

from hypothesis import given, settings, strategies as st

from repro.actors import Actor
from repro.bench import build_cluster
from repro.cluster import WindowedMeter
from repro.core.profiling import ProfilingRuntime, RingMeter
from repro.sim import Simulator

WINDOW_MS = 10_000.0
BUCKET_MS = 500.0

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
    ring = RingMeter(sim, WINDOW_MS, bucket_ms=BUCKET_MS)
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
    assert ring.rate_per_ms(window) == legacy.rate_per_ms(window)
    assert ring.lifetime_total == legacy.lifetime_total


@settings(derandomize=True, max_examples=100, deadline=None)
@given(events=_events)
def test_interleaved_queries_do_not_perturb_state(events):
    """total() mutates internal caches (eviction, prefix recompute);
    interleaving queries between adds must never change later answers."""
    sim_a, ring_a, legacy_a, _ = _drive(events)
    # Second run: same events, but query after every add.
    sim_b = Simulator()
    ring_b = RingMeter(sim_b, WINDOW_MS, bucket_ms=BUCKET_MS)
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
    assert ring.rate_per_ms() == 0.0
    ring.add(5.0)
    assert ring.total(0.0) == 0.0          # empty window is always zero
    assert ring.total(-1.0) == 0.0
    zero = RingMeter(sim, 0.0)             # zero-width configured window
    zero.add(5.0)
    assert zero.total() == 0.0
    assert zero.rate_per_ms() == 0.0


def test_window_boundary_bucket_is_included():
    """WindowedMeter's cutoff comparison keeps the partially expired
    boundary bucket; the ring must reproduce that, not "improve" it."""
    sim = Simulator()
    ring = RingMeter(sim, WINDOW_MS, bucket_ms=BUCKET_MS)
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
    ring = RingMeter(sim, WINDOW_MS, bucket_ms=BUCKET_MS)
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
