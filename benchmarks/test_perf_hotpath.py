"""Sim-kernel throughput floor.

The end-to-end benchmark (``benchmarks/e2e``) is the perf instrument:
its trace times every layer inside real workloads.  This file keeps one
micro-benchmark beside it, a floor on the event loop's raw rate, so a
kernel change that loses the zero-delay FIFO or otherwise slows the
loop fails CI's benchmark-smoke job outright instead of surfacing as a
slower e2e run.
The measured rate goes to ``benchmarks/results/perf_sim_kernel.txt``.
"""

import timeit

from repro.sim import Simulator

#: Engine-mix events/s (best of 3) this benchmark recorded when an
#: earlier bucketed kernel landed; it was the committed
#: ``sim_kernel.engine_events_per_sec`` baseline of the retired
#: ``BENCH_perf.json``.  Re-measure and update it together with any
#: change that is meant to move the kernel's speed.
BASELINE_EVENTS_PER_SEC = 2_358_823.94

#: Fraction of the baseline the kernel must still reach.  The floor is
#: meant to catch a lost fast path (the zero-delay FIFO alone is worth
#: ~4x on this mix), not few-percent drift.  Absolute rates depend on
#: the machine, and a busy shared host can read below the floor: re-run
#: before reading one failure as a regression.
FLOOR_FRACTION = 0.90


def test_sim_kernel_throughput(report):
    """Event-loop throughput on the runtime's traffic mix.

    Each future-dated event (a network delivery or timer) resumes a
    chain of zero-delay continuations: in the actor runtime every
    handler resume and mailbox wakeup is a ``schedule(0.0, ...)``, so
    zero-delay events dominate a live cluster's queue by a wide margin.
    """
    chain = 7        # zero-delay continuations per future-dated root
    roots = 30_000
    events = roots * (chain + 1)

    def engine_mix():
        sim = Simulator()
        fired = [0]

        def resume(depth):
            fired[0] += 1
            if depth:
                sim.schedule(0.0, resume, depth - 1)

        for index in range(roots):
            sim.schedule(float(index % 64), resume, chain)
        sim.run()
        assert fired[0] == events

    # Best of 25: on a shared machine the rate swings ~2x between
    # seconds, and the floor asks what the kernel can do, not the host.
    best_s = min(timeit.repeat(engine_mix, number=1, repeat=25))
    events_per_sec = events / best_s
    floor = FLOOR_FRACTION * BASELINE_EVENTS_PER_SEC
    report.add(f"engine: {events_per_sec:,.0f} events/s")
    report.add(f"floor:  {floor:,.0f} events/s "
               f"({100 * FLOOR_FRACTION:.0f}% of baseline "
               f"{BASELINE_EVENTS_PER_SEC:,.0f})")
    report.write("perf_sim_kernel")
    assert events_per_sec >= floor, (
        f"sim kernel ran {events_per_sec:,.0f} events/s, below the floor "
        f"of {floor:,.0f}: a fast path of the event loop has been lost")
