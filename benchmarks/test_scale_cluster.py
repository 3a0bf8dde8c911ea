"""Cluster-scale gate on the shipped control plane.

PLASMA's scaling claim covers the whole two-level path: an EPR profiles
every actor on every server, LEMs report, and each GEM plans for its own
subset of servers (PAPER.md §1).  This gate builds that stack at three
fleet sizes across a 16x range (16 actors per server, groups of
``round(sqrt(S))`` servers, ``fleet_hier``'s policy that never fires)
and plays ``PERIODS`` periods.  Two readers keep group 0 hot so the root
has something to arbitrate; their rate follows the group size, so the
hot group's CPU lead and their share of the host time match at every
size.  Each run has a fresh interpreter.  Reported per size: host CPU
ms per period per server in play, gen-2 collections (``gc.callbacks``)
and the rest apart, best of ``REPEATS`` runs; root µs per round of
``RootGem.arbitrate`` over the views the LEM -> leaf -> root path built;
bytes per added actor, from the heap ``tracemalloc`` holds after play.
Gates: root cost growth / fleet growth < 0.9; the rest of the per-server
cost within 1.3x across sizes; bytes per actor within 10 %.  The gen-2
term is reported, not gated.  ``SCALE_SMOKE=1``: 100, 400, 1,600 servers.
"""

import gc
import math
import os
import time
import timeit
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro.actors import Client
from repro.apps import Partition, build_estore
from repro.bench import build_cluster, format_table
from repro.core import ElasticityManager, EmrConfig, compile_source
from repro.sim import Timeout, spawn

SIZES = ((100, 400, 1_600) if os.environ.get("SCALE_SMOKE")
         else (250, 1_000, 4_000))
ACTORS_PER_SERVER = 16
PERIOD_MS = 5_000.0
PERIODS = 4
#: Simulated past the readers' end, so the last period's root round lands.
DRAIN_MS = 1_000.0
REPEATS = 7
ARBITRATE_LOOPS = 500
#: Reader think time = this / group size: the hot group's mean CPU
#: leads by ~0.03 points at every size, over a band of 0.01 points.
THINK_MS_TIMES_GROUP = 10_000.0
CROSS_GROUP_BAND = 0.01

#: ``fleet_hier``'s policy: it never fires, so every migration is the root's.
QUIET_POLICY = ("server.cpu.perc > 99 and client.call(Partition(p1).read)"
                ".perc > 99 => reserve(p1, cpu);")


def _run(servers, traced=False):
    """Build the stack at ``servers`` and play it; one row of the report."""
    group = round(math.sqrt(servers))
    if traced:
        tracemalloc.start()
    bed = build_cluster(servers, "m1.small", seed=1, max_servers=servers)
    # The hot partitions live on the first server, so in group 0...
    setup = build_estore(bed, num_roots=8, children_per_root=2,
                         num_home_servers=1)
    # ...and the idle bulk is spread over the whole fleet.
    for index in range(servers * ACTORS_PER_SERVER - 8 * 3):
        bed.system.create_actor(Partition, 1,
                                server=bed.servers[index % servers])
    manager = ElasticityManager(
        bed.system, compile_source(QUIET_POLICY, [Partition]),
        EmrConfig(period_ms=PERIOD_MS, gem_wait_ms=300.0,
                  lem_stagger_ms=10.0, server_group_size=group,
                  cross_group_band=CROSS_GROUP_BAND))
    root_moves = []

    def on_event(kind, detail):
        if kind == "migration-started" and detail.get("issuer") == "root":
            root_moves.append(detail["actor_id"])

    manager.add_listener(on_event)
    manager.start()
    end_ms = PERIODS * PERIOD_MS
    keys = bed.streams.stream("scale-keys")

    def read_loop(client):
        while bed.sim.now < end_ms:
            yield from client.timed_call(setup.picker.pick(), "read",
                                         keys.randrange(10_000))
            yield Timeout(bed.sim, THINK_MS_TIMES_GROUP / group)

    for index in range(2):
        spawn(bed.sim, read_loop(Client(bed.system, name=f"reader{index}")))
    # Gen-2 collections: count, and seconds (stop time minus start time).
    gen2 = [0, 0.0]

    def on_gc(phase, info):
        if info["generation"] == 2:
            gen2[0] += phase == "stop"
            gen2[1] += time.process_time() * (1 if phase == "stop" else -1)

    gc.callbacks.append(on_gc)
    try:
        start = time.process_time()
        bed.run(until_ms=end_ms + DRAIN_MS)
        play_s = time.process_time() - start
    finally:
        gc.callbacks.remove(on_gc)
    root = manager.hierarchy.root
    assert root.rounds_processed >= PERIODS, "vacuous: too few root rounds"
    assert root_moves, "vacuous: the root started no migration"
    if traced:
        gc.collect()
        heap = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return heap
    views = root.views
    arbitrate_s = min(timeit.repeat(lambda: root.arbitrate(views),
                                    number=ARBITRATE_LOOPS, repeat=3))
    per = 1e3 / PERIODS / servers
    return {"groups": len(views), "gen2_ms": gen2[1] * per,
            "other_ms": (play_s - gen2[1]) * per, "gen2": gen2,
            "root_us": 1e6 * arbitrate_s / ARBITRATE_LOOPS,
            "root_rounds": root.rounds_processed,
            "root_moves": len(root_moves)}


def _fresh(servers, traced=False):
    """``_run`` in a new interpreter: no run inherits another's heap."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(_run, servers, traced).result()


def test_control_plane_cost_scales_with_the_fleet(report):
    runs = [(size, _fresh(size)) for _ in range(REPEATS) for size in SIZES]
    best = {size: min((row for s, row in runs if s == size),
                      key=lambda row: row["other_ms"]) for size in SIZES}
    heap = {size: _fresh(size, traced=True) for size in SIZES}
    slope = {large: (heap[large] - heap[small])
             / ((large - small) * ACTORS_PER_SERVER)
             for small, large in zip(SIZES, SIZES[1:])}
    rows = [(size, row["groups"], size * ACTORS_PER_SERVER,
             f"{row['other_ms']:.4f}", f"{row['gen2_ms']:.4f}",
             f"{row['gen2'][0]} / {row['gen2'][1]:.3f}",
             f"{row['root_us']:.1f}", row["root_rounds"], row["root_moves"],
             f"{slope[size]:.0f}" if size in slope else "-")
            for size, row in best.items()]
    fleet_growth = SIZES[-1] / SIZES[0]
    root_growth = best[SIZES[-1]]["root_us"] / best[SIZES[0]]["root_us"]
    other = [row["other_ms"] for row in best.values()]
    other_spread = max(other) / min(other)
    bytes_spread = max(slope.values()) / min(slope.values())
    report.add(format_table(
        ("servers", "groups", "actors", "ms/period/server (other)",
         "(gen-2)", "gen-2 n / s", "root us/round", "root rounds",
         "root moves", "B/added actor"), rows,
        title=f"Cluster-scale control plane on the real stack: {PERIODS} "
              f"periods of {PERIOD_MS / 1e3:.0f} s, best of {REPEATS} runs"))
    report.add(f"root cost growth / fleet growth "
               f"{root_growth / fleet_growth:.3f} (< 0.9); per-server cost "
               f"outside gen-2 spread {other_spread:.2f}x (<= 1.3); bytes "
               f"per actor spread {bytes_spread:.3f}x (<= 1.10)")
    report.write("scale_cluster")

    assert root_growth / fleet_growth < 0.9, (
        f"root cost grew {root_growth:.2f}x for a {fleet_growth:.0f}x fleet: "
        f"the root tier is no longer sub-linear in server count")
    assert other_spread <= 1.3, (
        f"per-server cost outside the collector spreads {other_spread:.2f}x "
        f"across sizes: a super-linear term in the control path")
    assert bytes_spread <= 1.10, (
        f"bytes per added actor spread {bytes_spread:.3f}x across sizes")
