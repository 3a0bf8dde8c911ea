"""The pinned scenarios behind ``digests.json`` and their digest functions.

Every refactor PR used to prove itself by running one scenario through
two in-process code paths and comparing them.  Once the losing path is
deleted that comparison has nothing left to compare, so the behaviour is
pinned against *committed* digests instead:

- the Fig. 7 (PageRank rebalancing) and Fig. 9 (E-Store colocation +
  reserve) equivalence scenarios, plus a GEM kill/respawn/recovery run
  — sha256 of the elasticity event trace, final placements, the
  migration log and the snapshot-cache counters;
- every ``tests/fuzz/corpus/*.json`` artifact and one generated scenario
  per fuzz profile — the full :func:`result_fingerprint` dict.

``python tests/golden/scenarios.py NAME...`` prints the digests of the
named cases as JSON (the determinism gate runs this in a subprocess
under different ``PYTHONHASHSEED`` values); ``--record`` rewrites
``digests.json`` from all of them.  See ``docs/testing.md`` for when
re-recording is legitimate.

Actor/server/message ids belong to the runtime each case builds, and
count from 1 there, so cases are independent of the order they run in.
"""

import glob
import hashlib
import json
import os
import sys

from repro.actors import Client
from repro.apps.estore import ESTORE_POLICY, Partition, build_estore
from repro.apps.pagerank import (PAGERANK_POLICY, PageRankWorker,
                                 build_pagerank, run_iterations)
from repro.bench import build_cluster
from repro.chaos import ChaosEngine, FaultPlan, KillGem
from repro.check import InvariantChecker
from repro.cli import load_fuzz_scenario
from repro.core import (ElasticityManager, ElasticityTracer, EmrConfig,
                        compile_source)
from repro.fuzz import generate_scenario, run_scenario
from repro.graphs import powerlaw_graph
from repro.sim import Timeout, spawn

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
CORPUS_DIR = os.path.join(HERE, os.pardir, "fuzz", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

#: One generated scenario per fuzz profile: the five pairs
#: ``benchmarks/e2e`` pins for ``chaos_fuzz`` (each schedules a fault
#: and all but the first migrate) plus one for the ``scale`` profile.
GENERATED = (("default", 53), ("partition", 44), ("durability", 11),
             ("overload", 14), ("scale", 1), ("scale-chaos", 14))


# ---------------------------------------------------------------------------
# Fig. 7 / Fig. 9 equivalence scenarios
# ---------------------------------------------------------------------------

def _start_instrumented(manager):
    """Attach tracer and checker, then start the manager."""
    tracer = ElasticityTracer(manager)
    tracer.attach()
    checker = InvariantChecker(manager, tracer=tracer)
    checker.attach()
    manager.start()
    return tracer, checker


def _finish(bed, manager, tracer, checker, refs):
    """Assert the run was clean, observe it, and tear down."""
    checker.assert_clean()
    trace = [str(event) for event in tracer.events]
    placements = [(str(ref), bed.system.server_of(ref).name)
                  for ref in refs]
    migrations = [(event.time_ms, str(event.actor), event.src, event.dst)
                  for event in manager.migration_log]
    cache = (manager.profiler.snapshot_cache_hits,
             manager.profiler.snapshot_cache_misses)
    manager.stop()
    tracer.detach()
    checker.detach()
    return trace, placements, migrations, cache


def _spawn_estore_readers(bed, setup, count, duration_ms, stream):
    """Closed-loop clients reading skewed E-Store roots."""
    rng = bed.streams.stream(stream)

    def client_loop(client):
        while bed.sim.now < duration_ms:
            root = setup.picker.pick()
            yield from client.timed_call(root, "read",
                                         rng.randrange(10_000))
            yield Timeout(bed.sim, 10.0)

    for index in range(count):
        spawn(bed.sim, client_loop(Client(bed.system, name=f"c{index}")))


def _estore_refs(setup):
    refs = list(setup.roots)
    for kids in setup.children:
        refs.extend(kids)
    return refs


def run_pagerank_scenario(iterations=10):
    """Fig. 7 (scaled): every worker starts on one server (the bad
    initial placement) and the balance rule spreads them out."""
    bed = build_cluster(3, "m5.large", seed=11)
    graph = powerlaw_graph(240, edges_per_node=3)
    deployment = build_pagerank(bed, graph, num_partitions=9,
                                placement=[0] * 9, compute_scale=2.0)
    policy = compile_source(PAGERANK_POLICY, [PageRankWorker])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=8_000.0, gem_wait_ms=500.0, lem_stagger_ms=10.0))
    tracer, checker = _start_instrumented(manager)
    run_iterations(deployment, iterations=iterations)
    # Idle tail: two more periods with no traffic, so the manager also
    # profiles quiescent actors (the snapshot-cache fast path).
    bed.run(until_ms=bed.sim.now + 20_000.0)
    return _finish(bed, manager, tracer, checker, deployment.workers)


def run_estore_scenario():
    """Fig. 9 (scaled): skewed reads over root+child partitions with the
    reserve/colocate/balance policy."""
    bed = build_cluster(3, "m1.small", seed=13)
    setup = build_estore(bed, num_roots=8, children_per_root=2,
                         num_home_servers=2)
    policy = compile_source(ESTORE_POLICY, [Partition])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=10_000.0, gem_wait_ms=500.0, lem_stagger_ms=10.0))
    tracer, checker = _start_instrumented(manager)
    duration_ms = 45_000.0
    # Enough clients that the busiest home server climbs above the
    # balance band's midpoint — otherwise the underload planner has no
    # feeder and the scenario decides nothing.
    _spawn_estore_readers(bed, setup, 16, duration_ms, "estore-key-pick")
    # Traffic, then an idle tail as in the PageRank scenario.
    bed.run(until_ms=duration_ms + 25_000.0)
    return _finish(bed, manager, tracer, checker, _estore_refs(setup))


def run_gem_respawn_scenario():
    """The only GEM dies, the failure detector respawns a replacement,
    then the original recovers: on the flat plane both stay in the
    shuffle and vote as peers — a one-group GEM tree must not treat the
    replacement as an outsider the way a multi-group tree does.
    Returns the observation and each GEM's processed-round count."""
    bed = build_cluster(3, "m1.small", seed=1)
    setup = build_estore(bed, num_roots=8, children_per_root=2,
                         num_home_servers=1)
    policy = compile_source(ESTORE_POLICY, [Partition])
    manager = ElasticityManager(bed.system, policy, EmrConfig(
        period_ms=2_000.0, gem_wait_ms=300.0, lem_stagger_ms=10.0,
        suspicion_timeout_ms=3_000.0, max_scale_out_per_period=1,
        min_servers=1))
    tracer, checker = _start_instrumented(manager)
    ChaosEngine(bed.system, FaultPlan(faults=(
        KillGem(at_ms=2_500.0, gem_id=0, recover_after_ms=5_000.0),)),
        manager=manager).start()
    duration_ms = 30_000.0
    _spawn_estore_readers(bed, setup, 12, duration_ms, "respawn-key-pick")
    bed.run(until_ms=duration_ms + 2_000.0)
    observed = _finish(bed, manager, tracer, checker, _estore_refs(setup))
    return observed, [gem.rounds_processed for gem in manager.gems]


def trace_digest(observed):
    """Human-diffable digest of one equivalence-scenario run: one line
    per placement and per migration, the event trace by hash."""
    trace, placements, migrations, cache = observed
    return {
        "trace_sha256": hashlib.sha256(
            "\n".join(trace).encode()).hexdigest(),
        "trace_events": len(trace),
        "placements": {ref: server for ref, server in placements},
        "migrations": [f"{time_ms!r} {actor} {src}->{dst}"
                       for time_ms, actor, src, dst in migrations],
        "snapshot_cache_hits": cache[0],
        "snapshot_cache_misses": cache[1],
    }


# ---------------------------------------------------------------------------
# fuzz scenarios
# ---------------------------------------------------------------------------

def result_fingerprint(result):
    """Every externally observable field of a FuzzResult (minus the
    scenario itself, which is the input)."""
    return {
        "violations": [str(v) for v in result.violations],
        "error": result.error,
        "migrations": result.migrations,
        "sim_time_ms": result.sim_time_ms,
        "checks_run": result.checks_run,
        "messages_dropped": result.messages_dropped,
        "partition_drops": result.partition_drops,
        "checkpoints_written": result.checkpoints_written,
        "checkpoints_acked": result.checkpoints_acked,
        "state_restores": result.state_restores,
        "messages_shed": result.messages_shed,
        "requests_rejected": result.requests_rejected,
        "dead_letters": result.dead_letters,
        "store_summary": result.store_summary,
    }


def _gem_respawn_case():
    observed, rounds = run_gem_respawn_scenario()
    return dict(trace_digest(observed), gem_rounds_processed=rounds)


def _corpus_case(path):
    return lambda: result_fingerprint(run_scenario(load_fuzz_scenario(path)))


def _generated_case(profile, seed):
    return lambda: result_fingerprint(
        run_scenario(generate_scenario(seed, profile)))


def cases():
    """Case name -> zero-argument function returning its digest dict."""
    table = {
        "fig7-pagerank": lambda: trace_digest(run_pagerank_scenario()),
        "fig9-estore": lambda: trace_digest(run_estore_scenario()),
        "gem-respawn": _gem_respawn_case,
    }
    for path in CORPUS:
        table[f"corpus/{os.path.basename(path)[:-5]}"] = _corpus_case(path)
    for profile, seed in GENERATED:
        table[f"generated/{profile}-{seed}"] = _generated_case(profile, seed)
    return table


def digest(name):
    """Run case ``name`` once; the digest as it reads back from JSON
    (tuples become lists, int keys become strings)."""
    return json.loads(json.dumps(cases()[name]()))


def load_digests():
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def main(argv):
    if argv == ["--record"]:
        recorded = {name: digest(name) for name in cases()}
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {len(recorded)} digests -> {DIGESTS_PATH}")
        return 0
    json.dump({name: digest(name) for name in argv or cases()},
              sys.stdout, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
