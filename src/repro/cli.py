"""Command-line interface.

    python -m repro compile POLICY_FILE --app APP     # compile + lint
    python -m repro compile POLICY_FILE --classes m:C # against own actors
    python -m repro apps                              # list bundled apps
    python -m repro experiment NAME [--quick]         # run one experiment
    python -m repro experiments                       # list experiments
    python -m repro fuzz --seeds 50                   # fuzz campaign
    python -m repro fuzz --replay ARTIFACT.json       # replay a failure
    python -m repro store --seed 7                    # checkpoint store

The ``compile`` command is the "PLASMA compiler" entry point of the
paper's Fig. 2: it parses the elasticity policy, validates it against an
actor program, prints conflict warnings, and emits the elasticity
configuration JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from .bench import format_table
from .core.epl import EplError, compile_source

__all__ = ["main"]


def _app_registry() -> Dict[str, Tuple[str, list]]:
    """Bundled applications: name -> (policy source, actor classes)."""
    from . import apps
    from .apps.btree import InnerNode, LeafNode
    from .apps.cassandra import Replica
    from .apps.estore import Partition
    from .apps.halo import Player, Router, Session
    from .apps.metadata import File, Folder
    from .apps.pagerank import PageRankWorker
    from .apps.piccolo import PiccoloWorker, Table
    from .apps.zexpander import CacheLeaf, IndexNode

    return {
        "metadata": (apps.METADATA_POLICY, [Folder, File]),
        "pagerank": (apps.PAGERANK_POLICY, [PageRankWorker]),
        "estore": (apps.ESTORE_POLICY, [Partition]),
        "media": (apps.MEDIA_POLICY, apps.MEDIA_ACTOR_CLASSES),
        "halo": (apps.HALO_INTERACTION_POLICY, [Router, Session, Player]),
        "btree": (apps.BTREE_POLICY, [InnerNode, LeafNode]),
        "piccolo": (apps.PICCOLO_POLICY, [PiccoloWorker, Table]),
        "zexpander": (apps.ZEXPANDER_POLICY, [IndexNode, CacheLeaf]),
        "cassandra": (apps.CASSANDRA_POLICY, [Replica]),
    }


def _resolve_classes(specs: Sequence[str]) -> list:
    """Resolve ``module:Class[,Class...]`` specs to actor classes."""
    classes = []
    for spec in specs:
        module_name, _, names = spec.partition(":")
        if not names:
            raise SystemExit(
                f"bad --classes spec {spec!r}; expected module:Class,...")
        module = importlib.import_module(module_name)
        for name in names.split(","):
            classes.append(getattr(module, name))
    return classes


# -- commands -----------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    if args.app:
        registry = _app_registry()
        if args.app not in registry:
            raise SystemExit(f"unknown app {args.app!r}; see `apps`")
        default_policy, classes = registry[args.app]
        source = default_policy
        if args.policy:
            with open(args.policy) as handle:
                source = handle.read()
    else:
        if not args.policy or not args.classes:
            raise SystemExit(
                "compile needs either --app APP or POLICY --classes ...")
        with open(args.policy) as handle:
            source = handle.read()
        classes = _resolve_classes(args.classes)

    try:
        compiled = compile_source(source, classes)
    except EplError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"compiled {compiled.rule_count()} rules "
          f"({len(compiled.actor_rules)} LEM-side, "
          f"{len(compiled.resource_rules)} GEM-side)")
    for warning in compiled.warnings:
        print(f"warning: {warning}")
    if args.json:
        print(compiled.to_json())
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    rows = []
    for name, (policy, classes) in sorted(_app_registry().items()):
        compiled = compile_source(policy, classes)
        rows.append([name, compiled.rule_count(),
                     ", ".join(sorted(c.__name__ for c in classes))])
    print(format_table(["app", "rules", "actor types"], rows,
                       title="Bundled PLASMA applications (paper Table 1)"))
    return 0


def _experiment_registry() -> Dict[str, Tuple[str, Callable]]:
    def fig5(quick: bool):
        from .apps.metadata import run_metadata_experiment
        scale = dict(num_clients=8, duration_ms=90_000.0,
                     period_ms=25_000.0) if quick else {}
        rows = []
        for mode in ("res-col-rule", "def-rule", "no-rule"):
            result = run_metadata_experiment(mode, **scale)
            rows.append([mode, result.mean_before_ms,
                         result.mean_after_ms, result.migrations])
        print(format_table(
            ["setup", "before (ms)", "after (ms)", "migrations"], rows,
            title="Fig. 5 — Metadata Server"))

    def fig9(quick: bool):
        from .apps.estore import run_estore_experiment
        scale = dict(num_clients=24, duration_ms=110_000.0,
                     period_ms=25_000.0) if quick else {}
        rows = []
        for mode in ("plasma", "in-app", "none"):
            result = run_estore_experiment(mode, **scale)
            rows.append([mode, result.mean_before_ms,
                         result.mean_after_ms, result.migrations])
        print(format_table(
            ["setup", "before (ms)", "after (ms)", "migrations"], rows,
            title="Fig. 9 — E-Store"))

    def fig11a(quick: bool):
        from .apps.halo import run_halo_interaction_experiment
        scale = dict(num_clients=12, rounds=2, round_ms=30_000.0,
                     period_ms=10_000.0, heartbeat_ms=200.0) \
            if quick else {}
        rows = []
        for mode in ("inter-rule", "def-rule"):
            result = run_halo_interaction_experiment(mode, **scale)
            rows.append([mode, result.mean_latency_ms, result.migrations])
        print(format_table(
            ["rule", "mean latency (ms)", "migrations"], rows,
            title="Fig. 11a — Halo Presence"))

    return {
        "fig5": ("Metadata Server: semantic vs blind rule", fig5),
        "fig9": ("E-Store: PLASMA rules vs in-app elasticity", fig9),
        "fig11a": ("Halo: interaction rule vs frequency colocation",
                   fig11a),
    }


def cmd_experiments(args: argparse.Namespace) -> int:
    rows = [[name, description]
            for name, (description, _run)
            in sorted(_experiment_registry().items())]
    print(format_table(["experiment", "description"], rows,
                       title="Runnable experiments (full set: "
                             "pytest benchmarks/ --benchmark-only)"))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.name not in registry:
        raise SystemExit(f"unknown experiment {args.name!r}; "
                         f"see `experiments`")
    _description, run = registry[args.name]
    run(args.quick)
    return 0


ARTIFACT_FORMAT = "repro-fuzz-artifact/1"


def load_fuzz_scenario(path: str):
    """Load a scenario from a scenario JSON or a failure artifact."""
    from .fuzz import SCENARIO_FORMAT, Scenario
    with open(path) as handle:
        data = json.load(handle)
    if data.get("format") == ARTIFACT_FORMAT:
        return Scenario.from_jsonable(data["scenario"])
    if data.get("format") == SCENARIO_FORMAT:
        return Scenario.from_jsonable(data)
    raise SystemExit(f"{path}: not a fuzz scenario or artifact "
                     f"(format={data.get('format')!r})")


def _write_artifact(out_dir: str, seed: int, scenario, result,
                    shrink_runs: int) -> str:
    import os
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"seed-{seed}.json")
    artifact = {
        "format": ARTIFACT_FORMAT,
        "found_seed": seed,
        "failure": result.summary(),
        "violations": [str(v) for v in result.violations],
        "shrink_runs": shrink_runs,
        "scenario": scenario.to_jsonable(),
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def cmd_fuzz(args: argparse.Namespace) -> int:
    import hashlib
    import time
    from .fuzz import (failure_signature, generate_scenario, run_scenario,
                       shrink)

    if args.replay:
        scenario = load_fuzz_scenario(args.replay)
        print(f"replaying {args.replay}: {scenario.describe()}")
        result = run_scenario(scenario, with_trace=args.trace)
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        if result.error:
            print(result.error)
        for line in result.trace_tail:
            print(f"  trace: {line}")
        return 0 if result.ok else 1

    started = time.monotonic()
    campaign = hashlib.sha256()
    failures = 0
    total_drops = 0
    total_shed = 0
    total_dead_letters = 0
    total_root_failovers = 0
    total_leaf_failovers = 0
    seeds_run = 0
    for index in range(args.seeds):
        if args.budget_s and time.monotonic() - started > args.budget_s:
            print(f"budget of {args.budget_s}s exhausted after "
                  f"{index} seed(s)")
            break
        seed = args.seed_start + index
        scenario = generate_scenario(seed, profile=args.profile)
        result = run_scenario(scenario)
        campaign.update(result.fingerprint().encode())
        seeds_run += 1
        status = result.summary()
        total_drops += result.messages_dropped
        total_shed += result.messages_shed
        total_dead_letters += result.dead_letters
        total_root_failovers += result.root_failovers
        total_leaf_failovers += result.leaf_failovers
        print(f"seed {seed:6d}  {scenario.describe():50s} {status}")
        if result.ok:
            continue
        failures += 1
        shrink_runs = 0
        if not args.no_shrink:
            scenario, result, shrink_runs = shrink(
                scenario, result,
                log=lambda msg: print(f"    {msg}"))
        path = _write_artifact(args.out, seed, scenario, result,
                               shrink_runs)
        print(f"    failure minimized to {path} "
              f"({result.summary()})")
    elapsed = time.monotonic() - started
    overload_note = (f", {total_shed} shed, "
                     f"{total_dead_letters} dead-letter(s)"
                     if total_shed or total_dead_letters else "")
    failover_note = (f", {total_root_failovers} root failover(s), "
                     f"{total_leaf_failovers} leaf failover(s)"
                     if total_root_failovers or total_leaf_failovers
                     else "")
    print(f"{seeds_run} seed(s) in {elapsed:.1f}s: "
          f"{failures} failure(s), "
          f"{total_drops} fabric message(s) dropped"
          f"{overload_note}{failover_note}")
    print(f"campaign sha256 {campaign.hexdigest()}")
    return 1 if failures else 0


def cmd_store(args: argparse.Namespace) -> int:
    """Run one scenario with durability forced on; dump the store."""
    from dataclasses import replace as dc_replace
    from .fuzz import generate_scenario, run_scenario

    if args.scenario:
        scenario = load_fuzz_scenario(args.scenario)
    else:
        scenario = generate_scenario(args.seed, profile="durability")
    durability = dict(scenario.durability or {})
    durability.setdefault("checkpoint_interval_ms", scenario.period_ms)
    if args.interval_ms is not None:
        durability["checkpoint_interval_ms"] = args.interval_ms
    if args.replication is not None:
        durability["replication_factor"] = args.replication
    scenario = dc_replace(scenario, durability=durability)

    # Keep stdout machine-readable under --json.
    print(f"running {scenario.describe()}",
          file=sys.stderr if args.json else sys.stdout)
    result = run_scenario(scenario)
    if result.error:
        print(result.error)
        return 1
    summary = result.store_summary
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if result.ok else 1
    rows = [[row["actor_id"], row["type"], row["written"], row["kept"],
             row["acked_seq"] if row["acked_seq"] is not None else "-",
             f"{row['size_bytes'] / 1024.0:.1f}",
             ",".join(row["replicas"]) or "-"]
            for row in summary["actors"]]
    print(format_table(
        ["actor", "type", "written", "kept", "acked seq", "size (KiB)",
         "replicas"], rows, title="Checkpoint store"))
    journal = summary["journal"]
    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in journal["kinds"].items())
    print(f"journal: {journal['entries']} entrie(s) "
          f"({journal['trimmed']} trimmed) {kinds}")
    totals = summary["totals"]
    print(f"totals: {totals['checkpoints_written']} written, "
          f"{totals['checkpoints_acked']} acked, "
          f"{totals['checkpoints_lost']} lost, "
          f"{totals['restores']} restore(s) "
          f"({totals['restore_misses']} miss(es)), "
          f"{totals['journal_replays']} journal entrie(s) replayed, "
          f"{totals['bytes_replicated'] / 1048576.0:.2f} MiB replicated")
    for violation in result.violations:
        print(f"  violation: {violation}")
    return 0 if result.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a live app over HTTP until interrupted."""
    import asyncio

    from .live import (FrontDoor, LiveActorSystem, LiveElasticityManager,
                       LiveEmrConfig, build_live_app)

    async def serve() -> int:
        system = LiveActorSystem(mailbox_capacity=args.mailbox_capacity)
        for _ in range(max(1, args.servers)):
            system.add_server()
        app = build_live_app(args.app, system)
        await app.setup()
        front = FrontDoor(app.handle, host=args.host, port=args.port)
        await front.start()
        manager = None
        if not args.no_emr:
            manager = LiveElasticityManager(
                system, policy=app.policy(),
                config=LiveEmrConfig(period_ms=args.period_ms))
            manager.start()
        print(f"serving {args.app} on http://{front.host}:{front.port} "
              f"({args.servers} server(s), "
              f"emr={'off' if args.no_emr else 'on'}) — Ctrl-C to stop")
        try:
            while True:
                await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            if manager is not None:
                await manager.stop()
            await front.stop()
            await system.shutdown()
        return 0

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """In-process live load test; exit nonzero on unbalanced books."""
    from .live.harness import live_loadtest

    result = live_loadtest(
        app_name=args.app, rate_per_s=args.rate, duration_s=args.duration_s,
        servers=args.servers, migrate_at_s=args.migrate_at_s,
        scale_out_at_s=args.scale_out_at_s,
        emr=not args.no_emr, period_ms=args.period_ms,
        mailbox_capacity=args.mailbox_capacity,
        connections=args.connections, flash_crowd=args.flash_crowd,
        seed=args.seed)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
    else:
        requests = result["requests"]
        print(f"{requests['sent']} requests in {requests['duration_s']}s "
              f"({requests['rps']} req/s): {requests['ok']} ok, "
              f"{requests['shed']} shed, {requests['http_errors']} errors, "
              f"{requests['timeouts']} timeouts")
        rows = [[phase,
                 summary["count"],
                 f"{summary['p50']:.2f}" if summary["p50"] is not None else "-",
                 f"{summary['p95']:.2f}" if summary["p95"] is not None else "-",
                 f"{summary['p99']:.2f}" if summary["p99"] is not None else "-"]
                for phase, summary in requests["phases"].items()]
        print(format_table(["phase", "count", "p50 ms", "p95 ms", "p99 ms"],
                           rows, title="Latency by phase"))
        ledger = result["ledger"]
        print(f"ledger: issued={ledger['issued']} "
              f"answered={ledger['answered']} rejected={ledger['rejected']} "
              f"shed={ledger['shed']} failed={ledger['failed']} "
              f"outstanding={ledger['outstanding']} "
              f"balanced={result['ledger_balanced']}")
        for move in result["migrations"]["forced"]:
            print(f"migration: actor {move['actor']} {move['from']} -> "
                  f"{move['to']} moved={move['moved']} "
                  f"wall={move['wall_ms']}ms")
    ok = (result["ledger_balanced"] and result["client_balanced"]
          and result["runtime"]["handler_errors"] == 0
          and result["requests"]["transport_errors"] == 0)
    if not ok:
        print("FAIL: lost or unaccounted requests", file=sys.stderr)
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------------


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLASMA reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile and lint an elasticity policy")
    p_compile.add_argument("policy", nargs="?",
                           help="path to an EPL policy file")
    p_compile.add_argument("--app", help="validate against a bundled "
                                         "application's actor program")
    p_compile.add_argument("--classes", nargs="*",
                           help="actor classes as module:Class,Class")
    p_compile.add_argument("--json", action="store_true",
                           help="print the elasticity configuration JSON")
    p_compile.set_defaults(func=cmd_compile)

    p_apps = sub.add_parser("apps", help="list bundled applications")
    p_apps.set_defaults(func=cmd_apps)

    p_experiments = sub.add_parser("experiments",
                                   help="list runnable experiments")
    p_experiments.set_defaults(func=cmd_experiments)

    p_experiment = sub.add_parser("experiment",
                                  help="run one experiment")
    p_experiment.add_argument("name")
    p_experiment.add_argument("--quick", action="store_true",
                              help="scaled-down parameters")
    p_experiment.set_defaults(func=cmd_experiment)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the elasticity stack under the invariant "
                     "checker")
    p_fuzz.add_argument("--seeds", type=int, default=20,
                        help="number of fresh seeds to run (default 20)")
    p_fuzz.add_argument("--seed-start", type=int, default=0,
                        help="first seed of the campaign (default 0)")
    p_fuzz.add_argument("--budget-s", type=float, default=0.0,
                        help="wall-clock budget; stop starting new "
                             "seeds after this many seconds")
    p_fuzz.add_argument("--out", default="fuzz-artifacts",
                        help="directory for shrunk failure artifacts")
    p_fuzz.add_argument("--profile",
                        choices=("default", "partition", "durability",
                                 "overload", "scale", "scale-chaos"),
                        default="default",
                        help="generator emphasis: 'partition' injects a "
                             "network partition into every scenario; "
                             "'durability' enables checkpointing and "
                             "crashes a server mid-run; 'overload' "
                             "enables bounded mailboxes/brownout and "
                             "injects a load storm; 'scale' runs the "
                             "hierarchical control plane with a "
                             "randomized group topology; 'scale-chaos' "
                             "adds root/leaf "
                             "kills, server crashes, and partitions on "
                             "top of the scale topology")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="write failures unshrunk")
    p_fuzz.add_argument("--replay", metavar="FILE",
                        help="replay one scenario or artifact JSON "
                             "instead of fuzzing")
    p_fuzz.add_argument("--trace", action="store_true",
                        help="with --replay: attach the tracer and "
                             "print the trace tail on failure")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_store = sub.add_parser(
        "store", help="run one scenario with durable state forced on "
                      "and inspect the checkpoint store")
    p_store.add_argument("--seed", type=int, default=0,
                         help="generate the scenario from this seed "
                              "(durability profile; default 0)")
    p_store.add_argument("--scenario", metavar="FILE",
                         help="run a scenario or artifact JSON instead "
                              "of a generated seed")
    p_store.add_argument("--interval-ms", type=float, default=None,
                         help="override the checkpoint interval")
    p_store.add_argument("--replication", type=int, default=None,
                         help="override the replication factor")
    p_store.add_argument("--json", action="store_true",
                         help="print the raw store summary as JSON")
    p_store.set_defaults(func=cmd_store)

    p_serve = sub.add_parser(
        "serve", help="serve a live app (asyncio backend) over HTTP")
    p_serve.add_argument("--app", default="chatroom",
                         choices=("chatroom", "metadata"))
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--servers", type=int, default=2,
                         help="logical placement servers (default 2)")
    p_serve.add_argument("--period-ms", type=float, default=250.0,
                         help="live EMR control period (default 250)")
    p_serve.add_argument("--mailbox-capacity", type=int, default=None,
                         help="bounded mailboxes: shed client sends "
                              "beyond this depth")
    p_serve.add_argument("--no-emr", action="store_true",
                         help="serve without elasticity management")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadtest", help="boot a live app in-process and load it "
                         "(open loop), reporting phase latencies and "
                         "the request disposition ledger")
    p_load.add_argument("--app", default="chatroom",
                        choices=("chatroom", "metadata"))
    p_load.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop arrival rate, req/s (default 2000)")
    p_load.add_argument("--duration-s", type=float, default=4.0)
    p_load.add_argument("--servers", type=int, default=2)
    p_load.add_argument("--migrate-at-s", type=float, default=None,
                        help="force-migrate the hot actor at this offset")
    p_load.add_argument("--scale-out-at-s", type=float, default=None,
                        help="add a server and move an actor onto it "
                             "at this offset")
    p_load.add_argument("--period-ms", type=float, default=250.0)
    p_load.add_argument("--mailbox-capacity", type=int, default=None)
    p_load.add_argument("--connections", type=int, default=32)
    p_load.add_argument("--flash-crowd", action="store_true",
                        help="add a mid-run flash-crowd burst")
    p_load.add_argument("--seed", type=int, default=42)
    p_load.add_argument("--no-emr", action="store_true")
    p_load.add_argument("--json", action="store_true")
    p_load.set_defaults(func=cmd_loadtest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
