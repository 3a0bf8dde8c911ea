#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--scale full|tiny] [--json]

Each workload runs in a fresh, single-threaded worker process started
with ``PYTHONHASHSEED=0``.  End-to-end numbers always come from untraced
runs; ``--trace`` adds one traced repeat for the per-layer numbers and
writes ``benchmarks/e2e/out/trace-<workload>.json``.  With ``--workload``
the last line of standard output is the result object the benchmark
driver reads (end-to-end metrics, or per-layer metrics under ``--trace
1``); ``--json`` prints the full record instead.  The exit code is
non-zero when an output check fails.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
``README.md`` beside this file explains what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 12


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv: List[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced repeat and report per-layer "
                             "metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' is for the smoke test only")
    parser.add_argument("--json", action="store_true",
                        help="print one full JSON record per workload")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def worker_main(args: argparse.Namespace) -> int:
    from e2e.worker import run_workload
    record = run_workload(args.workload, args.seed, args.seconds,
                          args.scale, bool(args.trace))
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def spawn_worker(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and return its record."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    # numpy must not start BLAS threads: one worker, one thread.
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[knob] = "1"
    command = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    # The benchmark driver allows a run 180 s.
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          timeout=170.0, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def result_object(record: Dict[str, Any], spec: Dict[str, Any],
                  traced: bool) -> Dict[str, Any]:
    """The object the benchmark driver reads from the last line.

    A per-layer metric whose wrap target is gone (``null`` in the report)
    is left out: the driver wants numbers, and a 0 would read as a gain.
    """
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        value = record[section][entry["name"]]
        if isinstance(value, dict):
            value = value["value"]
        if value is not None:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_report(record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    e2e = record["end_to_end"]
    repeats = e2e["wall_s"].get("k", 1)
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  scale {record['scale']}  "
          f"{repeats} repeat(s)  op = {record['op']} ==")
    print("  end-to-end (untraced; median, max and k are of the whole "
          "repeats)")
    print(f"    {'name':<15}{'value':>12} {'unit':<6}{'better':<8}"
          f"{'bound':>6}{'median':>12}{'max':>12}{'k':>7}")
    for entry in spec["end_to_end"]:
        cell = e2e[entry["name"]]
        note = (f"  n/a here: reads {cell['stands_in']}"
                if "stands_in" in cell else "")
        print(f"    {entry['name']:<15}{_number(cell['value']):>12} "
              f"{entry['unit']:<6}{entry['better']:<8}"
              f"{entry['bound']:>6}"
              f"{_number(cell['median']) if 'median' in cell else '':>12}"
              f"{_number(cell['max']) if 'max' in cell else '':>12}"
              f"{cell.get('k', ''):>7}{note}")
    counts = "  ".join(f"{k}={v}" for k, v in record["counts"].items())
    print(f"  ops attempted {record['attempted']}, failed "
          f"{record['failed']}   exact counts: {counts}")
    if record.get("per_layer") is not None:
        print(f"  per-layer (one traced repeat; {record['trace_file']})")
        for entry in spec["per_layer"]:
            value = record["per_layer"].get(entry["name"])
            print(f"    {entry['name']:<28}{_number(value):>12} "
                  f"{entry['unit']:<6}{entry['better']}")
        gone = [e["name"] for e in spec["per_layer"]
                if record["per_layer"].get(e["name"]) is None]
        if gone:
            print(f"  WARNING: wrap target gone, no value for: "
                  f"{', '.join(gone)}")
    if record["problems"]:
        for problem in record["problems"]:
            print(f"  CHECK FAILED: {problem}")
    else:
        print("  output checks: ok")


def main(argv: List[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.worker:
        return worker_main(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"{os.path.join(ROOT, 'src', 'repro')} not found: the "
              "benchmark measures the repository it sits in", file=sys.stderr)
        return 2
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    correct = True
    for name in names:
        record = spawn_worker(name, args)
        correct = correct and record["correct"]
        if args.json:
            print(json.dumps(record))
            continue
        print_report(record, spec)
        if args.workload:
            print(json.dumps(result_object(record, spec, bool(args.trace))))
    return 0 if correct else 1


if __name__ == "__main__":
    # Siblings are imported as the package ``e2e`` (never as top-level
    # modules): ``trace.py`` must not shadow the standard library's.
    sys.path[0] = os.path.dirname(HERE)
    sys.exit(main(sys.argv[1:]))
