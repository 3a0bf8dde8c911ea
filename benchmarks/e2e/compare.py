#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --json`` prints, one per line, for
any number of runs and workloads (``A`` is the parent, ``B`` the change;
for the acceptance check both are the same commit).  For every workload
and end-to-end metric the tool prints each set's median and quartiles,
and the change of the median in the metric's *worse* direction as a
share of A's median, next to the bound:

``ok``          the change is within the bound;
``WORSE``       B's median is worse than A's by more than the bound;
``unresolved``  a set's own quartile spread (IQR / median) exceeds the
                bound, so this comparison cannot tell (never "unchanged").
                Not applied to ``setup_s``, as in the benchmark driver:
                where set-up generates the inputs it follows the seed.

A cell a workload has no metric for (``stands_in`` in the record: it
repeats another cell of the same workload) is not compared.

Runs of the same sim workload and seed present in both sets must also
agree *exactly* on ``model_ms`` and on every count: simulated quantities
are deterministic, so any difference is a behaviour change, whatever its
size (the live workload runs on the wall clock and is exempt).  Exit
code 1 on any ``WORSE`` or exact mismatch.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(runs: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def exact_mismatches(a_runs: List[Dict[str, Any]],
                     b_runs: List[Dict[str, Any]]) -> List[str]:
    """Differences in simulated quantities between same-seed runs."""
    found = []
    b_by_seed = {(r["seed"], r["scale"]): r for r in b_runs}
    for a in a_runs:
        b = b_by_seed.get((a["seed"], a["scale"]))
        if b is None or not (a["exact"] and b["exact"]):
            continue
        pairs = [(name, a["counts"].get(name), b["counts"].get(name))
                 for name in sorted(set(a["counts"]) | set(b["counts"]))]
        a_model, b_model = (r["end_to_end"]["model_ms"] for r in (a, b))
        if "stands_in" not in a_model and "stands_in" not in b_model:
            pairs.append(("model_ms", a_model["value"], b_model["value"]))
        for name, left, right in pairs:
            if left != right:
                found.append(f"{a['workload']} seed {a['seed']}: {name} "
                             f"{left!r} != {right!r}")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a_sets, b_sets = (by_workload(load_runs(path)) for path in argv)
    worse = unresolved = 0
    mismatches: List[str] = []
    print(f"{'workload':<15}{'metric':<15}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'change':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = a_sets.get(workload), b_sets.get(workload)
        if not a_runs or not b_runs:
            continue
        mismatches += exact_mismatches(a_runs, b_runs)
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            if any("stands_in" in r["end_to_end"][name]
                   for r in a_runs + b_runs):
                continue
            a_q1, a_med, a_q3 = quartiles(
                [r["end_to_end"][name]["value"] for r in a_runs])
            b_q1, b_med, b_q3 = quartiles(
                [r["end_to_end"][name]["value"] for r in b_runs])
            change = (b_med - a_med) / a_med
            if entry["better"] == "higher":
                change = -change
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            if name != "setup_s" and spread > bound:
                verdict = "unresolved"
                unresolved += 1
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<15}{name:<15}"
                  f"{a_med:>12.5g} [{a_q1:>8.4g}, {a_q3:>8.4g}]"
                  f"{b_med:>12.5g} [{b_q1:>8.4g}, {b_q3:>8.4g}]"
                  f"{change:>+9.3f}{bound:>7}  {verdict}")
    for line in mismatches:
        print(f"EXACT MISMATCH: {line}")
    print(f"{worse} worse, {unresolved} unresolved, "
          f"{len(mismatches)} exact mismatch(es)")
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
