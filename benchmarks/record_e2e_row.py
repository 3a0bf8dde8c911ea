#!/usr/bin/env python3
"""Append one row to ``BENCH_e2e.json``: the committed e2e trajectory.

    python benchmarks/record_e2e_row.py LABEL parent.jsonl change.jsonl

The two files are the ``run.py --json`` records ``benchmarks/e2e/
compare.py`` judges (alternating parent/change runs, same seeds on both
sides).  The row keeps, per workload and end-to-end metric, each side's
median and quartiles — computed by ``compare.py``'s own helpers, so the
trajectory and the verdict can never disagree — and how many ops failed.
Stand-in cells are left out, as in ``compare.py``.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from benchmarks.e2e.compare import by_workload, load_runs, quartiles  # noqa: E402

PATH = os.path.join(ROOT, "BENCH_e2e.json")


def summary(runs, metric):
    q1, median, q3 = quartiles([r["end_to_end"][metric]["value"]
                                for r in runs])
    return {"median": round(median, 5), "q1": round(q1, 5),
            "q3": round(q3, 5)}


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    label, parent_path, change_path = argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parent, change = (by_workload(load_runs(path))
                      for path in (parent_path, change_path))
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = parent.get(workload), change.get(workload)
        if not a_runs or not b_runs:
            continue
        cells = {}
        for metric in (entry["name"] for entry in spec["end_to_end"]):
            if any("stands_in" in r["end_to_end"][metric]
                   for r in a_runs + b_runs):
                continue
            cells[metric] = {"parent": summary(a_runs, metric),
                             "change": summary(b_runs, metric)}
        workloads[workload] = {
            "runs": [len(a_runs), len(b_runs)],
            "failed": [sum(r["failed"] for r in a_runs),
                       sum(r["failed"] for r in b_runs)],
            "end_to_end": cells}
    some = next(iter(change.values()))[0]
    row = {"label": label, "scale": some["scale"],
           "seconds": some["seconds"],
           "seeds": sorted({r["seed"] for runs in change.values()
                            for r in runs}),
           "workloads": workloads}
    if os.path.exists(PATH):
        with open(PATH) as handle:
            document = json.load(handle)
    else:
        document = {"schema": 1, "rows": []}
    document["rows"].append(row)
    text = json.dumps(document, indent=1, sort_keys=True)
    # One line per innermost object or list: a row stays readable in a diff.
    text = re.sub(r"[\[{][^\[\]{}]*[\]}]",
                  lambda m: re.sub(r"\s+", " ", m.group(0)), text)
    with open(PATH, "w") as handle:
        handle.write(text + "\n")
    print(f"{PATH}: {len(document['rows'])} row(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
