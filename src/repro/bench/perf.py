"""Micro-benchmark timing and the ``BENCH_perf.json`` trajectory file.

The perf suite (``benchmarks/test_perf_hotpath.py``) measures the
elasticity hot paths — profiling ingest, actor snapshotting, GEM rule
evaluation, and the simulation kernel — and records the numbers into
``BENCH_perf.json`` at the repository root so successive PRs accumulate
a performance trajectory.

Two kinds of metrics are recorded per benchmark:

* **absolute** numbers (``*_ms``, ``*_ops_per_sec``) — machine-dependent,
  useful locally for before/after comparison on one machine;
* **ratios** (``*_ratio``: two costs measured in the same process on the
  same machine, e.g. ``scale_cluster.root_decision_scaling_ratio``;
  lower is better) — machine-independent, which is what CI gates on.  A
  ratio that grows past the committed baseline by more than the
  tolerance fails the job that measures it.

The hot-path layers have one implementation each and therefore no
in-process reference to take a ratio against; their regression guard is
the end-to-end benchmark (``benchmarks/e2e``).

A few absolute metrics are additionally **floor-gated**
(:func:`check_floors`): CI passes ``--floor bench.metric`` for numbers
that must not collapse below a fraction of the committed baseline —
e.g. ``sim_kernel.engine_events_per_sec``, where a silent fallback off
the calendar kernel's fast paths would otherwise only show up as an
untracked trajectory dip.

``python -m repro.bench.perf baseline.json current.json`` runs the
regression check standalone (exit code 1 on regression).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["Timing", "time_ops", "default_bench_path", "load_bench",
           "record_metrics", "check_regression", "check_floors"]

#: Tolerated relative growth of a ``*_ratio`` metric vs. the baseline.
DEFAULT_MAX_REGRESSION = 0.20

#: Fraction of the committed baseline a floor-gated absolute metric must
#: still reach.  Generous because absolute numbers are machine-dependent;
#: the floor exists to catch order-of-magnitude collapses (an accidental
#: fallback to a slow path), not few-percent drift.
DEFAULT_FLOOR_FRACTION = 0.90


@dataclass
class Timing:
    """Result of :func:`time_ops`: best-of-``repeats`` wall time."""

    best_s: float
    ops: int

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.best_s if self.best_s > 0 else float("inf")

    @property
    def ms_per_op(self) -> float:
        return 1000.0 * self.best_s / self.ops if self.ops else 0.0


def time_ops(fn: Callable[[], object], ops: int = 1,
             repeats: int = 3) -> Timing:
    """Time ``fn()`` (which performs ``ops`` operations), best of
    ``repeats`` runs — the standard way to suppress scheduler noise in a
    shared-runner environment."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return Timing(best_s=best, ops=ops)


def default_bench_path() -> str:
    """``$BENCH_PERF_PATH`` if set, else ``BENCH_perf.json`` at the repo
    root (three levels above this module in a source checkout)."""
    override = os.environ.get("BENCH_PERF_PATH")
    if override:
        return override
    root = os.path.abspath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", ".."))
    return os.path.join(root, "BENCH_perf.json")


def load_bench(path: Optional[str] = None) -> dict:
    """Load a bench file, or an empty document if none exists yet."""
    path = path or default_bench_path()
    if not os.path.exists(path):
        return {"schema": 1, "benchmarks": {}}
    with open(path) as handle:
        data = json.load(handle)
    data.setdefault("benchmarks", {})
    return data


def record_metrics(name: str, metrics: Dict[str, float],
                   path: Optional[str] = None) -> str:
    """Merge ``metrics`` for benchmark ``name`` into the trajectory file.

    Values are rounded to keep the committed file diff-friendly; ratios
    get more digits than wall times because they are the gated metrics.
    """
    path = path or default_bench_path()
    data = load_bench(path)
    rounded = {}
    for key, value in sorted(metrics.items()):
        digits = 4 if key.endswith("_ratio") else 2
        rounded[key] = round(float(value), digits)
    data["benchmarks"][name] = rounded
    data["benchmarks"] = dict(sorted(data["benchmarks"].items()))
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def check_regression(baseline: dict, current: dict,
                     max_regression: float = DEFAULT_MAX_REGRESSION
                     ) -> List[str]:
    """Compare ``*_ratio`` metrics of ``current`` against ``baseline``.

    Returns human-readable failure messages for every ratio that grew by
    more than ``max_regression`` (e.g. root decision cost growing faster
    relative to the fleet).
    Benchmarks or metrics missing on either side are skipped — a new
    benchmark cannot fail its own introduction.
    """
    failures: List[str] = []
    base_benches = baseline.get("benchmarks", {})
    for name, metrics in current.get("benchmarks", {}).items():
        base_metrics = base_benches.get(name)
        if not base_metrics:
            continue
        for key, value in metrics.items():
            if not key.endswith("_ratio"):
                continue
            base_value = base_metrics.get(key)
            if base_value is None or base_value <= 0:
                continue
            if value > base_value * (1.0 + max_regression):
                failures.append(
                    f"{name}.{key}: {value:.4f} vs baseline "
                    f"{base_value:.4f} (>{100 * max_regression:.0f}% "
                    f"regression)")
    return failures


def check_floors(baseline: dict, current: dict, floors: List[str],
                 floor_fraction: float = DEFAULT_FLOOR_FRACTION
                 ) -> List[str]:
    """Hold selected absolute metrics to a floor against the baseline.

    ``floors`` is a list of ``benchmark.metric`` paths (higher-is-better
    throughput numbers, e.g. ``sim_kernel.engine_events_per_sec``).  A
    metric fails when the current value drops below ``floor_fraction``
    of the committed baseline value.  A floor naming a metric absent
    from ``current`` also fails — silently dropping the gated number
    must not pass the gate — while one absent from the *baseline* is
    skipped, so a new metric can introduce its own floor.
    """
    failures: List[str] = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for path in floors:
        name, _, key = path.partition(".")
        if not key:
            failures.append(f"{path}: floor must be benchmark.metric")
            continue
        base_value = base_benches.get(name, {}).get(key)
        if base_value is None or base_value <= 0:
            continue
        value = cur_benches.get(name, {}).get(key)
        floor = base_value * floor_fraction
        if value is None:
            failures.append(
                f"{name}.{key}: metric missing from current run "
                f"(floor {floor:,.2f})")
        elif value < floor:
            failures.append(
                f"{name}.{key}: {value:,.2f} below floor {floor:,.2f} "
                f"({100 * floor_fraction:.0f}% of baseline "
                f"{base_value:,.2f})")
    return failures


def _main(argv: List[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Check BENCH_perf.json ratio metrics for regressions")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regress", type=float,
                        default=DEFAULT_MAX_REGRESSION)
    parser.add_argument(
        "--floor", action="append", default=[], metavar="BENCH.METRIC",
        help="absolute metric that must stay above --floor-frac of the "
             "baseline value (repeatable)")
    parser.add_argument("--floor-frac", type=float,
                        default=DEFAULT_FLOOR_FRACTION)
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)
    failures = check_regression(baseline, current, args.max_regress)
    failures += check_floors(baseline, current, args.floor,
                             args.floor_frac)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if not failures:
        print("perf ratios within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(_main(sys.argv[1:]))
