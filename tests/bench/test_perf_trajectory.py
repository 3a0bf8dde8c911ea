"""Unit tests for the BENCH_perf.json gate logic (repro.bench.perf)."""

import json
import os

from repro.bench.perf import (check_floors, check_regression, load_bench,
                              record_metrics)


def bench_doc(**benchmarks):
    return {"schema": 1, "benchmarks": benchmarks}


# ---------------------------------------------------------------------------
# ratio regression gate
# ---------------------------------------------------------------------------


def test_check_regression_flags_only_ratios():
    baseline = bench_doc(scale=dict(root_decide_us=30.0,
                                    root_decision_scaling_ratio=0.5))
    current = bench_doc(scale=dict(root_decide_us=900.0,  # absolute: not gated
                                   root_decision_scaling_ratio=0.58))
    assert check_regression(baseline, current) == []
    current["benchmarks"]["scale"]["root_decision_scaling_ratio"] = 0.61
    failures = check_regression(baseline, current)
    assert len(failures) == 1
    assert "root_decision_scaling_ratio" in failures[0]


def test_check_regression_skips_new_benchmarks():
    current = bench_doc(brand_new=dict(some_ratio=9.0))
    assert check_regression(bench_doc(), current) == []


# ---------------------------------------------------------------------------
# absolute floor gate
# ---------------------------------------------------------------------------


def test_check_floors_passes_above_floor():
    baseline = bench_doc(sim_kernel=dict(engine_events_per_sec=1_000.0))
    current = bench_doc(sim_kernel=dict(engine_events_per_sec=950.0))
    assert check_floors(baseline, current,
                        ["sim_kernel.engine_events_per_sec"]) == []


def test_check_floors_fails_below_floor():
    baseline = bench_doc(sim_kernel=dict(engine_events_per_sec=1_000.0))
    current = bench_doc(sim_kernel=dict(engine_events_per_sec=899.0))
    failures = check_floors(baseline, current,
                            ["sim_kernel.engine_events_per_sec"],
                            floor_fraction=0.90)
    assert len(failures) == 1
    assert "below floor" in failures[0]


def test_check_floors_fails_when_metric_dropped():
    # Deleting the gated metric must not sneak past the gate.
    baseline = bench_doc(sim_kernel=dict(engine_events_per_sec=1_000.0))
    current = bench_doc(sim_kernel=dict(queue_ops_per_sec=5.0))
    failures = check_floors(baseline, current,
                            ["sim_kernel.engine_events_per_sec"])
    assert len(failures) == 1
    assert "missing" in failures[0]


def test_check_floors_skips_metric_new_to_baseline():
    # A metric absent from the committed baseline introduces its own
    # floor on the *next* commit; its first run cannot fail.
    current = bench_doc(sim_kernel=dict(engine_events_per_sec=1.0))
    assert check_floors(bench_doc(), current,
                        ["sim_kernel.engine_events_per_sec"]) == []


def test_check_floors_rejects_malformed_path():
    failures = check_floors(bench_doc(), bench_doc(), ["no_dot_here"])
    assert failures and "benchmark.metric" in failures[0]


# ---------------------------------------------------------------------------
# recorder round-trip
# ---------------------------------------------------------------------------


def test_record_metrics_rounds_and_merges(tmp_path):
    path = str(tmp_path / "bench.json")
    record_metrics("scale_cluster", {
        "root_decide_large_us": 123456.789,
        "root_decision_scaling_ratio": 0.123456,
    }, path=path)
    record_metrics("other", {"ops_per_sec": 2.0}, path=path)
    data = load_bench(path)
    scale = data["benchmarks"]["scale_cluster"]
    assert scale["root_decide_large_us"] == 123456.79        # 2 digits
    assert scale["root_decision_scaling_ratio"] == 0.1235    # ratios get 4
    assert set(data["benchmarks"]) == {"other", "scale_cluster"}
    with open(path) as handle:
        assert json.load(handle)["schema"] == 1


def test_committed_baseline_names_no_deleted_path():
    # Every hot-path layer has one implementation: a ratio or a number
    # whose other side was deleted must not linger in the trajectory.
    hot = ("gem_decision", "profiling_ingest", "profiling_snapshot",
           "sim_kernel")
    committed = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, os.pardir, "BENCH_perf.json")
    benchmarks = load_bench(committed)["benchmarks"]
    for name in hot:
        for key in benchmarks[name]:
            assert not key.endswith("_ratio"), f"{name}.{key}"
            assert not key.startswith("full_"), f"{name}.{key}"
            assert "heap" not in key, f"{name}.{key}"
    # The floor CI still holds needs its baseline number.
    assert benchmarks["sim_kernel"]["engine_events_per_sec"] > 0


def test_cli_exit_codes(tmp_path):
    from repro.bench.perf import _main
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(bench_doc(
        sim_kernel=dict(engine_events_per_sec=1_000.0, r_ratio=1.0))))
    current.write_text(json.dumps(bench_doc(
        sim_kernel=dict(engine_events_per_sec=500.0, r_ratio=1.0))))
    args = [str(baseline), str(current)]
    assert _main(args) == 0  # absolute drop alone is not gated...
    assert _main(args + ["--floor", "sim_kernel.engine_events_per_sec"
                         ]) == 1  # ...until a floor names it
    assert _main(args + ["--floor", "sim_kernel.engine_events_per_sec",
                         "--floor-frac", "0.4"]) == 0
