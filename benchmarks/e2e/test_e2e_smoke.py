"""Smoke test of the end-to-end benchmark itself (run explicitly; not in
tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every workload runs at ``--scale tiny`` through the real command, so the
test covers the parent/worker split, the output checks, the tracer and
the metric plumbing — not the numbers.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from .layers import PER_LAYER, TOP_LEVEL_SHARES
from .trace import ASYNC, TOP, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SIMS = ("estore_fig9", "pagerank_fig7", "fleet_hier", "chaos_fuzz")
#: Cells a workload has no metric for: they repeat another of its cells.
STAND_INS = {
    "estore_fig9": {"p50_ms", "mig_stall_ms"},
    "pagerank_fig7": {"p50_ms", "mig_stall_ms"},
    "fleet_hier": {"p50_ms", "mig_stall_ms"},
    "chaos_fuzz": {"model_ms", "p50_ms", "mig_stall_ms"},
    "live_chatroom": {"model_ms"},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_all(seed, trace, workloads=None):
    """All (or the named) workloads at tiny scale -> {name: record}."""
    records = {}
    for name in workloads or [w["name"] for w in SPEC["workloads"]]:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--scale", "tiny", "--seconds", "0.5", "--seed", str(seed),
             "--trace", str(trace), "--json"],
            stdout=subprocess.PIPE, check=True, timeout=120)
        records[name] = json.loads(done.stdout.decode().splitlines()[-1])
    return records


@pytest.fixture(scope="module")
def traced():
    started = time.perf_counter()
    records = run_all(seed=12, trace=1)
    records["_elapsed_s"] = time.perf_counter() - started
    return records


def test_every_workload_passes_its_checks_quickly(traced):
    for name in (w["name"] for w in SPEC["workloads"]):
        assert traced[name]["correct"], traced[name]["problems"]
        assert traced[name]["attempted"] >= 1
        assert traced[name]["failed"] == 0
    assert traced["_elapsed_s"] < 15.0


def test_metric_names_and_units_equal_the_spec(traced):
    declared = {e["name"]: (e["unit"], e["better"])
                for e in SPEC["per_layer"]}
    assert declared == {name: (unit, better)
                        for name, (unit, better, _f) in PER_LAYER.items()}
    for name in (w["name"] for w in SPEC["workloads"]):
        record = traced[name]
        assert set(record["end_to_end"]) == {
            e["name"] for e in SPEC["end_to_end"]}
        assert set(record["per_layer"]) == set(declared)
        for cell in record["end_to_end"].values():
            assert cell["value"] > 0.0
        assert STAND_INS[name] == {
            metric for metric, cell in record["end_to_end"].items()
            if "stands_in" in cell}


def test_simulated_quantities_follow_the_seed(traced):
    again = run_all(seed=12, trace=0, workloads=SIMS)
    other = run_all(seed=13, trace=0, workloads=SIMS)
    for name in SIMS:
        def exact(record):
            model = record["end_to_end"]["model_ms"]
            return (record["counts"],
                    None if "stands_in" in model else model["value"])
        assert exact(again[name]) == exact(traced[name])
        assert exact(other[name]) != exact(traced[name])


def test_span_self_times_sum_to_the_root_spans(traced):
    for name in (w["name"] for w in SPEC["workloads"]):
        with open(os.path.join(ROOT, traced[name]["trace_file"])) as handle:
            spans = json.load(handle)["spans"]
        sync = [s for s in spans if s["parent"] != ASYNC]
        roots = sum(s["total_ms"] for s in sync if s["parent"] == TOP)
        selves = sum(s["self_ms"] for s in sync)
        assert roots > 0.0
        assert abs(selves - roots) <= 0.02 * roots


def test_sampler_shares_sum_to_one(traced):
    reported = list(TOP_LEVEL_SHARES) + ["other.self_share"]
    assert "trace.self_share" not in reported
    for name in (w["name"] for w in SPEC["workloads"]):
        layers = traced[name]["per_layer"]
        assert sum(layers[key] for key in reported) == pytest.approx(1.0)
        assert 0.0 <= layers["trace.self_share"] < 1.0


def test_missing_wrap_target_reads_null_not_crash():
    import repro
    tracer = Tracer(os.path.dirname(repro.__file__), HERE)
    tracer.install(extra_spans={
        "gone.method": "repro.sim:Simulator.no_such_method",
        "gone.class": "repro.sim:NoSuchClass.run",
        "gone.module": "repro.no_such_module:Thing.run"})
    try:
        assert {"gone.method", "gone.class", "gone.module"} <= set(
            tracer.missing)
        assert tracer.span_total_ms("gone.method") is None
        assert tracer.span_count("gone.class") is None
        assert tracer.span_mean_us("gone.module") is None
        assert tracer.span_count("cluster.execute") == 0
    finally:
        tracer.uninstall()


def test_result_line_leaves_out_a_metric_without_a_value(traced):
    from .run import result_object
    record = dict(traced["estore_fig9"])
    record["per_layer"] = dict(record["per_layer"],
                               **{"cluster.execute_us": None})
    metrics = result_object(record, SPEC, traced=True)["metrics"]
    assert "cluster.execute_us" not in metrics
    assert len(metrics) == len(SPEC["per_layer"]) - 1
