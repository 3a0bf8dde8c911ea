"""Runs one workload in this process and returns one result record.

The parent (``run.py``) starts a fresh interpreter per workload with
``PYTHONHASHSEED=0``; this module is what runs inside it.

Noise method.  The sandbox's speed drifts by tens of percent over
seconds (identical deterministic 6 s segments were measured at 5.5-7.6 s
back to back, CPU time tracking wall time, so it is machine speed and not
preemption).  A frozen calibration loop does not cancel it; the minimum
over at least seven repeats of the identical seeded scenario removes the
bursts (a slow phase that outlasts the run stays in: see the README).  The
slow bursts are mostly much shorter than a pass, and the scenario is
deterministic, so slice ``i`` of it does the same work in every repeat.
Every host-time metric of a sim workload is therefore built from **each
slice at its fastest repeat** (groups of 7 repeats of ``estore_fig9``:
quartile spread 1.2 % against 3.4 % for the minimum over whole passes);
the fastest, median and slowest whole pass are reported beside
``wall_s``.  Nothing is rescaled: every value is seconds as timed.  The
simulated quantities must be bit-equal across the repeats or the run
fails.

Stand-ins.  The benchmark driver reads every end-to-end name from every
workload and refuses zeros, but ``p50_ms`` and ``mig_stall_ms`` are only
defined on ``live_chatroom`` and ``model_ms`` only on three sim workloads.
The other cells carry a ``stands_in`` note and repeat a number the
workload already reports (host ms per op on the sims, ``p50_ms`` on the
live one), so they add no second opinion and no noise of their own;
``compare.py`` skips them.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import resource
import statistics
import time
from typing import Any, Dict, Iterator, List, Tuple

_import_started = time.perf_counter()
import repro  # noqa: E402,F401  (timed: reported as repro.import_s)
from .layers import LayerInputs, layer_metrics  # noqa: E402
from .live_workload import LiveChatroom  # noqa: E402
from .sim_workloads import SIM_WORKLOADS, Outcome  # noqa: E402
from .trace import NullTracer, Tracer, percentile  # noqa: E402
IMPORT_S = time.perf_counter() - _import_started

__all__ = ["run_workload"]

_clock = time.perf_counter

#: Repeats every sim workload makes however short ``--seconds`` is.
MIN_REPEATS = {"full": 7, "tiny": 3}
#: A traced repeat is budgeted at this multiple of an untraced one.
TRACED_COST = 1.6

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
OUT_DIR = os.path.join(_HERE, "out")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fastest_of(values: List[float],
                key: str = "value") -> Dict[str, float]:
    """The fastest of ``values`` (under ``key``); median and maximum go
    beside it."""
    return {key: min(values), "median": statistics.median(values),
            "max": max(values), "k": len(values)}


def _stand_in(value: float, source: str) -> Dict[str, Any]:
    """A cell the workload has no metric for (see the module docstring)."""
    return {"value": value, "stands_in": source}


@contextlib.contextmanager
def _tracing() -> Iterator[Tracer]:
    """All three instruments on for the duration of the block; the
    tracer then knows the CPU seconds the block took (``cpu_s``)."""
    tracer = Tracer(_REPRO_ROOT, _HERE)
    tracer.install()
    tracer.start_sampler()
    cpu_started = time.process_time()
    try:
        yield tracer
    finally:
        tracer.cpu_s = time.process_time() - cpu_started
        tracer.stop_sampler()
        tracer.uninstall()


def _exact(outcome: Outcome) -> Tuple:
    return (outcome.attempted, outcome.failed, outcome.model_ms,
            tuple(sorted(outcome.counts.items())))


# ---------------------------------------------------------------------------
# sim workloads
# ---------------------------------------------------------------------------

def _sim_pass(workload: Any, seed: int, scale: str,
              tracer: Any) -> Dict[str, Any]:
    gc.collect()
    started = _clock()
    with tracer.span("setup"):
        state = workload.build(seed, scale, tracer)
    built = _clock()
    with tracer.span("scenario"):
        laps = workload.play(state)
    wall_s = _clock() - built
    return {"setup_s": built - started, "wall_s": wall_s, "laps": laps,
            "outcome": workload.outcome(state)}


def _fastest(columns: List[List[float]]) -> List[float]:
    """Each slice at its fastest repeat."""
    return [min(column) for column in zip(*columns)]


def _run_sim(name: str, seed: int, seconds: float, scale: str,
             traced: bool) -> Dict[str, Any]:
    workload = SIM_WORKLOADS[name]()
    null = NullTracer()
    passes: List[Dict[str, Any]] = []
    started = _clock()
    while True:
        passes.append(_sim_pass(workload, seed, scale, null))
        elapsed = _clock() - started
        cost = elapsed / len(passes)
        reserve = TRACED_COST * cost if traced else 0.0
        if (len(passes) >= MIN_REPEATS[scale]
                and elapsed + cost + reserve > seconds):
            break

    first: Outcome = passes[0]["outcome"]
    problems = list(first.problems)
    if any(_exact(p["outcome"]) != _exact(first) for p in passes):
        problems.append("simulated quantities differ between repeats of "
                        "the same seeded scenario")
    ops = max(1, first.attempted)
    wall_s = sum(_fastest([p["laps"].wall_ms for p in passes])) / 1e3
    cpu_s = sum(_fastest([p["laps"].cpu_ms for p in passes])) / 1e3
    host_ms_per_op = _stand_in(1e3 * wall_s / ops, "1e3 x wall_s / ops")
    record: Dict[str, Any] = {
        "op": workload.op,
        "attempted": sum(p["outcome"].attempted for p in passes),
        "failed": sum(p["outcome"].failed for p in passes),
        "counts": first.counts,
        "end_to_end": {
            "setup_s": _fastest_of([p["setup_s"] for p in passes]),
            # Beside the value: fastest, median and slowest whole pass.
            "wall_s": dict(_fastest_of([p["wall_s"] for p in passes],
                                       key="fastest"), value=wall_s),
            "cpu_us_per_op": {"value": 1e6 * cpu_s / ops},
            "model_ms": ({"value": first.model_ms}
                         if first.model_ms is not None else host_ms_per_op),
            "p50_ms": host_ms_per_op,
            "mig_stall_ms": host_ms_per_op,
        },
    }

    if traced:
        with _tracing() as tracer:
            traced_pass = _sim_pass(workload, seed, scale, tracer)
        outcome: Outcome = traced_pass["outcome"]
        if _exact(outcome) != _exact(first):
            problems.append("tracing changed the simulated quantities")
        extra = dict(outcome.layer_extra)
        extra.update({
            "check.checks_run": outcome.counts.get("checks_run", 0),
            "check.violations": outcome.counts.get("violations", 0),
            "durability.checkpoints": outcome.counts.get("checkpoints", 0),
            "overload.shed": outcome.counts.get("messages_shed", 0),
            # Against the median, not the minimum: one traced repeat is
            # a single draw from the same noisy machine.
            "trace.overhead_ratio": (
                traced_pass["wall_s"]
                / record["end_to_end"]["wall_s"]["median"]),
            "repro.import_s": IMPORT_S})
        record["per_layer"] = layer_metrics(LayerInputs(
            tracer, ops=max(1, outcome.attempted),
            untraced_wall_s=wall_s, extra=extra))
        record["trace_file"] = _write_trace(tracer, name, seed, record)
    record["problems"] = problems
    return record


# ---------------------------------------------------------------------------
# live workload
# ---------------------------------------------------------------------------

async def _live_session(workload: LiveChatroom, seed: int, seconds: float,
                        scale: str, tracer: Any, boots: int,
                        ) -> Tuple[List[float], Dict[str, Any]]:
    """Boot (``boots`` times, tearing down all but the last), play the
    schedule once, tear down; returns (set-up times, environment)."""
    setups = []
    for index in range(boots):
        gc.collect()
        started = _clock()
        env = await workload.boot(seed, seconds, scale, tracer)
        setups.append(_clock() - started)
        if index < boots - 1:
            await workload.teardown(env)
    await workload.play(env)
    await workload.teardown(env)
    return setups, env


def _run_live(seed: int, seconds: float, scale: str,
              traced: bool) -> Dict[str, Any]:
    workload = LiveChatroom()
    boots = workload.SCALES[scale]["boots"]
    # However short ``--seconds`` is, a session holds a few migrations.
    shortest = 4.0 * workload.SCALES[scale]["migrate_every_s"]
    # A traced run splits the time: an untraced session first, as the
    # base of the overhead ratio, then the traced one.
    untraced_s = max(shortest, 0.4 * seconds if traced else seconds)
    setups, env = asyncio.run(_live_session(
        workload, seed, untraced_s, scale, NullTracer(), boots))
    outcome = workload.outcome(env)
    measured = outcome.measured
    problems = list(outcome.problems)
    record: Dict[str, Any] = {
        "op": workload.op,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "counts": outcome.counts,
        "end_to_end": {
            "setup_s": _fastest_of(setups),
            # A control: the schedule's length unless the server falls
            # behind.
            "wall_s": {"value": measured["wall_s"]},
            "cpu_us_per_op": {"value": measured["cpu_us_per_op"],
                              "k": measured["cpu_windows"]},
            "model_ms": _stand_in(measured["p50_ms"], "p50_ms"),
            "p50_ms": {"value": measured["p50_ms"],
                       "k": measured["steady_requests"]},
            "mig_stall_ms": {"value": measured["mig_stall_ms"],
                             "k": measured["stall_samples"]},
        },
    }
    if traced:
        with _tracing() as tracer:
            _setups, traced_env = asyncio.run(_live_session(
                workload, seed, max(shortest, 0.5 * seconds), scale,
                tracer, 1))
        traced_outcome = workload.outcome(traced_env)
        problems.extend(f"traced session: {p}"
                        for p in traced_outcome.problems)
        traced_measured = traced_outcome.measured
        extra = dict(traced_outcome.layer_extra)
        extra.update({
            "live.client_p50_ms": traced_measured["p50_ms"],
            "trace.overhead_ratio": (
                traced_measured["cpu_us_per_op"] / measured["cpu_us_per_op"]
                if measured["cpu_us_per_op"] else 0.0),
            "repro.import_s": IMPORT_S})
        answered = traced_outcome.attempted - traced_outcome.failed
        record["per_layer"] = layer_metrics(LayerInputs(
            tracer, ops=max(1, answered),
            untraced_wall_s=traced_measured["wall_s"], extra=extra))
        record["trace_file"] = _write_trace(tracer, workload.name, seed,
                                            record)
    record["problems"] = problems
    return record


# ---------------------------------------------------------------------------

def _write_trace(tracer: Tracer, name: str, seed: int,
                 record: Dict[str, Any]) -> str:
    path = os.path.join(OUT_DIR, f"trace-{name}.json")
    tracer.write(path, {"workload": name, "seed": seed,
                        "per_layer": record["per_layer"],
                        "shares": tracer.shares()})
    return os.path.relpath(path, os.path.dirname(os.path.dirname(_HERE)))


def run_workload(name: str, seed: int, seconds: float, scale: str,
                 traced: bool) -> Dict[str, Any]:
    """One workload, start to finish; the record ``run.py`` reports."""
    if name == LiveChatroom.name:
        record = _run_live(seed, seconds, scale, traced)
    else:
        record = _run_sim(name, seed, seconds, scale, traced)
    record["end_to_end"]["peak_rss_mb"] = {"value": _peak_rss_mb()}
    record.update(workload=name, seed=seed, scale=scale, seconds=seconds,
                  traced=traced, correct=not record["problems"],
                  exact=name != LiveChatroom.name)
    return record
