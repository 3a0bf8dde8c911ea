"""Per-layer metrics: how a traced repeat's spans, counts and samples
become the names listed under ``per_layer`` in ``BENCHMARK.json``.

Layers are this repo's modules.  A metric whose wrap target is gone
reads ``None``; one whose layer simply did no work on this workload
reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Optional, Tuple

from .trace import Tracer, percentile

__all__ = ["PER_LAYER", "LayerInputs", "layer_metrics", "TOP_LEVEL_SHARES"]

_INGEST = ("profiling.ingest.message", "profiling.ingest.compute",
           "profiling.ingest.bytes_sent", "profiling.ingest.bytes_received")
_NET = ("cluster.net.delivery_delay", "cluster.net.transfer_delay",
        "cluster.net.drop_message")
_SNAPSHOT = ("profiling.snapshot_server", "profiling.snapshot_actors")


class LayerInputs:
    """Everything the per-layer formulas read."""

    def __init__(self, tracer: Tracer, ops: int, untraced_wall_s: float,
                 extra: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.ops = ops
        self.untraced_wall_s = untraced_wall_s
        self.extra = extra
        hooks = tracer.hooks
        self.msgs = hooks.delivered if hooks is not None else 0
        self.migrated = hooks.migrated if hooks is not None else 0
        counted = [tracer.count("sim.schedule"),
                   tracer.count("sim.schedule_at")]
        self.events: Optional[int] = (
            None if None in counted else sum(counted))

    # -- small helpers ---------------------------------------------------

    def sum_counts(self, names: Tuple[str, ...]) -> Optional[int]:
        present = [self.tracer.span_count(n) for n in names]
        present = [c for c in present if c is not None]
        return sum(present) if present else None

    def sum_ms(self, names: Tuple[str, ...]) -> Optional[float]:
        present = [self.tracer.span_total_ms(n) for n in names]
        present = [t for t in present if t is not None]
        return sum(present) if present else None

    def from_managers(self, read: Callable[[Any], Optional[float]]) -> float:
        total = 0.0
        for manager in self.tracer.managers:
            value = read(manager)
            if value is not None:
                total += value
        return total


def _per(value: Optional[float], base: float) -> Optional[float]:
    if value is None:
        return None
    return value / base if base else 0.0


def _gem_rounds(manager: Any) -> Optional[float]:
    return sum(getattr(gem, "rounds_processed", 0)
               for gem in getattr(manager, "gems", ()))


def _root_attr(name: str) -> Callable[[Any], Optional[float]]:
    def read(manager: Any) -> Optional[float]:
        root = getattr(getattr(manager, "hierarchy", None), "root", None)
        return getattr(root, name, None)
    return read


def _share(prefix: str) -> Callable[[LayerInputs], float]:
    return lambda x: x.tracer.share(prefix)


def _extra(key: str) -> Callable[[LayerInputs], Optional[float]]:
    return lambda x: x.extra.get(key, 0.0)


def _emr_ms_per_round(x: LayerInputs) -> float:
    rounds = x.from_managers(_gem_rounds)
    untraced_cpu_ms = x.tracer.cpu_s * (1.0 - x.tracer.trace_share()) * 1e3
    return _per(x.tracer.share("core.emr") * untraced_cpu_ms, rounds)


def _handle_ms(fraction: float) -> Callable[[LayerInputs], float]:
    def read(x: LayerInputs) -> float:
        return percentile(x.tracer.durations_ms("live.handle"),
                          fraction) or 0.0
    return read


def _frontdoor_ms(x: LayerInputs) -> float:
    handled = x.tracer.durations_ms("live.handle")
    if not handled or "live.client_p50_ms" not in x.extra:
        return 0.0
    return x.extra["live.client_p50_ms"] - statistics.median(handled)


def _live_msgs_per_op(x: LayerInputs) -> float:
    # ``actors.msgs_per_op`` of the live workload; 0 on the sim ones.
    return _per(x.msgs, x.ops) if "live.migrations" in x.extra else 0.0


def _migrate_ms(x: LayerInputs) -> Optional[float]:
    if "live.migrate" in x.tracer.missing:
        return None
    durations = x.tracer.durations_ms("live.migrate")
    return statistics.median(durations) if durations else 0.0


#: Sample buckets reported as a top-level share; they and
#: ``other.self_share`` (everything else) sum to 1.  The tracer's own
#: frames are not among them (``trace.self_share`` is reported apart, as
#: a share of all samples), so a share reads as it would untraced.
TOP_LEVEL_SHARES = {
    "sim.self_share": "sim", "actors.self_share": "actors",
    "cluster.self_share": "cluster",
    "profiling.self_share": "core.profiling", "epl.self_share": "core.epl",
    "emr.self_share": "core.emr", "apps.self_share": "apps",
    "graphs.self_share": "graphs", "check.self_share": "check",
    "chaos.self_share": "chaos", "durability.self_share": "durability",
    "overload.self_share": "overload", "fuzz.self_share": "fuzz",
    "live.system.self_share": "live.system",
    "live.frontdoor.self_share": "live.frontdoor",
    "live.emr.self_share": "live.emr", "live.apps.self_share": "live.apps",
    "loadgen.self_share": "bench",
}


def _other_share(x: LayerInputs) -> float:
    named = sum(x.tracer.share(prefix)
                for prefix in TOP_LEVEL_SHARES.values())
    return max(0.0, 1.0 - named) if x.tracer.shares() else 0.0


#: name -> (unit, better, formula).  Order is the order of the report.
PER_LAYER: Dict[str, Tuple[str, str, Callable[[LayerInputs], Any]]] = {
    # sim kernel
    "sim.self_share": ("share", "lower", _share("sim")),
    "sim.engine.self_share": ("share", "lower", _share("sim.engine")),
    "sim.process.self_share": ("share", "lower", _share("sim.process")),
    "sim.queues.self_share": ("share", "lower", _share("sim.queues")),
    "sim.events_per_op": ("count", "lower",
                          lambda x: _per(x.events, x.ops)),
    "sim.events_per_msg": ("count", "lower",
                           lambda x: _per(x.events, x.msgs)),
    "sim.events_per_s": ("1/s", "higher",
                         lambda x: _per(x.events, x.untraced_wall_s)),
    # actor runtime
    "actors.self_share": ("share", "lower", _share("actors")),
    "actors.msgs_per_op": ("count", "lower",
                           lambda x: _per(x.msgs, x.ops)),
    "actors.msgs_per_s": ("1/s", "higher",
                          lambda x: _per(x.msgs, x.untraced_wall_s)),
    "actors.migrations": ("count", "lower", lambda x: x.migrated),
    "actors.client_call_us": (
        "us", "lower", lambda x: x.tracer.span_mean_us("actors.client_call")),
    "actors.create_actor_us": (
        "us", "lower",
        lambda x: x.tracer.span_mean_us("actors.create_actor")),
    # cluster model
    "cluster.self_share": ("share", "lower", _share("cluster")),
    "cluster.execute_per_msg": (
        "count", "lower",
        lambda x: _per(x.tracer.span_count("cluster.execute"), x.msgs)),
    "cluster.execute_us": (
        "us", "lower", lambda x: x.tracer.span_mean_us("cluster.execute")),
    "cluster.net_calls_per_msg": (
        "count", "lower", lambda x: _per(x.sum_counts(_NET), x.msgs)),
    # profiling runtime (EPR)
    "profiling.self_share": ("share", "lower", _share("core.profiling")),
    "profiling.ingest_per_msg": (
        "count", "lower", lambda x: _per(x.sum_counts(_INGEST), x.msgs)),
    "profiling.ingest_us": (
        "us", "lower", lambda x: x.tracer.span_mean_us(*_INGEST)),
    "profiling.snapshot_ms": ("ms", "lower", lambda x: x.sum_ms(_SNAPSHOT)),
    "profiling.snapshots": ("count", "lower",
                            lambda x: x.sum_counts(_SNAPSHOT)),
    # policy language
    "epl.self_share": ("share", "lower", _share("core.epl")),
    "epl.compile_ms": (
        "ms", "lower", lambda x: x.tracer.span_total_ms("epl.compile")),
    # elasticity management runtime
    "emr.self_share": ("share", "lower", _share("core.emr")),
    "emr.rounds": ("count", "lower", lambda x: x.from_managers(_gem_rounds)),
    "emr.host_ms_per_round": ("ms", "lower", _emr_ms_per_round),
    "emr.report_us": (
        "us", "lower", lambda x: x.tracer.span_mean_us("emr.receive_report")),
    "emr.publish_ms": (
        "ms", "lower", lambda x: x.tracer.span_total_ms("emr.publish")),
    "emr.root_fold_us": (
        "us", "lower", lambda x: x.tracer.span_mean_us("emr.root_fold")),
    "emr.arbitrate_ms": (
        "ms", "lower", lambda x: x.tracer.span_total_ms("emr.arbitrate")),
    "emr.aggregates": (
        "count", "lower",
        lambda x: x.from_managers(_root_attr("aggregates_received"))),
    "emr.cross_group_moves": (
        "count", "lower",
        lambda x: x.from_managers(_root_attr("cross_migrations_planned"))),
    # application and graph code
    "apps.self_share": ("share", "lower", _share("apps")),
    "graphs.self_share": ("share", "lower", _share("graphs")),
    # checker, chaos, durability, overload, fuzz
    "check.self_share": ("share", "lower", _share("check")),
    "check.checks_run": ("count", "higher", _extra("check.checks_run")),
    "check.violations": ("count", "lower", _extra("check.violations")),
    "chaos.self_share": ("share", "lower", _share("chaos")),
    "chaos.faults": ("count", "higher", _extra("chaos.faults")),
    "durability.self_share": ("share", "lower", _share("durability")),
    "durability.checkpoints": ("count", "lower",
                               _extra("durability.checkpoints")),
    "overload.self_share": ("share", "lower", _share("overload")),
    "overload.shed": ("count", "lower", _extra("overload.shed")),
    "fuzz.self_share": ("share", "lower", _share("fuzz")),
    "fuzz.generate_ms": (
        "ms", "lower", lambda x: x.tracer.span_total_ms("fuzz.generate")),
    # live backend
    "live.system.self_share": ("share", "lower", _share("live.system")),
    "live.frontdoor.self_share": ("share", "lower",
                                  _share("live.frontdoor")),
    "live.emr.self_share": ("share", "lower", _share("live.emr")),
    "live.apps.self_share": ("share", "lower", _share("live.apps")),
    "other.self_share": ("share", "lower", _other_share),
    "live.handle_ms_p50": ("ms", "lower", _handle_ms(0.5)),
    "live.handle_ms_p99": ("ms", "lower", _handle_ms(0.99)),
    "live.frontdoor_ms": ("ms", "lower", _frontdoor_ms),
    "live.msgs_per_op": ("count", "lower", _live_msgs_per_op),
    "live.migrate_ms": ("ms", "lower", _migrate_ms),
    "live.migrations": ("count", "higher", _extra("live.migrations")),
    "live.emr_round_ms": (
        "ms", "lower",
        lambda x: _per(x.tracer.span_mean_us("live.emr_round"), 1e3)),
    "live.emr_rounds": ("count", "higher", _extra("live.emr_rounds")),
    "live.shed": ("count", "lower", _extra("live.shed")),
    "live.p99_ms": ("ms", "lower", _extra("live.p99_ms")),
    # the benchmark's own instruments
    "loadgen.late_ms_p99": ("ms", "lower", _extra("loadgen.late_ms_p99")),
    "loadgen.self_share": ("share", "lower", _share("bench")),
    "trace.self_share": ("share", "lower",
                         lambda x: x.tracer.trace_share()),
    "trace.overhead_ratio": ("ratio", "lower",
                             _extra("trace.overhead_ratio")),
    "repro.import_s": ("s", "lower", _extra("repro.import_s")),
}


def layer_metrics(inputs: LayerInputs) -> Dict[str, Optional[float]]:
    return {name: formula(inputs)
            for name, (_unit, _better, formula) in PER_LAYER.items()}
