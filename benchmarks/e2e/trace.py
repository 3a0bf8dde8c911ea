"""Outside-in instruments for the end-to-end benchmark.

Three instruments, installed only for a traced repeat and removed after
it, all driven from the benchmark's own files (nothing in ``src/`` knows
it is being traced):

* **spans** — class-level wrappers around public entry points.  A span
  is (name, start, end, parent, op id).  Spans are aggregated on the fly
  per (name, parent): count, total time, and self time = duration minus
  the part covered by child spans.  Raw spans are kept for the first
  ``RAW_OPS`` ops only (and at most ``RAW_SPANS``), so memory stays
  bounded.
* **counts** — count-only wrappers on calls too hot to time, plus a
  ``RuntimeHooks`` subscriber attached to every actor system an
  elasticity manager is started on.
* **sampler** — ``ITIMER_PROF`` fires every 2 ms of process CPU time; the
  handler charges the sample to the innermost stack frame that lives
  under ``src/repro`` (or under this benchmark's directory).  Shares of
  samples therefore sum to 1 and need no private names.  Samples in this
  file (the span wrappers) are left out of the shares and reported apart
  as ``trace_share``: an untraced repeat does not have them.

Targets are written ``"package.module:Class.attribute"``.  A target that
no longer resolves is recorded in ``missing`` and every metric derived
from it reads ``None`` — a renamed method must not crash the benchmark.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "NullTracer", "SPAN_TARGETS", "ASYNC_SPAN_TARGETS",
           "COUNT_TARGETS", "MANAGER_START_TARGETS", "percentile"]

_clock = time.perf_counter_ns

#: Raw spans are kept while the op counter is at most this...
RAW_OPS = 200
#: ...and no more than this many in all: a workload with few, long ops
#: (80 BSP iterations, 5 fuzz scenarios) would otherwise keep every span.
RAW_SPANS = 5000
#: Sample bucket of this file's own frames.
TRACE_BUCKET = "bench.trace"
#: Parent name of a span that has no enclosing span.
TOP = "(top)"
#: Parent name of a span around a coroutine: coroutines interleave on one
#: event loop, so they do not take part in the synchronous span stack.
ASYNC = "(async)"

#: Synchronous entry points timed as spans: span name -> target.
SPAN_TARGETS: Dict[str, str] = {
    "actors.client_call": "repro.actors:ActorSystem.client_call",
    "actors.create_actor": "repro.actors:ActorSystem.create_actor",
    "cluster.execute": "repro.cluster:Server.execute",
    "cluster.net.delivery_delay": "repro.cluster:NetworkFabric.delivery_delay",
    "cluster.net.transfer_delay": "repro.cluster:NetworkFabric.transfer_delay",
    "cluster.net.drop_message": "repro.cluster:NetworkFabric.drop_message",
    "profiling.ingest.message":
        "repro.core.profiling:ProfilingRuntime.on_message_delivered",
    "profiling.ingest.compute":
        "repro.core.profiling:ProfilingRuntime.on_compute",
    "profiling.ingest.bytes_sent":
        "repro.core.profiling:ProfilingRuntime.on_bytes_sent",
    "profiling.ingest.bytes_received":
        "repro.core.profiling:ProfilingRuntime.on_bytes_received",
    "profiling.snapshot_server":
        "repro.core.profiling:ProfilingRuntime.snapshot_server",
    "profiling.snapshot_actors":
        "repro.core.profiling:ProfilingRuntime.snapshot_actors",
    "emr.receive_report": "repro.core.emr:GEM.receive_report",
    "emr.publish": "repro.core.emr.hierarchy:ControlHierarchy.publish",
    "emr.root_fold": "repro.core.emr.hierarchy:RootGem.receive_aggregate",
    "emr.arbitrate": "repro.core.emr.hierarchy:RootGem.arbitrate",
    "live.emr_round": "repro.live:LiveElasticityManager.run_round",
}

#: Coroutine entry points timed start-to-finish (awaits included).
ASYNC_SPAN_TARGETS: Dict[str, str] = {
    "live.migrate": "repro.live:LiveActorSystem.migrate_actor",
}

#: Calls too hot to time: counted only.
COUNT_TARGETS: Dict[str, str] = {
    "sim.schedule": "repro.sim:Simulator.schedule",
    "sim.schedule_at": "repro.sim:Simulator.schedule_at",
}

#: Wrapped so the tracer learns of every elasticity manager (also the ones
#: ``run_scenario`` builds internally) and can attach its count hooks.
MANAGER_START_TARGETS: Dict[str, str] = {
    "emr.manager_start": "repro.core:ElasticityManager.start",
    "live.manager_start": "repro.live:LiveElasticityManager.start",
}


def percentile(values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` for an empty list."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _resolve(target: str) -> Optional[Tuple[type, str]]:
    """``"pkg.mod:Class.attr"`` -> (class, attr), or None if any part of
    the path is gone."""
    module_name, _, path = target.partition(":")
    class_name, _, attr = path.partition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    cls = getattr(module, class_name, None)
    if not isinstance(cls, type) or not callable(getattr(cls, attr, None)):
        return None
    return cls, attr


def _definers(cls: type, attr: str) -> List[type]:
    """Classes whose own ``__dict__`` defines ``attr``: the class that
    ``cls.attr`` resolves to plus every subclass overriding it (the sim
    kernels override ``Simulator.schedule``)."""
    found = [base for base in cls.__mro__ if attr in base.__dict__][:1]
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        pending.extend(sub.__subclasses__())
        if attr in sub.__dict__:
            found.append(sub)
    return found


class Tracer:
    """One traced repeat's worth of spans, counts and samples."""

    #: Drivers branch on this instead of on the tracer's type.
    active = True

    def __init__(self, repro_root: str, bench_root: str) -> None:
        self.repro_root = os.path.join(os.path.abspath(repro_root), "")
        self.bench_root = os.path.join(os.path.abspath(bench_root), "")
        #: Synchronous span stack; frames are ``[name, child_ns]``.
        self._stack: List[List[Any]] = [[TOP, 0]]
        #: (name, parent) -> [count, total_ns, self_ns]
        self._agg: Dict[Tuple[str, str], List[int]] = {}
        self._raw: List[Tuple[str, int, int, str, int]] = []
        self._durations: Dict[str, List[int]] = {}
        self.op = 0
        self.counts: Dict[str, List[int]] = {}
        self.missing: List[str] = []
        self.managers: List[Any] = []
        self.hooks: Any = None
        self._installed: List[Tuple[type, str, Any]] = []
        self._samples: Dict[str, int] = {}
        self._file_keys: Dict[str, Optional[str]] = {}
        self._previous_handler: Any = None
        self._origin_ns = _clock()
        #: Process CPU seconds of the traced block (set by the harness).
        self.cpu_s = 0.0

    # -- ops ------------------------------------------------------------

    def new_op(self) -> int:
        """Start a new op: later spans carry its id until the next op.

        Exact for spans nested inside the issuing call; a span that runs
        later from an event callback carries the most recently issued op.
        """
        self.op += 1
        return self.op

    # -- spans ----------------------------------------------------------

    def _close(self, name: str, frame: List[Any], start: int) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        duration = end - start
        parent[1] += duration
        key = (name, parent[0])
        slot = self._agg.get(key)
        if slot is None:
            slot = self._agg[key] = [0, 0, 0]
        slot[0] += 1
        slot[1] += duration
        slot[2] += duration - frame[1]
        if self.op <= RAW_OPS and len(self._raw) < RAW_SPANS:
            self._raw.append((name, start, end, parent[0], self.op))

    def span(self, name: str) -> "_Span":
        """Context manager: a span around driver code (the root
        ``scenario`` span, ``epl.compile``, ``fuzz.generate``)."""
        return _Span(self, name)

    def _sync_wrapper(self, name: str, original: Callable) -> Callable:
        # The hot path of a traced repeat: ``_close`` inlined, and the
        # (name, parent) slot cached per parent, to keep a span near 1 us.
        stack = self._stack
        agg = self._agg
        raw = self._raw
        slots: Dict[str, List[int]] = {}
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0]
            parent = stack[-1]
            stack.append(frame)
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                slot = slots.get(parent[0])
                if slot is None:
                    slot = slots[parent[0]] = agg.setdefault(
                        (name, parent[0]), [0, 0, 0])
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[1]
                if tracer.op <= RAW_OPS and len(raw) < RAW_SPANS:
                    raw.append((name, start, end, parent[0], tracer.op))
        return traced

    def _note_async(self, name: str, start: int) -> None:
        end = _clock()
        duration = end - start
        slot = self._agg.setdefault((name, ASYNC), [0, 0, 0])
        slot[0] += 1
        slot[1] += duration
        slot[2] += duration
        self._durations.setdefault(name, []).append(duration)
        if self.op <= RAW_OPS and len(self._raw) < RAW_SPANS:
            self._raw.append((name, start, end, ASYNC, self.op))

    def async_wrapper(self, name: str, original: Callable) -> Callable:
        """Wrap a coroutine function; also used by the live driver for
        the ``app.handle`` callable it hands to the front door."""
        note = self._note_async

        async def traced(*args: Any, **kwargs: Any) -> Any:
            start = _clock()
            try:
                return await original(*args, **kwargs)
            finally:
                note(name, start)
        return traced

    def _count_wrapper(self, name: str, original: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def counted(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return original(*args, **kwargs)
        return counted

    def _manager_wrapper(self, name: str, original: Callable) -> Callable:
        def started(manager: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(manager, *args, **kwargs)
            self.managers.append(manager)
            system = getattr(manager, "system", None)
            if self.hooks is not None and hasattr(system, "add_hooks") \
                    and self.hooks not in getattr(system, "hooks", ()):
                system.add_hooks(self.hooks)
            return result
        return started

    # -- install / uninstall -----------------------------------------------

    def install(self, extra_spans: Optional[Dict[str, str]] = None) -> None:
        """Wrap every target; unresolvable ones land in ``missing``."""
        self.hooks = _make_count_hooks()
        spans = dict(SPAN_TARGETS)
        spans.update(extra_spans or {})
        plan = ([(n, t, self._sync_wrapper) for n, t in spans.items()]
                + [(n, t, self.async_wrapper)
                   for n, t in ASYNC_SPAN_TARGETS.items()]
                + [(n, t, self._count_wrapper)
                   for n, t in COUNT_TARGETS.items()]
                + [(n, t, self._manager_wrapper)
                   for n, t in MANAGER_START_TARGETS.items()])
        for name, target, make in plan:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(name)
                continue
            cls, attr = resolved
            for owner in _definers(cls, attr):
                original = owner.__dict__[attr]
                if isinstance(original, (staticmethod, classmethod)):
                    self.missing.append(name)
                    continue
                setattr(owner, attr, make(name, original))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- sampler ----------------------------------------------------------

    def _file_key(self, filename: str) -> Optional[str]:
        """Sample bucket for a source file: ``repro`` files map to their
        dotted path below the package (``sim.engine``, ``core.emr.gem``),
        benchmark files to ``bench.<file>``, the asyncio loop's own
        scheduling frame to ``other``; anything else is not a bucket and
        the walk continues outward."""
        if filename.startswith(self.repro_root):
            relative = filename[len(self.repro_root):]
            return os.path.splitext(relative)[0].replace(os.sep, ".")
        if filename.startswith(self.bench_root):
            stem = os.path.splitext(os.path.basename(filename))[0]
            return "bench." + stem
        if filename.endswith("base_events.py") and "asyncio" in filename:
            return "other"
        return None

    def _on_sample(self, _signum: int, frame: Any) -> None:
        keys = self._file_keys
        key = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                key = keys[filename]
            except KeyError:
                key = keys[filename] = self._file_key(filename)
            if key is not None:
                break
            frame = frame.f_back
        if key is None:
            key = "other"
        self._samples[key] = self._samples.get(key, 0) + 1

    def start_sampler(self, interval_s: float = 0.002) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF,
                                               self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None

    # -- read-out ---------------------------------------------------------

    def span_total_ms(self, name: str) -> Optional[float]:
        """Total time in spans called ``name`` (all parents), or None if
        the target was missing."""
        if name in self.missing:
            return None
        return sum(slot[1] for (n, _p), slot in self._agg.items()
                   if n == name) / 1e6

    def span_count(self, name: str) -> Optional[int]:
        if name in self.missing:
            return None
        return sum(slot[0] for (n, _p), slot in self._agg.items()
                   if n == name)

    def span_mean_us(self, *names: str) -> Optional[float]:
        """Mean duration over every span in ``names``; None if all the
        targets are missing, 0.0 if none was ever called."""
        present = [n for n in names if n not in self.missing]
        if not present:
            return None
        count = sum(self.span_count(n) for n in present)
        if not count:
            return 0.0
        return 1e3 * sum(self.span_total_ms(n) for n in present) / count

    def durations_ms(self, name: str) -> List[float]:
        return [d / 1e6 for d in self._durations.get(name, ())]

    def count(self, name: str) -> Optional[int]:
        if name in self.missing:
            return None
        return self.counts.get(name, [0])[0]

    def shares(self) -> Dict[str, float]:
        """Sample share per file bucket, the tracer's own bucket left
        out; sums to 1 (empty if the sampler never fired)."""
        counted = {key: n for key, n in self._samples.items()
                   if key != TRACE_BUCKET}
        total = sum(counted.values())
        if not total:
            return {}
        return {key: n / total for key, n in sorted(counted.items())}

    def trace_share(self) -> float:
        """Share of *all* samples that landed in the tracer's wrappers."""
        total = sum(self._samples.values())
        return self._samples.get(TRACE_BUCKET, 0) / total if total else 0.0

    def share(self, prefix: str) -> float:
        """Share of samples in bucket ``prefix`` or below it."""
        dotted = prefix + "."
        return sum(value for key, value in self.shares().items()
                   if key == prefix or key.startswith(dotted))

    def report(self) -> Dict[str, Any]:
        origin = self._origin_ns
        return {
            "spans": [
                {"name": name, "parent": parent, "count": slot[0],
                 "total_ms": slot[1] / 1e6, "self_ms": slot[2] / 1e6}
                for (name, parent), slot in sorted(self._agg.items())],
            "counts": {name: cell[0]
                       for name, cell in sorted(self.counts.items())},
            "hooks": self.hooks.as_dict() if self.hooks is not None else {},
            "samples": dict(sorted(self._samples.items())),
            "missing": sorted(self.missing),
            "raw_spans": [
                {"name": name, "start_us": (start - origin) / 1e3,
                 "end_us": (end - origin) / 1e3, "parent": parent,
                 "op": op}
                for name, start, end, parent, op in self._raw],
        }

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(extra)
        payload.update(self.report())
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)


class _Span:
    __slots__ = ("tracer", "name", "frame", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = [self.name, 0]
        self.tracer._stack.append(self.frame)
        self.start = _clock()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.tracer._close(self.name, self.frame, self.start)


def _make_count_hooks() -> Any:
    """The ``RuntimeHooks`` subscriber, built lazily so importing this
    module does not import ``repro``."""
    from repro.actors import RuntimeHooks

    class CountHooks(RuntimeHooks):
        def __init__(self) -> None:
            self.delivered = 0
            self.migrated = 0
            self.shed = 0

        def on_message_delivered(self, record: Any, message: Any) -> None:
            self.delivered += 1

        def on_actor_migrated(self, record: Any, old_server: Any,
                              new_server: Any) -> None:
            self.migrated += 1

        def on_message_shed(self, record: Any, message: Any,
                            reason: str) -> None:
            self.shed += 1

        def as_dict(self) -> Dict[str, int]:
            return {"delivered": self.delivered, "migrated": self.migrated,
                    "shed": self.shed}

    return CountHooks()


class NullTracer:
    """Stands in for :class:`Tracer` on untraced repeats, so drivers are
    written once.  ``span`` costs one no-op context manager per call and
    is only used around set-up code, never inside the timed scenario."""

    active = False

    def new_op(self) -> int:
        return 0

    def span(self, _name: str) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None

