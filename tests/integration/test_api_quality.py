"""Meta-tests on the public API surface: docstrings and exports."""

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import re

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)

PUBLIC_MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.engine",
    "repro.cluster",
    "repro.cluster.metrics",
    "repro.actors",
    "repro.core",
    "repro.core.epl",
    "repro.core.profiling",
    "repro.core.profiling.stats",
    "repro.core.emr",
    "repro.core.emr.hierarchy",
    "repro.core.tracing",
    "repro.live",
    "repro.graphs",
    "repro.workload",
    "repro.apps",
    "repro.baselines",
    "repro.serverless",
    "repro.bench",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring_and_all(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_exist_and_are_documented(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), \
            f"{module_name}.__all__ lists missing {name}"
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def test_public_classes_have_documented_public_methods():
    from repro.actors import ActorSystem
    from repro.check import InvariantChecker
    from repro.core import ElasticityManager, ElasticityTracer
    from repro.core.epl import CompiledPolicy
    from repro.durability import DurabilityManager
    from repro.serverless import FunctionPlatform, StorageTier

    # The runtime-hook subscribers included: each ``on_*`` it overrides
    # says what that hook does to it.
    for cls in (ActorSystem, ElasticityManager, CompiledPolicy,
                StorageTier, FunctionPlatform, InvariantChecker,
                ElasticityTracer, DurabilityManager):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, \
                f"{cls.__name__}.{name} lacks a docstring"


def test_top_level_reexports_cover_the_workflow():
    import repro
    # The names a user needs for the quickstart must be one import away.
    for name in ("Actor", "ActorSystem", "Client", "ElasticityManager",
                 "EmrConfig", "compile_source", "Simulator"):
        assert name in repro.__all__


# -- the EMR reaches a runtime only through its contract --------------------

#: The contract of :class:`repro.actors.base.ActorSystemBase` the EMR
#: drives; both runtimes must implement every verb.
CONTRACT_VERBS = (
    "schedule", "rng_stream",
    "start_migration", "pin", "resurrect_actor", "install", "uninstall",
    "running_servers", "boot_server", "retire_server", "pending_boots",
    "actors_on", "mailbox_depth", "add_hooks", "remove_hooks",
)
#: Everything the EMR may read off the runtime object: the contract, the
#: ``now`` property, the clock (meters read it directly) and the
#: directory.
RUNTIME_READS = {"now", "clock", "directory", *CONTRACT_VERBS}
#: The live adapter also owns the runtime's asyncio lifecycle.
LIVE_ADAPTER_READS = RUNTIME_READS | {"drain"}


def _sources(*parts):
    paths = sorted(glob.glob(os.path.join(REPO, "src", "repro", *parts)))
    assert paths, parts
    for path in paths:
        with open(path) as handle:
            yield os.path.relpath(path, REPO), handle.read()


def _is_runtime(node):
    """``system`` or ``<anything>.system``: the runtime object."""
    return (isinstance(node, ast.Name) and node.id == "system"
            or isinstance(node, ast.Attribute) and node.attr == "system")


def test_emr_reaches_the_runtime_only_through_the_backend():
    # The EMR, the invariant checker and the tracer run on two runtimes;
    # a read of anything outside the contract (the simulator, the
    # provisioner, the RNG streams, the hooks list) would work on one of
    # them only.  A store onto the system and an alias of it under
    # another local name are rejected too: either would let such a read
    # slip past the check.
    sources = [(path, source, RUNTIME_READS)
               for path, source in _sources("core", "emr", "*.py")]
    sources += [(path, source, RUNTIME_READS)
                for path, source in _sources("check", "*.py")]
    sources += [(path, source, RUNTIME_READS)
                for path, source in _sources("core", "tracing.py")]
    sources += [(path, source, LIVE_ADAPTER_READS)
                for path, source in _sources("live", "emr.py")]
    offenders = []
    for path, source, allowed in sources:
        for node in ast.walk(ast.parse(source)):
            where = f"{path}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and _is_runtime(node.value):
                if (isinstance(node.ctx, ast.Store)
                        or node.attr not in allowed):
                    offenders.append(f"{where}: .{node.attr}")
            elif (isinstance(node, ast.Assign) and _is_runtime(node.value)
                    and not all(_is_runtime(target)
                                for target in node.targets)):
                offenders.append(f"{where}: runtime aliased")
    assert not offenders, offenders


@pytest.mark.parametrize("runtime", ["ActorSystem", "LiveActorSystem"])
def test_both_runtimes_implement_the_contract(runtime):
    cls = getattr(importlib.import_module("repro"), runtime)
    missing = [verb for verb in CONTRACT_VERBS
               if not callable(getattr(cls, verb, None))]
    assert not missing, missing
    assert isinstance(cls.now, property)


def _sim_system(**kwargs):
    from repro import ActorSystem, Provisioner, Simulator
    sim = Simulator()
    return ActorSystem(sim, Provisioner(sim), **kwargs)


#: Methods nothing but their own tests called, deleted with those tests.
_DELETED_METHODS = [
    ("repro.core", "ElasticityManager", "least_loaded_server"),
    ("repro.bench", "ClusterRecorder", "cpu_spread_at_end"),
    ("repro.bench", "ClusterRecorder", "actor_count_table"),
    ("repro.cluster", "GaugeSeries", "mean_between"),
    ("repro.cluster", "Server", "idle_cpu_headroom"),
    ("repro.apps", "IterationStats", "converged_iteration"),
    ("repro.core.epl", "CompiledRule", "uses_server_features"),
    ("repro.core.epl.ast", "ActorPattern", "is_bare_var"),
    ("repro.core.epl.ast", "Rule", "behavior_kinds"),
    ("repro.durability", "StateStore", "last_seq"),
    ("repro.graphs", "Graph", "in_degree"),
    ("repro.graphs", "PartitionResult", "part_nodes"),
]


@pytest.mark.parametrize("probe,error", [
    (lambda: importlib.import_module("repro.runtime"), ImportError),
    (lambda: importlib.import_module("repro").RuntimeBackend,
     AttributeError),
    (lambda: importlib.import_module("repro").SimBackend, AttributeError),
    (lambda: importlib.import_module("repro").LiveBackend, AttributeError),
    (lambda: importlib.import_module("repro.live").LiveBackend,
     AttributeError),
    (lambda: _sim_system().backend, AttributeError),
    (lambda: importlib.import_module("repro.actors").ShardedDirectory,
     AttributeError),
    (lambda: importlib.import_module("repro.actors").HashRing,
     AttributeError),
    (lambda: importlib.import_module("repro.actors.sharded_directory"),
     ImportError),
    (lambda: importlib.import_module("repro.actors").Directory.note_commit,
     AttributeError),
    (lambda: _sim_system(directory=None), TypeError),
    (lambda: importlib.import_module("repro").WindowedMeter, AttributeError),
    (lambda: importlib.import_module("repro.cluster").WindowedMeter,
     AttributeError),
    (lambda: importlib.import_module("repro.cluster.metrics").WindowedMeter,
     AttributeError),
    (lambda: importlib.import_module("repro.core.profiling.ring"),
     ImportError),
    (lambda: importlib.import_module("repro.sim").AllOf, AttributeError),
    (lambda: importlib.import_module("repro.sim").Simulator.every,
     AttributeError),
    (lambda: importlib.import_module("repro.sim").Signal.reset,
     AttributeError),
    (lambda: importlib.import_module("repro").ActorSystem.add_join_listener,
     AttributeError),
    (lambda: importlib.import_module(
        "repro").LiveActorSystem.add_join_listener, AttributeError),
    (lambda: importlib.import_module(
        "repro.core.emr.hierarchy").GroupAggregate.delta_against,
     AttributeError),
    (lambda: importlib.import_module("repro.cluster.server")._server_ids,
     AttributeError),
    (lambda: importlib.import_module("repro.actors.system")._actor_ids,
     AttributeError),
    (lambda: importlib.import_module("repro.actors.message")._message_ids,
     AttributeError),
    (lambda: importlib.import_module("repro.fuzz.runner")._reset_id_counters,
     AttributeError),
    (lambda: importlib.import_module("repro.live").RequestLedger,
     AttributeError),
    (lambda: importlib.import_module("repro.live.frontdoor").RequestLedger,
     AttributeError),
    (lambda: importlib.import_module(
        "repro.core.emr.hierarchy").RootGem._execute_cross, AttributeError),
    (lambda: importlib.import_module("repro.core.emr.lem").LEM._execute,
     AttributeError),
    (lambda: importlib.import_module(
        "repro.overload").OverloadManager.note_consumed, AttributeError),
] + [(lambda module=module, cls=cls, attr=attr: getattr(
        getattr(importlib.import_module(module), cls), attr), AttributeError)
     for module, cls, attr in _DELETED_METHODS], ids=["repro.runtime", "repro.RuntimeBackend", "repro.SimBackend",
        "repro.LiveBackend", "repro.live.LiveBackend",
        "ActorSystem.backend", "repro.actors.ShardedDirectory",
        "repro.actors.HashRing", "repro.actors.sharded_directory",
        "Directory.note_commit", "ActorSystem(directory=)",
        "repro.WindowedMeter", "repro.cluster.WindowedMeter",
        "repro.cluster.metrics.WindowedMeter",
        "repro.core.profiling.ring", "repro.sim.AllOf", "Simulator.every",
        "Signal.reset", "ActorSystem.add_join_listener",
        "LiveActorSystem.add_join_listener", "GroupAggregate.delta_against",
        "repro.cluster.server._server_ids", "repro.actors.system._actor_ids",
        "repro.actors.message._message_ids",
        "repro.fuzz.runner._reset_id_counters", "repro.live.RequestLedger",
        "repro.live.frontdoor.RequestLedger", "RootGem._execute_cross",
        "LEM._execute", "OverloadManager.note_consumed"]
    + [f"{cls}.{attr}" for _module, cls, attr in _DELETED_METHODS])
def test_removed_runtime_adapters_fail_loudly(probe, error):
    # Each runtime is its own backend, one directory serves every lookup,
    # one meter serves every window, joins arrive as hooks and aggregates
    # ship whole, each runtime counts its own ids, one ledger accounts
    # every disposition and one executor starts every planned move: code
    # still reaching for the adapter layer, the hash-ring directory, the
    # scanning meter, a deleted waitable or timer, a join listener, a
    # delta, a module-global id counter, the request ledger, a per-tier
    # executor or a test-only method must fail, not find a stale shim.
    with pytest.raises(error):
        probe()


def test_live_emr_adapter_decides_nothing():
    # One implementation decides migrations: the adapter may not import
    # the rule evaluator or the EPL behaviours it would need to.
    (_path, source), = _sources("live", "emr.py")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = [name for name in imported
                 if re.search(r"(emr\.evaluate|emr\.planning|epl\.ast)\b",
                              name)]
    assert not forbidden, forbidden

    from repro.live import LiveEmrConfig
    assert [f.name for f in dataclasses.fields(LiveEmrConfig)] == [
        "period_ms"]


# -- the benchmark's config keywords are still fields ----------------------

#: ``make_config`` (benchmarks/e2e) drops unknown names silently so the
#: benchmark survives a deleted knob; a keyword listed here is known to be
#: gone.  Anything else it passes must still be a dataclass field, or a
#: workload would quietly stop being the one BENCHMARK.json describes.
LEGACY_BENCHMARK_KEYWORDS = {"control_plane"}


def test_benchmark_config_keywords_are_still_fields():
    from repro.core import EmrConfig
    from repro.live import LiveEmrConfig

    configs = {"EmrConfig": EmrConfig, "LiveEmrConfig": LiveEmrConfig}
    seen = {}
    for path in glob.glob(os.path.join(REPO, "benchmarks", "e2e", "*.py")):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "make_config"
                    and node.args
                    and getattr(node.args[0], "id", None) in configs):
                assert all(kw.arg for kw in node.keywords), \
                    f"{path}: **kwargs hides the keywords from this test"
                seen.setdefault(node.args[0].id, set()).update(
                    kw.arg for kw in node.keywords)
    assert set(seen) == set(configs), seen
    for name, keywords in seen.items():
        fields = {f.name for f in dataclasses.fields(configs[name])}
        stale = keywords - fields - LEGACY_BENCHMARK_KEYWORDS
        assert not stale, f"{name} no longer has {sorted(stale)}"


# -- the benchmark tracer's targets still exist, where it looks for them ---

def _trace_targets():
    path = os.path.join(REPO, "benchmarks", "e2e", "trace.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id.endswith(
                "_TARGETS"):
            tables[node.target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPAN_TARGETS", "ASYNC_SPAN_TARGETS",
                           "COUNT_TARGETS", "MANAGER_START_TARGETS"}
    return sorted((name, target) for table in tables.values()
                  for name, target in table.items())


@pytest.mark.parametrize("name,target", _trace_targets())
def test_trace_target_is_defined_on_the_class_it_names(name, target):
    # The tracer wraps the first class in the MRO that defines the
    # attribute: a target inherited from a shared base would resolve,
    # and silently start counting every subclass of that base.
    module_name, _, path = target.partition(":")
    class_name, _, attr = path.partition(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    assert callable(getattr(cls, attr)), target
    assert attr in cls.__dict__, \
        f"{name}: {class_name}.{attr} is inherited, not defined there"


# -- an actor's runtime state lives on its record, not beside it -----------

def test_actor_systems_keep_no_per_actor_side_tables():
    # Every id-keyed table next to the directory has to be kept honest
    # by hand across destroy and resurrection (same id, new record);
    # ActorRecord.cell is where per-incarnation state goes.
    offenders = []
    for parts in (("actors", "system.py"), ("live", "system.py")):
        (path, source), = _sources(*parts)
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and getattr(node.target.value, "id", None) == "self"
                    and re.match(r"(typing\.)?Dict\[int\b",
                                 ast.unparse(node.annotation))):
                offenders.append(f"{path}:{node.lineno}: "
                                 f"self.{node.target.attr}")
    assert not offenders, offenders


def test_only_the_directory_writes_a_records_server():
    # Directory.on_server answers from a per-server index that
    # Directory.place keeps in step; a `record.server = x` anywhere
    # else would move the record behind the index's back.
    offenders = []
    pattern = os.path.join(REPO, "src", "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        if path.endswith(os.path.join("actors", "directory.py")):
            continue
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "server"
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) != "self"):
                offenders.append(
                    f"{os.path.relpath(path, REPO)}:{node.lineno}")
    assert not offenders, offenders
