"""Meta-tests on the public API surface: docstrings and exports."""

import importlib
import inspect

import pytest

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
    from repro.core import ElasticityManager
    from repro.core.epl import CompiledPolicy
    from repro.serverless import FunctionPlatform, StorageTier

    for cls in (ActorSystem, ElasticityManager, CompiledPolicy,
                StorageTier, FunctionPlatform):
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
