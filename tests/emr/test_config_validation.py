"""Tests for EmrConfig validation."""

import ast
import dataclasses
import pathlib

import pytest

from repro.cluster.server import SERVER_WINDOW_MS
from repro.core import EmrConfig
from repro.durability import DurabilityConfig
from repro.durability.store import StateStore
from repro.live import LiveActorSystem, LiveEmrConfig
from repro.overload import OverloadConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_defaults_are_valid():
    config = EmrConfig()
    assert config.period_ms == 60_000.0
    assert config.stability_window_ms() == config.period_ms


@pytest.mark.parametrize("kwargs", [
    {"period_ms": 0.0},
    {"period_ms": -5.0},
    {"gem_count": 0},
    {"stability_ms": -1.0},
    {"gem_wait_ms": -1.0},
    {"gem_reply_timeout_ms": 0.0},
    {"gem_wait_ms": 5_000.0, "gem_reply_timeout_ms": 4_000.0},
    {"max_moves_per_server": 0},
    {"min_servers": -1},
    {"max_scale_out_per_period": -1},
    {"lem_stagger_ms": -1.0},
    {"profiling_overhead_cpu_ms": -0.01},
    {"suspicion_timeout_ms": 0.0},
    {"suspicion_timeout_ms": 60_000.0},          # == period: always suspect
    {"period_ms": 5_000.0, "suspicion_timeout_ms": 4_000.0},
    {"server_group_size": 0},
    {"cross_group_band": 0.0},
])
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ValueError):
        EmrConfig(**kwargs)


def test_period_is_bounded_by_the_server_meter_retention():
    # Server CPU/NIC meters keep SERVER_WINDOW_MS of history; a longer
    # period would sum only the retained part of its window and divide
    # by all of it, under-reporting utilisation.
    assert EmrConfig(period_ms=SERVER_WINDOW_MS).period_ms == SERVER_WINDOW_MS
    with pytest.raises(ValueError, match="SERVER_WINDOW_MS"):
        EmrConfig(period_ms=SERVER_WINDOW_MS + 0.5)


def test_failure_detection_knobs_accepted():
    config = EmrConfig(period_ms=5_000.0, suspicion_timeout_ms=6_000.0)
    assert config.suspicion_timeout_ms == 6_000.0


@pytest.mark.parametrize("removed", [
    "control_plane", "incremental_profiling", "meter_backend",
    "client_timeout_ms", "client_max_retries", "client_backoff_base_ms",
    "client_backoff_cap_ms", "group_top_k", "control_latency_ms",
    "partition_probe_interval_ms", "migration_phase_timeout_ms",
    "admission_upper", "allow_scale_out", "allow_scale_in", "min_reports",
    "resurrect_lost_actors", "warm_start_profiles",
])
def test_removed_knobs_fail_loudly(removed):
    # One implementation per idea: a config still naming a deleted
    # switch must raise, not be silently ignored.
    with pytest.raises(TypeError):
        EmrConfig(**{removed: None})


@pytest.mark.parametrize("factory,removed", [
    (OverloadConfig, "brownout_enabled"),
    (DurabilityConfig, "journal"),
    (DurabilityConfig, "enabled"),
    (DurabilityConfig, "max_checkpoints_per_actor"),
    (OverloadConfig, "admission_cpu_window_ms"),
    (StateStore, "journal_enabled"),
    (StateStore, "max_per_actor"),
    (LiveActorSystem, "clock"),
    (LiveActorSystem, "default_instance_type"),
], ids=lambda value: getattr(value, "__name__", value))
def test_removed_subsystem_knobs_fail_loudly(factory, removed):
    # Same contract for the knobs that lived outside EmrConfig.
    with pytest.raises(TypeError):
        factory(**{removed: None})


def test_detection_disabled_by_default():
    assert EmrConfig().suspicion_timeout_ms is None


def test_explicit_stability_zero_allowed():
    # Zero stability means "no window" — used by the ablation.
    config = EmrConfig(stability_ms=0.0)
    assert config.stability_window_ms() == 0.0


def _knob_uses():
    """Per non-test module of ``src/repro`` and ``benchmarks/``: the
    attribute names it reads, and the names it gives a value — by
    keyword argument or by string dict key (the fuzz generator builds
    config kwargs as dicts)."""
    uses = {}
    for top in ("src/repro", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            read, given = set(), set()
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    given.add(node.arg)
                elif isinstance(node, ast.Dict):
                    given.update(key.value for key in node.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
                elif (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.slice, ast.Constant)
                        and isinstance(node.slice.value, str)):
                    given.add(node.slice.value)
            uses[path] = (read, given)
    return uses


def test_every_config_field_is_read_and_set_outside_tests():
    # A knob only tests set is a constant with extra steps, and a knob
    # nothing reads is dead: neither belongs in a config.
    uses = _knob_uses()
    unread, test_only = [], []
    for config in (EmrConfig, DurabilityConfig, OverloadConfig,
                   LiveEmrConfig):
        home = ROOT / "src" / (config.__module__.replace(".", "/") + ".py")
        others = [use for path, use in uses.items() if path != home]
        for field in dataclasses.fields(config):
            if not any(field.name in read for read, _ in others):
                unread.append(f"{config.__name__}.{field.name}")
            if not any(field.name in given for _, given in others):
                test_only.append(f"{config.__name__}.{field.name}")
    assert not unread and not test_only, (
        f"never read: {unread}; set only by tests: {test_only}")
