"""Tests for EmrConfig validation."""

import pytest

from repro.core import EmrConfig
from repro.durability import DurabilityConfig
from repro.durability.store import StateStore
from repro.live import LiveActorSystem
from repro.overload import OverloadConfig


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
    {"max_scale_out_per_period": 0},
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


def test_failure_detection_knobs_accepted():
    config = EmrConfig(period_ms=5_000.0, suspicion_timeout_ms=6_000.0,
                       resurrect_lost_actors=False)
    assert config.suspicion_timeout_ms == 6_000.0
    assert config.resurrect_lost_actors is False


@pytest.mark.parametrize("removed", [
    "control_plane", "incremental_profiling", "meter_backend",
    "client_timeout_ms", "client_max_retries", "client_backoff_base_ms",
    "client_backoff_cap_ms", "group_top_k", "control_latency_ms",
    "partition_probe_interval_ms", "migration_phase_timeout_ms",
    "admission_upper",
])
def test_removed_knobs_fail_loudly(removed):
    # One implementation per idea: a config still naming a deleted
    # switch must raise, not be silently ignored.
    with pytest.raises(TypeError):
        EmrConfig(**{removed: None})


@pytest.mark.parametrize("factory,removed", [
    (OverloadConfig, "brownout_enabled"),
    (DurabilityConfig, "journal"),
    (StateStore, "journal_enabled"),
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
