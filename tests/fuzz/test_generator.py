"""Scenario generator: determinism, validity, and coverage."""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.core.epl import compile_source
from repro.fuzz import Scenario, generate_scenario
from repro.fuzz.runner import actor_classes_for
from repro.fuzz.scenario import APPS

SEEDS = range(40)


def test_same_seed_same_scenario():
    for seed in SEEDS:
        assert generate_scenario(seed) == generate_scenario(seed)


def test_different_seeds_differ():
    import json
    scenarios = {json.dumps(generate_scenario(seed).to_jsonable(),
                            sort_keys=True) for seed in SEEDS}
    # Not every pair differs (small parameter space) but the campaign
    # must not collapse onto a handful of shapes.
    assert len(scenarios) >= len(SEEDS) * 3 // 4


@pytest.mark.parametrize("seed", [0, 7, 23, 1_000_003])
def test_scenario_round_trips_through_json(seed):
    scenario = generate_scenario(seed)
    assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario


def test_from_jsonable_rejects_unknown_fields():
    data = generate_scenario(0).to_jsonable()
    data["warp_factor"] = 9
    with pytest.raises(ValueError, match="warp_factor"):
        Scenario.from_jsonable(data)


def test_from_jsonable_rejects_wrong_format():
    data = generate_scenario(0).to_jsonable()
    data["format"] = "something-else/1"
    with pytest.raises(ValueError, match="format"):
        Scenario.from_jsonable(data)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_policy_compiles(seed):
    """Every generated rule set must compile against the app's actors —
    a generator that emits invalid EPL fuzzes the compiler, not the
    elasticity stack."""
    scenario = generate_scenario(seed)
    compiled = compile_source(scenario.policy_source(),
                              actor_classes_for(scenario.app))
    assert compiled.rule_count() >= len(scenario.rules)


def test_campaign_covers_all_apps():
    apps = {generate_scenario(seed).app for seed in range(60)}
    assert apps == set(APPS)


def test_campaign_covers_faults_and_autoscale():
    scenarios = [generate_scenario(seed) for seed in range(60)]
    assert any(s.faults for s in scenarios)
    assert any(not s.faults for s in scenarios)
    assert any(s.allow_scale_out or s.allow_scale_in for s in scenarios)


def test_partition_profile_always_includes_a_cut():
    for seed in range(30):
        scenario = generate_scenario(seed, profile="partition")
        partitions = [f for f in scenario.faults
                      if f["fault"] == "partition-network"]
        assert partitions, f"seed {seed} generated no partition"
        assert scenario.servers >= 3
        for fault in partitions:
            assert 0 < len(fault["group"]) < scenario.servers


def test_partition_profile_does_not_perturb_default_mapping():
    for seed in range(30):
        assert generate_scenario(seed) == generate_scenario(
            seed, profile="default")


def test_durability_profile_always_checkpoints_through_a_crash():
    for seed in range(30):
        scenario = generate_scenario(seed, profile="durability")
        assert scenario.servers >= 3
        durability = scenario.durability
        assert durability is not None and "enabled" not in durability
        assert durability["checkpoint_interval_ms"] > 0
        assert durability["replication_factor"] < scenario.servers
        # Every durability scenario exercises recovery: at least one
        # crash, and a failure detector armed to resurrect the victims.
        crashes = [f for f in scenario.faults
                   if f["fault"] == "crash-server"]
        assert crashes, f"seed {seed} generated no crash"
        assert scenario.suspicion_timeout_ms is not None
        assert "durable" in scenario.describe()


def test_durability_profile_is_deterministic():
    for seed in range(30):
        assert generate_scenario(seed, profile="durability") == \
            generate_scenario(seed, profile="durability")


def test_durability_scenario_round_trips_through_json():
    scenario = generate_scenario(3, profile="durability")
    assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario


def test_predurability_artifacts_still_load():
    """Corpus artifacts written before the durability field existed have
    no ``durability`` key — they must keep loading, with durability off."""
    data = generate_scenario(0).to_jsonable()
    data.pop("durability", None)
    scenario = Scenario.from_jsonable(data)
    assert scenario.durability is None


def test_overload_profile_always_storms_a_protected_cluster():
    from repro.overload import MAILBOX_POLICIES, OverloadConfig
    for seed in range(30):
        scenario = generate_scenario(seed, profile="overload")
        overload = scenario.overload
        assert overload is not None, f"seed {seed} generated no overload"
        kwargs = dict(overload)
        jitter = kwargs.pop("client_jitter_frac", 0.0)
        assert 0.0 <= jitter <= 1.0
        # Every remaining key must construct a valid OverloadConfig.
        config = OverloadConfig(**kwargs)
        assert config.policy in MAILBOX_POLICIES
        assert config.mailbox_capacity > 0
        assert (config.brownout_exit_cpu_perc
                < config.brownout_enter_cpu_perc)
        # Every overload scenario actually applies load pressure.
        storms = [f for f in scenario.faults
                  if f["fault"] in ("event-storm", "hot-key-flood")]
        assert storms, f"seed {seed} generated no load storm"
        for storm in storms:
            assert storm["rate_per_ms"] > 0
            assert storm["at_ms"] + storm["duration_ms"] \
                <= scenario.duration_ms
        assert "overload" in scenario.describe()


def test_overload_profile_is_deterministic():
    for seed in range(30):
        assert generate_scenario(seed, profile="overload") == \
            generate_scenario(seed, profile="overload")


def test_overload_profile_does_not_perturb_other_profiles():
    """The overload profile's extra RNG draws are branch-confined: the
    default/partition/durability seed mappings predate it and must stay
    bit-identical (corpus artifacts encode those mappings)."""
    for seed in range(20):
        assert generate_scenario(seed) == generate_scenario(
            seed, profile="default")
    generate_scenario(5, profile="overload")
    # Interleaving overload generation must not leak state either.
    assert generate_scenario(6) == generate_scenario(6, profile="default")


def test_overload_scenario_round_trips_through_json():
    scenario = generate_scenario(3, profile="overload")
    assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario


def test_preoverload_artifacts_still_load():
    """Corpus artifacts written before the overload field existed must
    keep loading, with overload protection off."""
    data = generate_scenario(0).to_jsonable()
    data.pop("overload", None)
    scenario = Scenario.from_jsonable(data)
    assert scenario.overload is None


def test_scale_chaos_profile_always_attacks_the_control_plane():
    chaos_kinds = {"kill-root", "kill-gem", "crash-server",
                   "partition-network"}
    for seed in range(30):
        scenario = generate_scenario(seed, profile="scale-chaos")
        assert scenario.servers >= 6
        assert scenario.server_group_size in (2, 3, 4)
        # Without suspicion a killed leaf is never detected, so
        # promotion/adoption would never run.
        assert scenario.suspicion_timeout_ms is not None
        assert scenario.faults, f"seed {seed} generated no chaos"
        leaf_pool = (-(-scenario.servers // scenario.server_group_size)
                     * scenario.gem_count)
        for fault in scenario.faults:
            assert fault["fault"] in chaos_kinds
            assert 0 < fault["at_ms"] < scenario.duration_ms
            if fault["fault"] == "kill-gem":
                assert 0 <= fault["gem_id"] < leaf_pool


def test_scale_chaos_profile_is_deterministic():
    for seed in range(30):
        assert generate_scenario(seed, profile="scale-chaos") == \
            generate_scenario(seed, profile="scale-chaos")


def test_scale_chaos_shares_the_scale_topology_draws():
    """A seed's cluster shape must be bit-identical under ``scale`` and
    ``scale-chaos`` — only the fault plan (drawn last) and the no-draw
    suspicion override may differ, so a chaos run reproduces the exact
    topology its calm twin mapped."""
    for seed in range(30):
        calm = generate_scenario(seed, profile="scale").to_jsonable()
        chaos = generate_scenario(
            seed, profile="scale-chaos").to_jsonable()
        for data in (calm, chaos):
            data.pop("faults")
            data.pop("suspicion_timeout_ms")
        assert calm == chaos, f"seed {seed} topology diverged"


def test_scale_chaos_scenario_round_trips_through_json():
    scenario = generate_scenario(3, profile="scale-chaos")
    assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario


def test_legacy_control_plane_key_is_accepted_and_discarded():
    """Artifacts written while a separate flat plane existed carry a
    ``control_plane`` key (``adopter-cross-group-flagged.json`` does).
    It is outside input: a valid value loads and is dropped, anything
    else still raises."""
    scenario = generate_scenario(3, profile="scale")
    assert scenario.server_group_size is not None
    data = scenario.to_jsonable()
    assert "control_plane" not in data
    data["control_plane"] = "hierarchical"
    assert Scenario.from_jsonable(data) == scenario
    # The flat plane ignored the group size, so "flat" clears it.
    data["control_plane"] = "flat"
    flat = Scenario.from_jsonable(data)
    assert flat.server_group_size is None
    assert flat == dataclasses.replace(scenario, server_group_size=None)
    data["control_plane"] = "mesh"
    with pytest.raises(ValueError, match="control_plane"):
        Scenario.from_jsonable(data)


def test_legacy_durability_enabled_key_is_accepted():
    """Artifacts written while ``DurabilityConfig`` had an ``enabled``
    switch carry it (``silent-abort-target-crash-while-draining.json``
    does).  The dict's presence is the switch now: ``true`` loads as the
    same dict without the key, ``false`` as durability off."""
    scenario = generate_scenario(3, profile="durability")
    data = scenario.to_jsonable()
    assert "enabled" not in data["durability"]
    data["durability"]["enabled"] = True
    assert Scenario.from_jsonable(data) == scenario
    data["durability"]["enabled"] = False
    assert Scenario.from_jsonable(data) == dataclasses.replace(
        scenario, durability=None)
    assert data["durability"]["enabled"] is False     # input not mutated
    path = os.path.join(os.path.dirname(__file__), "corpus",
                        "silent-abort-target-crash-while-draining.json")
    with open(path) as handle:
        artifact = json.load(handle)["scenario"]
    assert artifact["durability"]["enabled"] is True
    loaded = Scenario.from_jsonable(artifact)
    artifact["durability"].pop("enabled")
    assert loaded.durability == artifact["durability"]


def test_legacy_directory_ring_keys_are_accepted_and_discarded():
    """Artifacts written while the directory could be spread over a hash
    ring carry ``directory_shards`` / ``directory_virtual_nodes``
    (``adopter-cross-group-flagged.json`` does).  There is one directory
    now: the payload loads equal to the same payload without them."""
    data = generate_scenario(3, profile="scale").to_jsonable()
    assert "directory_shards" not in data
    legacy = dict(data, directory_shards=5, directory_virtual_nodes=8)
    assert Scenario.from_jsonable(legacy) == Scenario.from_jsonable(data)
    path = os.path.join(os.path.dirname(__file__), "corpus",
                        "adopter-cross-group-flagged.json")
    with open(path) as handle:
        artifact = json.load(handle)["scenario"]
    assert artifact["directory_shards"] == 5
    stripped = {key: value for key, value in artifact.items()
                if not key.startswith("directory_")}
    assert Scenario.from_jsonable(artifact) == \
        Scenario.from_jsonable(stripped)


#: sha256 over ``generate_scenario(seed, profile).to_json()`` for seeds
#: 0-39.  Re-recorded on the last commit whose scenarios carried the
#: hash-ring directory's ``directory_shards`` / ``directory_virtual_nodes``
#: keys, with both keys dropped before hashing: the RNG draws did not
#: move, only the fields they filled.  (Earlier re-records dropped the
#: flat plane's ``control_plane`` key and durability's ``enabled`` key
#: the same way.)
GENERATOR_PINS = {
    "default":
        "9ad0b217440994ee1a9acbad8698c6c343a63afeec3dcf09158ff3d55bc93aba",
    "partition":
        "6ac1abce70393706dbf0cc24cbc55f96b64e4cc4b10c5a2d629f2896f75950df",
    "durability":
        "f5342e8b02b94af324ef7c9debe858fcfa57842a156f5faff2327849dbf4e0ee",
    "overload":
        "861f10dc9370239528be89e50a5acf74c08f12d1e3cceda82df4bd1a1d14a6d5",
    "scale":
        "1e2121c536fe1d25a2eaeb124473f8b9c18172d0183d54b6e1e8a1a83fd9b0a2",
    "scale-chaos":
        "edc708a31b0041018ab67fb7662a8411aaa382a929571d78717b25b5d6497bbe",
}


@pytest.mark.parametrize("profile", sorted(GENERATOR_PINS))
def test_generator_draws_the_pinned_rng_sequence(profile):
    """Pinned campaigns (``repro.cli fuzz --seed-start``, the e2e
    benchmark's ``chaos_fuzz``) name scenarios by (profile, seed): the
    mapping must not drift when the generator is edited."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(generate_scenario(seed, profile).to_json(
            indent=None).encode())
    assert digest.hexdigest() == GENERATOR_PINS[profile]


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="profile"):
        generate_scenario(0, profile="tsunami")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(seed=1, app="nosuchapp")
    with pytest.raises(ValueError):
        Scenario(seed=1, app="estore", servers=0)
    with pytest.raises(ValueError):
        Scenario(seed=1, app="estore", duration_ms=-5.0)
