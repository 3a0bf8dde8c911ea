"""Committed golden digests: the behaviour lock behind every deletion.

``digests.json`` was recorded on the last commit that still carried the
A/B paths (heap kernel, unbatched delivery, full-recompute profiling,
``ArrayMeter``, linear scope scan, flat control plane), right after the
pairwise harnesses proved all of them bit-identical.  Each scenario now
replays *once* and is compared field by field against that record, so
the guard survives the deletion of the code it used to diff against.

A mismatch names the scenario and the field that moved.  Re-record
(``PYTHONPATH=src python tests/golden/scenarios.py --record``) only for
a change that is *meant* to alter behaviour, and say so in the PR — see
``docs/testing.md``.
"""

import json
import os
import subprocess
import sys

import pytest

import scenarios

GOLDEN = scenarios.load_digests()
CASES = scenarios.cases()

#: Replayed in a fresh interpreter under each hash seed: the Fig. 7
#: scenario plus one plain and one hierarchical/chaos corpus artifact.
HASHSEED_CASES = ("fig7-pagerank", "corpus/draining-target-reserve",
                  "corpus/adopter-cross-group-flagged")


def field_diffs(name, golden, replayed):
    """One line per top-level field that differs."""
    return [f"{name}: {field}: committed {golden.get(field)!r} != "
            f"replayed {replayed.get(field)!r}"
            for field in sorted(set(golden) | set(replayed))
            if golden.get(field) != replayed.get(field)]


def test_every_case_has_a_digest_and_vice_versa():
    # A new corpus artifact needs its digest recorded; a deleted one
    # must not leave a stale entry that nothing replays.
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replay_matches_committed_digest(name):
    diffs = field_diffs(name, GOLDEN[name], scenarios.digest(name))
    assert not diffs, "\n".join(diffs)


# -- non-vacuity: the committed record must pin real decisions -------------

@pytest.mark.parametrize("name", ["fig7-pagerank", "fig9-estore"])
def test_equivalence_scenario_actually_decides(name):
    # Guard against a vacuous golden: the scenario must exercise the
    # decision path, not pin two empty traces.
    assert GOLDEN[name]["migrations"]
    assert GOLDEN[name]["trace_events"] > len(GOLDEN[name]["migrations"])


@pytest.mark.parametrize("name", ["fig7-pagerank", "fig9-estore"])
def test_snapshot_cache_is_exercised(name):
    # The idle tail must reuse cached snapshots (otherwise the profiling
    # fast path is pinned without ever having run).
    assert GOLDEN[name]["snapshot_cache_hits"] > 0
    assert GOLDEN[name]["snapshot_cache_misses"] > 0


def test_respawned_gem_stays_a_peer():
    # Both the recovered original and its replacement keep processing
    # rounds: a respawn that drops out of the shuffle pins nothing.
    rounds = GOLDEN["gem-respawn"]["gem_rounds_processed"]
    assert len(rounds) == 2 and min(rounds) > 2
    assert GOLDEN["gem-respawn"]["migrations"]


def test_corpus_and_every_profile_are_pinned():
    corpus = [name for name in GOLDEN if name.startswith("corpus/")]
    assert len(corpus) >= 10
    profiles = {name.split("/")[1].rsplit("-", 1)[0]
                for name in GOLDEN if name.startswith("generated/")}
    assert profiles == {"default", "partition", "durability", "overload",
                        "scale", "scale-chaos"}
    for name in GOLDEN:
        if "/" in name:
            # The artifacts pin *fixed* bugs: a digest that "agrees" on
            # a crash or a violation pins nothing.
            assert GOLDEN[name]["error"] is None, name
            assert GOLDEN[name]["violations"] == [], name
            assert GOLDEN[name]["checks_run"] > 0, name
    assert sum(GOLDEN[name]["migrations"] for name in GOLDEN
               if name.startswith("generated/")) > 0


# -- determinism as a gate -------------------------------------------------

@pytest.mark.parametrize("hashseed", ["1", "12345"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = os.path.join(scenarios.HERE, os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, os.path.join(scenarios.HERE, "scenarios.py"),
         *HASHSEED_CASES],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    replayed = json.loads(done.stdout)
    diffs = [line for name in HASHSEED_CASES
             for line in field_diffs(f"{name} (PYTHONHASHSEED={hashseed})",
                                     GOLDEN[name], replayed[name])]
    assert not diffs, "\n".join(diffs)
