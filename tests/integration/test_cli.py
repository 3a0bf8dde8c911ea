"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_apps_lists_all_applications(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("metadata", "pagerank", "estore", "media", "halo",
                 "btree", "piccolo", "zexpander", "cassandra"):
        assert name in out


def test_compile_bundled_app(capsys):
    assert main(["compile", "--app", "estore"]) == 0
    out = capsys.readouterr().out
    assert "compiled 3 rules" in out
    assert "warning" in out  # balance-vs-colocate conflict


def test_compile_json_output(capsys):
    assert main(["compile", "--app", "pagerank", "--json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    config = json.loads(payload)
    assert config["rules"][0]["behaviors"][0]["kind"] == "balance"


def test_compile_policy_file_with_classes(tmp_path, capsys):
    policy = tmp_path / "policy.epl"
    policy.write_text(
        "Player(p) in ref(Session(s).players) => colocate(p, s);\n")
    code = main(["compile", str(policy), "--classes",
                 "repro.apps.halo:Player,Session"])
    assert code == 0
    assert "compiled 1 rules" in capsys.readouterr().out


def test_compile_invalid_policy_reports_error(tmp_path, capsys):
    policy = tmp_path / "bad.epl"
    policy.write_text("true => pin(Ghost(g));\n")
    code = main(["compile", str(policy), "--classes",
                 "repro.apps.halo:Player"])
    assert code == 1
    assert "Ghost" in capsys.readouterr().err


def test_compile_override_policy_for_app(tmp_path, capsys):
    policy = tmp_path / "alt.epl"
    policy.write_text("true => pin(Partition(p));\n")
    assert main(["compile", str(policy), "--app", "estore"]) == 0
    assert "compiled 1 rules" in capsys.readouterr().out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["compile", "--app", "nonexistent"])


def test_compile_without_target_rejected():
    with pytest.raises(SystemExit):
        main(["compile"])


def test_experiments_lists(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "fig9" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_quick_experiment_runs(capsys):
    assert main(["experiment", "fig11a", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "inter-rule" in out and "def-rule" in out


def test_bad_classes_spec_rejected(tmp_path):
    policy = tmp_path / "p.epl"
    policy.write_text("true => pin(Player(p));\n")
    with pytest.raises(SystemExit):
        main(["compile", str(policy), "--classes", "no_colon_here"])


def test_fuzz_summary_counts_the_seeds_that_ran(tmp_path, capsys,
                                                 monkeypatch):
    # A budget that trips after one seed: the clock reads 0 until the
    # first scenario has run, then far past the budget.
    import time

    import repro.fuzz

    clock = {"now": 0.0}
    real_run = repro.fuzz.run_scenario

    def run_then_expire(scenario, **kwargs):
        result = real_run(scenario, **kwargs)
        clock["now"] = 1_000.0
        return result

    monkeypatch.setattr(time, "monotonic", lambda: clock["now"])
    monkeypatch.setattr(repro.fuzz, "run_scenario", run_then_expire)
    assert main(["fuzz", "--seeds", "400", "--seed-start", "0",
                 "--budget-s", "60", "--no-shrink",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "budget of 60.0s exhausted after 1 seed(s)" in out
    assert "\n1 seed(s) in 1000.0s: 0 failure(s)" in out
    assert "400 seed(s)" not in out


def test_fuzz_prints_a_campaign_digest_over_seed_fingerprints(tmp_path,
                                                             capsys):
    import dataclasses
    import hashlib

    from repro.fuzz import generate_scenario, run_scenario

    assert main(["fuzz", "--seeds", "2", "--seed-start", "3",
                 "--no-shrink", "--out", str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    expected = hashlib.sha256()
    for seed in (3, 4):
        result = run_scenario(generate_scenario(seed))
        expected.update(result.fingerprint().encode())
    assert last == f"campaign sha256 {expected.hexdigest()}"
    # Any reported field moves the fingerprint.
    bumped = dataclasses.replace(result, checks_run=result.checks_run + 1)
    assert bumped.fingerprint() != result.fingerprint()
