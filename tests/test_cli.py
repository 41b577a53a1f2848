"""Command-line front end: artifacts, verdicts, exit codes."""

import csv
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from jumpctrl import bsde, cli, dp, hjb, problem, sim, transition


def _write_cfg(path, family, **extra):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(extra)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def decay_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    return _write_cfg(root / "decay.json", "uncontrolled-decay")


@pytest.fixture(scope="module")
def bang_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    return _write_cfg(root / "bang.json", "bang-drift")


def _read_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_decay_writes_deterministic_identical_paths(decay_cfg,
                                                             tmp_path):
    out = tmp_path / "run"
    code = cli.main(["simulate", decay_cfg, "--paths", "10", "--steps", "8",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "paths.csv")
    assert len(rows) == 10 * 9
    by_path = {}
    for r in rows:
        by_path.setdefault(r["path"], []).append((r["t"], r["x0"]))
    assert len(by_path) == 10
    # noise-free dynamics: every trajectory is the same exponential decay
    assert all(v == by_path["0"] for v in by_path.values())
    for t_str, x_str in by_path["0"]:
        assert abs(float(x_str) - math.exp(-float(t_str))) < 1e-12


def test_simulate_rerun_is_byte_identical(decay_cfg, tmp_path):
    args = ["simulate", decay_cfg, "--paths", "7", "--steps", "8",
            "--seed", "3"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "paths.csv").read_bytes()
    second = (tmp_path / "b" / "paths.csv").read_bytes()
    assert first == second
    assert b"\r\n" in first


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["simulate", str(tmp_path / "nope.json"),
                     "--paths", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------

_EXPONENTIAL_MARKS = {"total_rate": 2.0, "mark_sampler_id": "exponential",
                      "mark_parameters": {"scale": 0.3}}

#: config entries of jump-reward that each carry one key the loader does
#: not read: the retired keys, then a misspelt key at each level
UNREAD_KEYS = {
    "regularity": {"regularity": {"lipschitz_l": 1.0}},
    "jump.rho_envelope": {"jump": {**_EXPONENTIAL_MARKS,
                                   "rho_envelope": 1.0}},
    "jump.second_moment": {"jump": {**_EXPONENTIAL_MARKS,
                                    "second_moment": 0.36}},
    "tolerances.tol_exact": {"tolerances": {"tol_exact": 1e-10}},
    "tolerances.lipschitz_slack": {"tolerances": {"lipschitz_slack": 1.05}},
    "tolerances.ks_alpha": {"tolerances": {"ks_alpha": 0.01}},
    "horizn": {"horizn": 2.0},
    "parameters.sigm": {"parameters": {"sigm": 5.0}},
    "jump.total_rat": {"jump": {**_EXPONENTIAL_MARKS, "total_rat": 2.0}},
    "jump.mark_parameters.scal": {"jump": {
        **_EXPONENTIAL_MARKS, "mark_parameters": {"scale": 0.3,
                                                  "scal": 0.3}}},
    "initial_law.cov": {"initial_law": {"kind": "point", "mean": [0.0],
                                        "cov": [1.0]}},
    "tolerances.tol_vlaue": {"tolerances": {"tol_vlaue": 0.02}},
}


def _exits_2_before_any_output(cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["solve", cfg, "--method", "dp", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("key", UNREAD_KEYS)
def test_a_key_the_loader_does_not_read_exits_2(key, tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", "jump-reward", **UNREAD_KEYS[key])
    err = _exits_2_before_any_output(cfg, tmp_path, capsys)
    assert f"unknown config key '{key}'" in err


@pytest.mark.parametrize("extra,message", [
    ({"jump": {"total_rate": 2.0, "mark_sampler_id": "uniform-interval",
               "mark_parameters": {}}},
     "missing config key 'jump.mark_parameters.low'"),
    ({"jump": {"total_rate": 2.0, "mark_sampler_id": "exponential"}},
     "missing config key 'jump.mark_parameters'"),
    ({"tolerances": {"tol_value": "abc"}}, "tolerance 'tol_value'"),
])
def test_a_missing_key_or_bad_value_exits_2(extra, message, tmp_path,
                                            capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", "jump-reward", **extra)
    assert message in _exits_2_before_any_output(cfg, tmp_path, capsys)


def test_exponential_marks_solve_without_a_declared_moment(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json", "jump-reward",
                     jump=_EXPONENTIAL_MARKS)
    out = tmp_path / "run"
    assert cli.main(["solve", cfg, "--method", "dp", "--out", str(out)]) == 0
    # closed form max_a (a - a^2 M) with M = rate * 2 scale^2 = 0.36
    report = _read_json(out / "value_report.json")
    assert abs(report["v0_dp"] - 0.64) <= problem.DEFAULT_TOLERANCES[
        "tol_value"]


def test_simulate_manifest_lists_every_output(decay_cfg, tmp_path):
    out = tmp_path / "run"
    cli.main(["simulate", decay_cfg, "--paths", "3", "--steps", "4",
              "--out", str(out)])
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["tool_version"]
    assert manifest["verdicts"] == {}
    assert sorted(manifest["outputs"]) == sorted(
        p.name for p in out.iterdir())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_dp_reports_the_analytic_bang_value(bang_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "32",
                     "--out", str(out)])
    assert code == 0
    report = _read_json(out / "value_report.json")
    assert abs(report["v0_dp"] - 1.0) <= 1e-2
    assert set(report["verdicts"]) == set(cli.VERDICT_KEYS)
    assert report["verdicts"]["hjb-certificate"] == "pass"
    assert report["verdicts"]["monotonicity"] == "skipped"
    assert (out / "dp_field.csv").exists()
    assert (out / "dp_field.json").exists()


def test_a_certificate_over_too_few_nodes_fails(tmp_path):
    # 5 nodes leave 3 interior ones, and the clamp-reach band all but one
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward")
    out = tmp_path / "run"
    assert cli.main(["solve", cfg, "--method", "dp", "--nodes", "5",
                     "--seed", "7", "--out", str(out)]) == 1
    report = _read_json(out / "value_report.json")
    assert report["verdicts"]["hjb-certificate"] == "fail"
    detail = report["details"]["hjb-certificate"]
    assert detail["n_certified"] == 1
    assert detail["interior_max_abs_residual"] <= detail["tol_hjb"]
    assert detail["reason"] == "certified 1 of 3 interior nodes"


def test_solve_penalized_grid_report_has_monotone_ladder(bang_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", bang_cfg, "--method", "penalized-grid",
                     "--ladder", "1,2,4,8", "--steps", "32",
                     "--paths", "2000", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "value_report.json")
    assert report["levels"] == [1, 2, 4, 8]
    vals = report["level_values"]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert report["verdicts"]["monotonicity"] == "pass"
    assert report["verdicts"]["value-equality"] == "pass"
    assert report["tilt"]["mean"] <= report["v0_dp"] + 3 * report["tilt"]["se"]
    ladder_rows = _read_csv(out / "ladder.csv")
    assert [int(r["level"]) for r in ladder_rows] == [1, 2, 4, 8]


def test_solve_penalized_lsmc_reports_its_regression_fallbacks(bang_cfg,
                                                               tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", bang_cfg, "--method", "penalized-lsmc",
                     "--ladder", "1,4", "--steps", "32", "--paths", "4000",
                     "--out", str(out)])
    assert code == 0
    lsmc = _read_json(out / "value_report.json")["details"]["lsmc"]
    # every path starts at one point in the registry regime: that step-0
    # cell is rank one (a ridge fit) and the two other cells are carried
    assert lsmc == {"ridge_events": 1, "carried_cells": 2,
                    "n_paths": 4000, "n_excluded": 0}


def test_solve_and_verify_report_the_same_values(bang_cfg, tmp_path):
    common = ["--paths", "2000", "--seed", "7"]
    for method in ("penalized-grid", "penalized-lsmc"):
        cli.main(["solve", bang_cfg, "--method", method, *common,
                  "--out", str(tmp_path / method)])
    cli.main(["verify", bang_cfg, "--suite", "value-equality", *common,
              "--out", str(tmp_path / "verify")])
    solved = _read_json(tmp_path / "penalized-grid" / "value_report.json")
    checked = _read_json(tmp_path / "verify" / "verify_report.json")[
        "details"]["value-equality"]
    assert solved["v0_dp"] == checked["v_dp"]
    assert solved["value_limit"] == checked["v_randomized"]
    assert solved["tilt"]["mean"] == checked["tilt_gain"]
    assert ((tmp_path / "penalized-lsmc" / "dp_field.csv").read_bytes()
            == (tmp_path / "penalized-grid" / "dp_field.csv").read_bytes())


def test_solve_rerun_reproduces_artifacts_byte_for_byte(bang_cfg, tmp_path):
    args = ["solve", bang_cfg, "--method", "penalized-grid",
            "--ladder", "1,4", "--steps", "32", "--paths", "1000"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("ladder.csv", "dp_field.csv", "penalized_field.csv",
                 "residual.csv", "value_report.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_solve_unknown_method_exits_2(bang_cfg, tmp_path):
    code = cli.main(["solve", bang_cfg, "--method", "newton",
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_solve_and_verify_default_to_one_ladder():
    parser = cli.build_parser()
    solve = parser.parse_args(["solve", "c.json", "--method", "dp",
                               "--out", "o"])
    verify = parser.parse_args(["verify", "c.json"])
    assert solve.ladder is verify.levels is cli.DEFAULT_LEVELS


@pytest.mark.parametrize("argv, minimum", [
    (["solve", "--method", "dp", "--steps", "1"],
     "--steps must be at least 2"),
    (["solve", "--method", "dp", "--steps", "0"],
     "--steps must be at least 2"),
    (["verify", "--suite", "martingale", "--paths", "1"],
     "--paths must be at least 2"),
    (["solve", "--method", "dp", "--nodes", "4"],
     "--nodes must be at least 5"),
    (["verify", "--suite", "martingale", "--nodes", "4"],
     "--nodes must be at least 5"),
])
def test_degenerate_sizes_exit_2_without_traceback(bang_cfg, tmp_path,
                                                   capsys, argv, minimum):
    command, *flags = argv
    code = cli.main([command, bang_cfg, *flags, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert minimum in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "penalized-grid", "--ladder", "4,2,1"],
    ["solve", "--method", "dp", "--ladder", "1,1"],
    ["verify", "--levels", "0,1"],
    ["verify", "--levels", "16"],
    ["verify", "--suite", "constraint", "--levels", "16"],
])
def test_unusable_levels_exit_2_before_any_output(bang_cfg, tmp_path, capsys,
                                                  argv):
    command, *flags = argv
    out = tmp_path / "out"
    code = cli.main([command, bang_cfg, *flags, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "levels" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_one_level_is_enough_without_the_constraint_suite(bang_cfg, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["verify", bang_cfg, "--suite", "monotone",
                     "--levels", "16", "--out", str(out)])
    assert code == 0
    assert _read_json(out / "verify_report.json")["verdicts"] == {
        "monotone": "pass"}


def test_solve_reports_truncated_jump_mass(tmp_path):
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward")
    out = tmp_path / "run"
    assert cli.main(["solve", cfg, "--method", "dp", "--steps", "16",
                     "--nodes", "41", "--out", str(out)]) == 0
    report = _read_json(out / "value_report.json")
    assert 0.0 < report["details"]["truncated_jump_mass"] < 1e-6


def test_verify_reports_truncated_jump_mass(tmp_path):
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward",
                     parameters={"rate": 100.0}, control_points=[1.0],
                     a0_index=0)
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="Poisson mass"):
        cli.main(["verify", cfg, "--suite", "hjb", "--steps", "64",
                  "--nodes", "41", "--out", str(out)])
    tail = _read_json(out / "verify_report.json")["details"][
        "truncated_jump_mass"]
    spec = problem.load_problem(cfg)
    assert tail == transition.truncated_jump_mass(spec, 1 / 64)
    assert 0.02 < tail < 0.025


def test_verify_field_reports_the_fields_truncated_mass(tmp_path):
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward")
    spec = problem.load_problem(cfg)
    solve_out, out = tmp_path / "solve", tmp_path / "verify"
    assert cli.main(["solve", cfg, "--method", "dp", "--steps", "16",
                     "--nodes", "21", "--out", str(solve_out)]) == 0
    cli.main(["verify", cfg, "--suite", "hjb", "--nodes", "21",
              "--field", str(solve_out / "dp_field.csv"),
              "--out", str(out)])
    details = _read_json(out / "verify_report.json")["details"]
    assert details["hjb"]["truncated_jump_mass"] == _read_json(
        solve_out / "value_report.json")["details"]["truncated_jump_mass"]
    assert details["hjb"]["truncated_jump_mass"] == (
        transition.truncated_jump_mass(spec, 1 / 16))
    # the top-level figure stays the workbench's own time step
    assert details["truncated_jump_mass"] == transition.truncated_jump_mass(
        spec, 1 / 64)


def test_running_supremum_reports_the_hjb_certificate_skipped(tmp_path):
    # a legal config whose value equation has no smooth generator: the
    # certificate is skipped with the reason, the rest is reported
    cfg = _write_cfg(tmp_path / "sup.json", "lookback-integral",
                     augmentation="running-supremum")
    sizes = ["--steps", "8", "--nodes", "9", "--paths", "200"]
    solve_out, verify_out = tmp_path / "solve", tmp_path / "verify"
    code = cli.main(["solve", cfg, "--method", "penalized-grid",
                     "--ladder", "1,2", *sizes, "--out", str(solve_out)])
    report = _read_json(solve_out / "value_report.json")
    assert code == (1 if "fail" in report["verdicts"].values() else 0)
    assert report["verdicts"]["hjb-certificate"] == "skipped"
    assert ("running-supremum" in
            report["details"]["hjb-certificate"]["reason"])
    outputs = _read_json(solve_out / "manifest.json")["outputs"]
    assert "residual.csv" not in outputs
    assert sorted(p.name for p in solve_out.iterdir()) == outputs

    code = cli.main(["verify", cfg, "--levels", "1,2", *sizes,
                     "--out", str(verify_out)])
    report = _read_json(verify_out / "verify_report.json")
    assert code == (1 if "fail" in report["verdicts"].values() else 0)
    assert sorted(report["verdicts"]) == sorted(cli.SUITES)
    assert report["verdicts"]["hjb"] == "skipped"
    assert "running-supremum" in report["details"]["hjb"]["reason"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(problem.FAMILIES)),
       command=st.sampled_from(["penalized-grid", "penalized-lsmc", "dp",
                                "verify"]),
       steps=st.integers(1, 6), nodes=st.integers(5, 15),
       paths=st.integers(1, 40),
       levels=st.lists(st.integers(1, 16), min_size=1, max_size=3,
                       unique=True).map(sorted))
def test_exit_code_is_0_1_or_2_and_1_only_with_a_fail_verdict(
        family, command, steps, nodes, paths, levels):
    """Small legal and degenerate sizes: cli.main returns, never raises."""
    sizes = ["--steps", str(steps), "--nodes", str(nodes),
             "--paths", str(paths)]
    level_text = ",".join(map(str, levels))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = _write_cfg(root / "cfg.json", family)
        out = root / "run"
        if command == "verify":
            argv = ["verify", cfg, "--suite", "all", "--levels", level_text]
            report = out / "verify_report.json"
        else:
            argv = ["solve", cfg, "--method", command, "--ladder", level_text]
            report = out / "value_report.json"
        code = cli.main(argv + sizes + ["--out", str(out)])
        assert code in (0, 1, 2)
        if code != 2:
            payload = _read_json(report)
            verdicts = payload["verdicts"]
            assert (code == 1) == ("fail" in verdicts.values())
            # a fail verdict rests on measured numbers, never on nan/inf
            for name, verdict in verdicts.items():
                if verdict == "fail":
                    floats = list(_floats(payload["details"][name]))
                    assert all(map(math.isfinite, floats)), (name, floats)


def _floats(obj):
    """Every float of a decoded JSON payload."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value)


def test_dp_field_csv_roundtrips_exactly(bang_cfg, tmp_path):
    out = tmp_path / "run"
    cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "16",
              "--nodes", "41", "--out", str(out)])
    loaded = cli.load_dp_field(out / "dp_field.csv")
    from jumpctrl.problem import load_problem
    spec = load_problem(json.loads(open(bang_cfg).read()))
    fresh = dp.solve_dp_grid(
        spec, n_time_steps=16,
        grid=transition.default_state_grid(spec, 41))
    # repr-formatted floats parse back to the exact same doubles
    assert np.array_equal(loaded.values, fresh.values)
    assert np.array_equal(loaded.argmax, fresh.argmax)
    assert loaded.metadata["fingerprint"] == spec.fingerprint()


def test_solve_dp_field_does_not_depend_on_the_seed(tmp_path):
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward")
    for seed in ("0", "5"):
        assert cli.main(["solve", cfg, "--method", "dp", "--steps", "8",
                         "--nodes", "21", "--seed", seed,
                         "--out", str(tmp_path / seed)]) == 0
    assert ((tmp_path / "0" / "dp_field.csv").read_bytes()
            == (tmp_path / "5" / "dp_field.csv").read_bytes())


def test_solve_dp_simulates_nothing(bang_cfg, tmp_path, monkeypatch):
    calls = []
    core = sim._simulate_core

    def counted(*args, **kwargs):
        bundle = core(*args, **kwargs)
        calls.append(bundle.control_mode)
        return bundle

    monkeypatch.setattr(sim, "_simulate_core", counted)
    out = tmp_path / "run"
    cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "8",
              "--nodes", "21", "--out", str(out)])
    assert (out / "dp_field.csv").exists()
    assert calls == []


@pytest.mark.parametrize("seed", ["0", "7"])
def test_solve_dp_from_a0_zero_reaches_the_grid_closed_form(seed, tmp_path):
    # a = 0 moves nothing on this family, so a lattice sized from the
    # start regime alone would be too narrow for the optimal control
    controls = np.linspace(-1.0, 1.0, 17).tolist()
    cfg = _write_cfg(tmp_path / "jump.json", "jump-reward",
                     parameters={"rate": 3}, control_points=controls,
                     a0_index=controls.index(0.0))
    out = tmp_path / "run"
    cli.main(["solve", cfg, "--method", "dp", "--seed", seed,
              "--out", str(out)])
    got = _read_json(out / "value_report.json")["v0_dp"]
    want = oracles.jump_reward_value(0.0, 1.0, controls, rate=3.0)
    assert abs(got - want) <= problem.DEFAULT_TOLERANCES["tol_value"] / 4


def test_a_gaussian_start_is_valued_as_an_average_over_its_law(tmp_path):
    # v(0, x) = 1/2 - x^2 averaged over X_0 ~ N(0, 0.04) is 0.46; the field
    # read at the law's mean gives 0.5, which the pathwise gains refute
    cfg = _write_cfg(tmp_path / "gauss.json", "jump-reward", initial_law={
        "kind": "gaussian", "mean": [0.0], "cov_diag": [0.04]})
    out = tmp_path / "run"
    code = cli.main(["verify", cfg, "--suite", "all", "--seed", "7",
                     "--out", str(out)])
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["dpp"] == "pass"
    assert code == 0
    got = report["details"]["value-equality"]["v_dp"]
    assert abs(got - 0.46) <= problem.DEFAULT_TOLERANCES["tol_value"] / 4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_suites_pass_on_the_degenerate_problem(decay_cfg,
                                                          tmp_path):
    out = tmp_path / "run"
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "2000",
                     "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert set(report["verdicts"]) == set(cli.SUITES)
    assert all(v == "pass" for v in report["verdicts"].values())


def test_verify_builds_its_lattice_once(decay_cfg, tmp_path, monkeypatch):
    calls = []
    build = transition.default_state_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(transition, "default_state_grid", counted)
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "2000",
                     "--out", str(tmp_path / "run")])
    assert code == 0
    assert len(calls) == 1


def test_verify_simulates_each_bundle_once(decay_cfg, tmp_path,
                                           monkeypatch):
    # the parent simulates the reference bundle and the tilted
    # mode-agreement route, and the reference bundle serves the
    # martingale, mode-agreement and constraint suites; the worker
    # simulates the three dpp tilts and the value-equality tilt
    log = tmp_path / "simulations.txt"
    core = sim._simulate_core

    def counted(*args, **kwargs):
        bundle = core(*args, **kwargs)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {bundle.control_mode}\n")
        return bundle

    monkeypatch.setattr(sim, "_simulate_core", counted)
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "2000",
                     "--out", str(tmp_path / "run")])
    assert code == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len(calls) == 6
    assert [kind for _, kind in calls].count("randomized") == 1
    parent = str(os.getpid())
    assert [kind for pid, kind in calls if pid == parent] == [
        "randomized", "tilted"]
    assert [kind for pid, kind in calls if pid != parent] == ["tilted"] * 4
    assert len({pid for pid, _ in calls}) == 2


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_run(argv, out, capsys):
    """(exit code, stdout, verify_report.json bytes) of one verify run."""
    code = cli.main([*argv, "--out", str(out)])
    _assert_no_child_left()
    return code, capsys.readouterr().out, (
        out / "verify_report.json").read_bytes()


@pytest.mark.parametrize("family, expected", [
    ("bang-drift", 0), ("jump-reward", 0), ("ou-switch", 1)])
def test_verify_worker_reports_what_the_in_process_run_reports(
        family, expected, tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path / "cfg.json", family)
    argv = ["verify", cfg, "--suite", "all", "--paths", "1000",
            "--seed", "7"]
    forked = _verify_run(argv, tmp_path / "forked", capsys)
    monkeypatch.delattr(os, "fork")
    in_process = _verify_run(argv, tmp_path / "in-process", capsys)
    assert forked == in_process
    assert forked[0] == expected
    assert [line.split()[0] for line in forked[1].splitlines()] == list(
        cli.SUITES)


@pytest.mark.parametrize("family", ["bang-drift", "jump-reward"])
def test_verify_report_does_not_depend_on_the_path_block(family, tmp_path,
                                                         capsys, monkeypatch):
    cfg = _write_cfg(tmp_path / "cfg.json", family)
    argv = ["verify", cfg, "--suite", "all", "--paths", "1000",
            "--seed", "7"]
    default = _verify_run(argv, tmp_path / "default", capsys)
    monkeypatch.setattr(sim, "SIM_BLOCK_PATHS", 64)
    assert _verify_run(argv, tmp_path / "blocks-of-64", capsys) == default


@pytest.mark.parametrize("fork", [True, False])
def test_verify_raises_a_worker_suites_error_after_the_earlier_lines(
        decay_cfg, tmp_path, capsys, monkeypatch, fork):
    def broken(*args, **kwargs):
        raise ValueError("restart check broke")

    monkeypatch.setattr(bsde, "check_randomized_dpp", broken)
    if not fork:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "run"
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "500",
                     "--out", str(out)])
    assert code == 2
    _assert_no_child_left()
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == [
        "martingale", "monotone", "constraint"]
    assert "error: restart check broke" in captured.err
    assert not out.exists()


def test_verify_kills_the_worker_when_a_parent_suite_raises(
        decay_cfg, tmp_path, capsys, monkeypatch):
    # the martingale suite precedes every worker suite, so its error is the
    # run's: the worker, stuck in the dpp suite, is killed, not awaited
    def broken(wb):
        raise ValueError("martingale check broke")

    monkeypatch.setitem(cli._SUITE_FNS, "martingale", broken)
    monkeypatch.setattr(bsde, "check_randomized_dpp",
                        lambda *args, **kwargs: time.sleep(60))
    out = tmp_path / "run"
    start = time.monotonic()
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "500",
                     "--out", str(out)])
    assert time.monotonic() - start < 30
    assert code == 2
    _assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: martingale check broke" in captured.err
    assert not out.exists()


def test_verify_fails_when_the_worker_dies_without_a_result(
        decay_cfg, tmp_path, capsys, monkeypatch):
    # runs in the forked worker only: the in-process route is not taken
    monkeypatch.setattr(bsde, "check_randomized_dpp",
                        lambda *args, **kwargs: os._exit(3))
    out = tmp_path / "run"
    code = cli.main(["verify", decay_cfg, "--suite", "all",
                     "--levels", "1,2,4", "--paths", "500",
                     "--out", str(out)])
    assert code == 2
    _assert_no_child_left()
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == [
        "martingale", "monotone", "constraint"]
    assert "the dpp, value-equality suites ended without a result" in (
        captured.err)
    assert not out.exists()


def test_verify_value_equality_passes_on_bang(bang_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "value-equality",
                     "--levels", "1,2,4,8", "--paths", "2000",
                     "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert list(report["verdicts"]) == ["value-equality"]
    detail = report["details"]["value-equality"]
    assert abs(detail["v_dp"] - detail["v_randomized"]) <= detail["band"]


def test_verify_corrupted_field_is_skipped_with_reason(bang_cfg, tmp_path):
    broken = tmp_path / "field.csv"
    broken.write_text("t,x0,value,argmax\r\nnot,a,number,row\r\n",
                      encoding="utf-8")
    broken.with_suffix(".json").write_text("{ not json", encoding="utf-8")
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                     "--field", str(broken), "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "skipped"
    assert "field.csv" in report["details"]["hjb"]["reason"]


def test_verify_permuted_field_rows_are_skipped_with_reason(bang_cfg,
                                                            tmp_path):
    solve_out = tmp_path / "solve"
    cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "16",
              "--nodes", "41", "--out", str(solve_out)])
    lines = (solve_out / "dp_field.csv").read_bytes().split(b"\r\n")
    header, rows = lines[0], [r for r in lines[1:] if r]
    rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    perm = tmp_path / "perm.csv"
    perm.write_bytes(b"\r\n".join([header, *rows, b""]))
    perm.with_suffix(".json").write_bytes(
        (solve_out / "dp_field.json").read_bytes())
    with pytest.raises(ValueError, match="data row 1 is not at"):
        cli.load_dp_field(perm)
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                     "--field", str(perm), "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "skipped"
    assert "perm.csv" in report["details"]["hjb"]["reason"]


def test_verify_field_with_trailing_rows_is_skipped_with_reason(bang_cfg,
                                                               tmp_path):
    solve_out = tmp_path / "solve"
    cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "16",
              "--nodes", "41", "--out", str(solve_out)])
    text = (solve_out / "dp_field.csv").read_bytes()
    last = text.rstrip(b"\r\n").rsplit(b"\r\n", 1)[-1]
    longer = tmp_path / "longer.csv"
    longer.write_bytes(text + last + b"\r\ngarbage,row\r\n")
    longer.with_suffix(".json").write_bytes(
        (solve_out / "dp_field.json").read_bytes())
    with pytest.raises(ValueError, match="found more"):
        cli.load_dp_field(longer)
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                     "--field", str(longer), "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "skipped"
    assert "longer.csv" in report["details"]["hjb"]["reason"]


def test_verify_certifies_a_solved_field_from_disk(bang_cfg, tmp_path):
    solve_out = tmp_path / "solve"
    cli.main(["solve", bang_cfg, "--method", "dp", "--out", str(solve_out)])
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                     "--field", str(solve_out / "dp_field.csv"),
                     "--out", str(out)])
    assert code == 0
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "pass"


def test_verify_foreign_field_fails_with_exit_1(decay_cfg, bang_cfg,
                                                tmp_path):
    solve_out = tmp_path / "solve"
    cli.main(["solve", decay_cfg, "--method", "dp", "--out", str(solve_out)])
    with pytest.warns(RuntimeWarning, match="different problem"):
        code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                         "--field", str(solve_out / "dp_field.csv"),
                         "--out", str(tmp_path / "run")])
    assert code == 1


def test_verify_field_on_a_one_node_time_grid_is_skipped_with_reason(
        bang_cfg, tmp_path, capsys):
    solve_out = tmp_path / "solve"
    cli.main(["solve", bang_cfg, "--method", "dp", "--steps", "16",
              "--nodes", "41", "--out", str(solve_out)])
    side = _read_json(solve_out / "dp_field.json")
    side["time_grid"] = side["time_grid"][:1]
    lines = (solve_out / "dp_field.csv").read_bytes().split(b"\r\n")
    first = tmp_path / "first.csv"
    first.write_bytes(b"\r\n".join(lines[:1 + 41] + [b""]))
    first.with_suffix(".json").write_text(json.dumps(side), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "hjb",
                     "--field", str(first), "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "skipped"
    reason = report["details"]["hjb"]["reason"]
    assert "first.csv" in reason and "fewer than 2" in reason


def test_verify_all_skips_a_one_step_field_with_reason(bang_cfg, tmp_path,
                                                       capsys):
    spec = problem.load_problem(bang_cfg)
    # one step over the whole horizon reaches past the lattice
    with pytest.warns(RuntimeWarning, match="widen"):
        fld = dp.solve_dp_grid(spec, 1,
                               transition.default_state_grid(spec, 41))
    one_step = tmp_path / "one_step.csv"
    cli.write_dp_field_csv(fld, spec, one_step, one_step.with_suffix(".json"))
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "all", "--steps", "16",
                     "--nodes", "41", "--paths", "4000",
                     "--field", str(one_step), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == list(cli.SUITES)
    report = _read_json(out / "verify_report.json")
    assert report["verdicts"]["hjb"] == "skipped"
    assert "at least 2 time steps" in report["details"]["hjb"]["reason"]


def test_verify_martingale_reports_all_four_tilts(bang_cfg, tmp_path):
    out = tmp_path / "run"
    code = cli.main(["verify", bang_cfg, "--suite", "martingale",
                     "--levels", "1,4", "--paths", "2000", "--steps", "32",
                     "--out", str(out)])
    assert code == 0
    detail = _read_json(out / "verify_report.json")["details"]["martingale"]
    ids = [w["nu_id"] for w in detail["weights"]]
    assert ids[:3] == ["const-0.5", "const-1", "const-2"]
    assert ids[3].startswith("argmax-")
    assert detail["mode_agreement"]["ok"]


#: Runs ``verify`` with suites of both lanes raising warnings, one message
#: shared across the lanes and one repeated within a suite; argv[1] says
#: whether the worker's suites run in a forked worker or in-process.
_WARNING_DRIVER = """\
import os
import sys
import warnings

from jumpctrl import cli


def warning(run, messages):
    def suite(*args):
        for message in messages:
            warnings.warn(message, RuntimeWarning)
        return run(*args)
    return suite


for name, messages in (("martingale", ("shared", "martingale")),
                       ("dpp", ("shared", "dpp", "dpp")),
                       ("value-equality", ("value-equality",))):
    cli._SUITE_FNS[name] = warning(cli._SUITE_FNS[name], messages)
cli._suite_hjb = warning(cli._suite_hjb, ("hjb", "shared"))
if sys.argv[1] == "in-process":
    del os.fork
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("action, expected", [
    # the default action shows a message once per location
    ("default", ["shared", "martingale", "dpp", "value-equality", "hjb"]),
    ("always", ["shared", "martingale", "shared", "dpp", "dpp",
                "value-equality", "hjb", "shared"]),
])
def test_verify_worker_warnings_show_as_in_process(decay_cfg, tmp_path,
                                                   action, expected):
    driver = tmp_path / "driver.py"
    driver.write_text(_WARNING_DRIVER, encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONWARNINGS", None)
    runs = {}
    for lane in ("forked", "in-process"):
        # unbuffered, one stream: warnings and verdict lines interleave
        # in the order they were written
        runs[lane] = subprocess.run(
            [sys.executable, "-u", "-W", f"{action}::RuntimeWarning",
             str(driver), lane, "verify", decay_cfg, "--suite", "all",
             "--levels", "1,2,4", "--paths", "500",
             "--out", str(tmp_path / lane)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            check=False)
    assert runs["forked"].returncode == runs["in-process"].returncode == 0
    assert runs["forked"].stdout == runs["in-process"].stdout
    lines = runs["forked"].stdout.decode().splitlines()
    shown = [line.split("RuntimeWarning: ")[1] for line in lines
             if "RuntimeWarning: " in line]
    assert shown == expected
    # in suite order: each suite's warnings precede its verdict line
    assert lines.index("dpp              pass") > max(
        i for i, line in enumerate(lines) if line.endswith(": dpp"))


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


#: Runs ``verify`` with a dpp suite that would keep the worker for a minute.
_STUCK_DPP_DRIVER = """\
import sys
import time

from jumpctrl import bsde, cli

bsde.check_randomized_dpp = lambda *args, **kwargs: time.sleep(60)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs Linux /proc/<pid>/task/<pid>/children")
def test_a_killed_verify_takes_its_worker_along(decay_cfg, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _STUCK_DPP_DRIVER, "verify", decay_cfg,
         "--suite", "all", "--levels", "1,2,4", "--paths", "500",
         "--out", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    worker = None
    try:
        deadline = time.monotonic() + 60.0
        while (worker is None and proc.poll() is None
               and time.monotonic() < deadline):
            try:
                pids = children.read_text(encoding="utf-8").split()
            except OSError:
                break
            if pids:
                worker = int(pids[0])
            else:
                time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait()
    assert worker is not None, "verify ended before it forked its worker"
    try:
        deadline = time.monotonic() + 2.0
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(worker)
    finally:
        if _alive(worker):
            os.kill(worker, signal.SIGKILL)


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _solve_artifacts(bang_cfg, tmp_path):
    out = tmp_path / "artifacts"
    cli.main(["solve", bang_cfg, "--method", "penalized-grid",
              "--ladder", "1,2,4", "--steps", "16", "--paths", "500",
              "--out", str(out)])
    return out


def test_plot_value_ladder_renders_a_staircase(bang_cfg, tmp_path):
    art = _solve_artifacts(bang_cfg, tmp_path)
    svg = tmp_path / "ladder.svg"
    code = cli.main(["plot", str(art / "ladder.csv"),
                     "--kind", "value-ladder", "--out", str(svg)])
    assert code == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    assert "polyline" in text
    ET.parse(svg)
    assert (tmp_path / "ladder.svg.manifest.json").exists()


def test_plot_residual_heatmap_declares_its_color_scale(bang_cfg, tmp_path):
    art = _solve_artifacts(bang_cfg, tmp_path)
    svg = tmp_path / "heat.svg"
    code = cli.main(["plot", str(art / "residual.csv"),
                     "--kind", "residual-heatmap", "--out", str(svg)])
    assert code == 0
    text = svg.read_text(encoding="utf-8")
    assert "rect" in text
    assert "&#177;" in text       # legend carries the +- scale bound
    ET.parse(svg)


def test_plot_path_fan_draws_one_polyline_per_path(decay_cfg, tmp_path):
    sim_out = tmp_path / "sim"
    cli.main(["simulate", decay_cfg, "--paths", "6", "--steps", "8",
              "--out", str(sim_out)])
    svg = tmp_path / "fan.svg"
    code = cli.main(["plot", str(sim_out / "paths.csv"),
                     "--kind", "path-fan", "--out", str(svg)])
    assert code == 0
    assert svg.read_text(encoding="utf-8").count("<polyline") == 6
    ET.parse(svg)


def test_plot_empty_csv_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("level,value,se\r\n", encoding="utf-8")
    code = cli.main(["plot", str(empty), "--kind", "value-ladder",
                     "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert "empty CSV" in capsys.readouterr().err


def test_plot_wrong_columns_exit_2(bang_cfg, tmp_path, capsys):
    art = _solve_artifacts(bang_cfg, tmp_path)
    code = cli.main(["plot", str(art / "ladder.csv"),
                     "--kind", "path-fan", "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert "columns" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, compared", [
    (["solve", "jump-reward", "--method", "penalized-lsmc",
      "--paths", "5000"],
     ["value_report.json", "ladder.csv", "dp_field.csv", "residual.csv"]),
    # constraint_gap's GEMV runs at every step
    (["verify", "bang-drift", "--suite", "constraint", "--paths", "500"],
     ["verify_report.json"]),
])
def test_artifacts_are_the_same_at_any_blas_thread_count(argv, compared,
                                                         tmp_path):
    command, family, *rest = argv
    cfg = _write_cfg(tmp_path / "cfg.json", family)
    base = {k: v for k, v in os.environ.items()
            if k not in cli.BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    codes = {}
    for name, extra in {"default": {},
                        "two": {"OPENBLAS_NUM_THREADS": "2"}}.items():
        codes[name] = subprocess.run(
            [sys.executable, "-m", "jumpctrl.cli", command, cfg, *rest,
             "--seed", "7", "--out", str(tmp_path / name)],
            env={**base, **extra}, stdout=subprocess.DEVNULL).returncode
    # jump-reward's LSMC value-equality fails at 5000 paths: exit 1
    assert codes["default"] == codes["two"] in (0, 1)
    for artifact in compared:
        assert ((tmp_path / "default" / artifact).read_bytes()
                == (tmp_path / "two" / artifact).read_bytes()), artifact
    # the manifest records the thread variables the run saw
    assert _read_json(tmp_path / "default" / "manifest.json")["threads"] == {
        name: "1" for name in cli.BLAS_THREAD_VARS}
    assert _read_json(tmp_path / "two" / "manifest.json")["threads"] == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": None}


# ---------------------------------------------------------------------------
# parsing details
# ---------------------------------------------------------------------------

def test_level_list_parses_and_rejects():
    import argparse
    assert cli._level_list("1,2,4") == (1, 2, 4)
    with pytest.raises(argparse.ArgumentTypeError):
        cli._level_list("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._level_list(",")
    for text in ("4,2,1", "1,1", "0,1", "-1"):
        with pytest.raises(argparse.ArgumentTypeError, match="increasing"):
            cli._level_list(text)


def test_no_arguments_exits_2():
    assert cli.main([]) == 2


# ---------------------------------------------------------------------------
# CSV bytes
# ---------------------------------------------------------------------------

# Cells that stress the float format: a NaN, a signed zero, a subnormal
# neighbour, a value whose shortest repr is long, and plain ones.
_CELLS = (float("nan"), -0.0, 1e-300, 0.1 + 0.2, 1.0 / 3.0, -7.0,
          12345678.9, 2.5)


def _cells(shape):
    n = int(np.prod(shape))
    return np.resize(np.array(_CELLS), n).reshape(shape)


def _golden_inputs():
    """Hand-built writer inputs on the 2-D lookback lattice (no solver)."""
    spec = problem.load_problem({"schema_version": 1,
                                 "family": "lookback-integral"})
    n_controls = spec.control.size
    grid = transition.LatticeGrid(axes=(np.array([-0.0, 1e-300, 0.1 + 0.2]),
                                        np.array([1.0 / 3.0, 2.5])))
    time_grid = np.array([0.0, 0.1 + 0.2, 1.0])
    meta = {"fingerprint": "golden", "kernel": "golden"}
    argmax = np.arange(12).reshape(2, 3, 2) % n_controls
    dp_field = dp.DpField(time_grid=time_grid, grid=grid,
                          values=_cells((3, 3, 2)), argmax=argmax,
                          metadata=meta)
    pen_field = bsde.PenalizedField(
        level_n=4, time_grid=time_grid, grid=grid,
        values=_cells((3, 3, 2, n_controls))[::-1].copy(),
        continuation=np.zeros((2, 3, 2, n_controls)), metadata=meta)
    band = np.array([[True, True], [False, False], [True, False]])
    res_argmax = np.where(band, -1, argmax)
    residual = hjb.HjbResidualField(
        time_grid=time_grid[:-1], grid=grid,
        residual=np.where(band, np.nan, _cells((2, 3, 2))[::-1]),
        argmax=res_argmax, terminal_error=0.0, excluded=band, metadata={})
    ladder = SimpleNamespace(levels=(1, 2, 4), values=(0.1 + 0.2, -0.0,
                                                       float("nan")),
                             ses=(1e-300, 0.0, 1.0 / 3.0))
    empty = sim.CsrEvents(np.zeros(0), np.zeros(0), np.zeros(3, dtype=int))
    bundle = sim.PathBundle(
        spec=spec, seed=0, time_grid=time_grid,
        states=_cells((2, 3, 2)), regimes=np.array([[1, 0, 0], [1, 1, 0]]),
        pi=empty, theta=empty, running_reward=np.zeros(2),
        excluded=np.array([False, True]), control_mode="randomized")
    return spec, bundle, ladder, dp_field, pen_field, residual


#: sha256 of each writer's output on ``_golden_inputs``, recorded from the
#: row-by-row ``csv.writer`` implementation the columnar writer replaced.
_GOLDEN_SHA256 = {
    "paths":
        "2c8d5daa054d0d3dfd4f02ec9397f6d3fe46f46b16d36a8f31b97d9af8643b5b",
    "ladder":
        "b8a49898e22e6beb5dde3370b14b0a8bcb4cf9a0332fd3befcc213f2fbbec0ea",
    "dp_field":
        "1f87d85f97a079c325ef3f7c955957d4d70191f772454349d010c01f03aa7629",
    "penalized_field":
        "a51c1a79363e080f13a6df72bcfdc9d29427460bb9f65c5c8ee0b1605a76dfa2",
    "residual":
        "dbe20850bb78b749c1c1b247f32fbf3d1b8b6145e9b691a434abc09e645aa818",
}


@pytest.mark.parametrize("chunk_rows", [sim.CSV_CHUNK_ROWS, 5])
@pytest.mark.parametrize("name", sorted(_GOLDEN_SHA256))
def test_csv_writers_match_golden_bytes(name, chunk_rows, tmp_path,
                                        monkeypatch):
    # 5 rows per chunk puts chunk boundaries inside every file
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", chunk_rows)
    spec, bundle, ladder, dp_field, pen_field, residual = _golden_inputs()
    path = tmp_path / f"{name}.csv"
    if name == "paths":
        sim.write_bundle_csv(bundle, str(path), str(tmp_path / "side.json"))
    elif name == "ladder":
        cli.write_ladder_csv(ladder, path)
    elif name == "dp_field":
        cli.write_dp_field_csv(dp_field, spec, path, tmp_path / "side.json")
    elif name == "penalized_field":
        cli.write_penalized_field_csv(pen_field, spec, path)
    else:
        cli.write_residual_csv(residual, spec, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _GOLDEN_SHA256[name]
