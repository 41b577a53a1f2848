"""Tests of the benchmark harness itself (not of jumpctrl).

    python3 -m pytest perfbench -q

The last two tests run one real ``jumpctrl solve --method dp`` each (about
a second) through the harness's own child runner.
"""

from __future__ import annotations

import json

import pytest

import run
import tracer


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3] and
    # b holds b1 [6, 8]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    selfs = tracer.self_times(parent, start, end)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    assert sum(selfs) == pytest.approx(end[0] - start[0])


def test_tracer_summary_charges_self_time_per_function():
    t = tracer.Tracer()
    t.names = ["cli.main", "transition.expect_next",
               "transition.multilinear"]
    t.name.extend([0, 1, 2, 2, 1, 2])
    t.parent.extend([-1, 0, 1, 1, 0, 4])
    t.start.extend([0.0, 1.0, 1.5, 2.5, 4.0, 4.5])
    t.end.extend([8.0, 3.0, 2.0, 3.0, 7.0, 6.0])
    summary = t.summary()
    assert summary["cli.main"] == pytest.approx(
        {"calls": 1, "total_s": 8.0, "self_s": 3.0})
    assert summary["transition.expect_next"] == pytest.approx(
        {"calls": 2, "total_s": 5.0, "self_s": 2.5})
    assert summary["transition.multilinear"] == pytest.approx(
        {"calls": 3, "total_s": 2.5, "self_s": 2.5})


def test_wrapped_calls_nest_and_count():
    t = tracer.Tracer()
    inner = t.wrap(lambda x: x + 1, "stream.uniform_block",
                   lambda a, k, r: {"stream.draws": r})
    outer = t.wrap(lambda x: inner(inner(x)), "sim._simulate_core")
    assert outer(1) == 3
    assert list(t.parent) == [-1, 0, 0]
    assert t.counters == {"stream.draws": 5}
    assert all(e >= s for s, e in zip(t.start, t.end))


def test_cli_writers_are_not_cli_self_time():
    summary = {
        "cli.main": {"calls": 1, "total_s": 10.0, "self_s": 0.5},
        "cli.write_residual_csv": {"calls": 1, "total_s": 2.0,
                                   "self_s": 2.0},
        "transition.expect_next": {"calls": 4, "total_s": 7.5,
                                   "self_s": 7.5},
    }
    m = run.layer_metrics(summary, {"cli.write_csv.bytes": 123},
                          tracer.LAYERS, wall_s=10.0, overhead_s=0.25)
    assert m["cli.self_s"] == 0.5
    assert m["cli.write_csv.s"] == 2.0
    assert m["cli.write_csv.bytes"] == 123
    assert m["transition.self_s"] == 7.5
    assert m["transition.expect_next.calls"] == 4
    assert m["bsde.self_s"] == 0.0


def test_metric_names_match_benchmark_json():
    declared = run.declared_metrics()
    per_layer = run.layer_metrics({}, {}, tracer.LAYERS, 1.0, 0.0)
    assert set(per_layer) == set(declared["per_layer"])
    it = [run.Result(run.WORKLOADS["verify"][0], "bang-drift", 1.0, 1.0,
                     50.0, [], {})]
    assert (set(run.workload_metrics(it, [0.5]))
            == set(declared["end_to_end"]))


def _result(cmd, family, wall):
    return run.Result(cmd, family, wall, wall, 100.0, [], {})


def test_workload_metrics_sum_per_command_medians():
    lsmc, sim = run.WORKLOADS["montecarlo"]
    # one stalled lsmc sample (9 s) must not reach the total
    results = [_result(lsmc, "bang-drift", 2.0),
               _result(sim, "bang-drift", 1.0),
               _result(lsmc, "bang-drift", 9.0),
               _result(sim, "bang-drift", 1.2),
               _result(lsmc, "bang-drift", 2.2)]
    m = run.workload_metrics(results, [0.5, 0.7, 0.6])
    assert m["wall_s"] == pytest.approx(2.2 + 1.1)
    assert m["setup_s"] == 0.6
    assert run.command_walls(results) == pytest.approx(
        {"solve_lsmc_s": 2.2, "simulate_s": 1.1})


def test_sample_fills_seconds_least_sampled_first(monkeypatch):
    clock = [0.0]
    walls = {"solve_lsmc": 8.0, "simulate": 2.0}

    def fake_run(self, cmd, family, traced):
        clock[0] += walls[cmd.key]
        return _result(cmd, family, walls[cmd.key])

    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(run.Runner, "run", fake_run)
    results = run.Runner(0, {}).sample("montecarlo", 30.0)
    # the first round takes 20 s; then one lsmc (8 s) and one simulate
    # (2 s) still fit, each the first in order among the least sampled
    assert [(r.command.key, r.family) for r in results[4:]] == [
        ("solve_lsmc", "bang-drift"), ("simulate", "bang-drift")]
    assert clock[0] == 30.0


def test_every_wrapped_function_exists(monkeypatch):
    import importlib

    monkeypatch.syspath_prepend(str(run.SRC))
    for mod, fn, _, _ in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(f"jumpctrl.{mod}"),
                                fn))


def _solve_snapshot(v0=1.0, limit=0.99, se=0.001, verdict="pass"):
    return {
        "manifest.json": {"verdicts": {"value-equality": verdict,
                                       "dpp": "skipped"},
                          "outputs": ["value_report.json"],
                          "wall_clock_s": 1.0},
        "value_report.json": {"v0_dp": v0, "value_limit": limit,
                              "level_ses": [se]},
    }


PROBE = {"expected_v0": 1.0, "tol_value": 0.02, "se_multiplier": 3.0}
SOLVE = run.Command("x", ("solve",), ("value-equality",))
DP = run.Command("solve_dp", ("solve", "--method", "dp"),
                 ("hjb-certificate",))


def test_check_outputs_widens_the_band_by_the_standard_error():
    # limit 0.975 is 0.025 off: inside 0.02 + 3 * 0.002 only with its SE
    assert run.check_outputs(SOLVE, 0, _solve_snapshot(limit=0.975,
                                                       se=0.002),
                             PROBE) == []
    assert run.check_outputs(SOLVE, 0, _solve_snapshot(limit=0.975,
                                                       se=0.0),
                             PROBE) != []


@pytest.mark.parametrize("cmd,snap,code", [
    (SOLVE, _solve_snapshot(v0=1.5), 0),
    (SOLVE, _solve_snapshot(verdict="fail"), 0),
    (SOLVE, _solve_snapshot(), 1),
    (SOLVE, {}, 0),
    # penalized-lsmc must compute monotonicity and the HJB certificate
    (run.WORKLOADS["montecarlo"][0], _solve_snapshot(), 0),
])
def test_check_outputs_rejects(cmd, snap, code):
    assert run.check_outputs(cmd, code, snap, PROBE)


def test_differences_allow_only_the_kernel_checksum():
    ref = {"a.csv": {"sha256": "0" * 64, "rows": 3},
           "dp_field.json": {"kernel": "aaaa", "axes": [[0.0, 1.0]]},
           "manifest.json": {"wall_clock_s": 1.0, "seed": 0},
           "value_report.json": {"v0_dp": float("nan")}}
    new = json.loads(json.dumps(ref))
    new["dp_field.json"]["kernel"] = "bbbb"
    new["manifest.json"]["wall_clock_s"] = 2.0
    assert run.differences(ref, new) == []
    new["a.csv"]["sha256"] = "1" * 64
    new["value_report.json"]["v0_dp"] = 0.5
    assert run.differences(ref, new) == ["a.csv", "value_report.json"]
    del new["manifest.json"]
    assert "manifest.json" in run.differences(ref, new)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    configs = run.write_configs()
    probes = {"bang-drift": json.loads(json.dumps(PROBE))}
    return run.Runner(0, configs, probes)


def test_wrong_expected_value_counts_as_failed_operation(runner, capsys):
    good = runner.run(DP, "bang-drift", traced=False)
    assert good.problems == []
    runner.probes["bang-drift"]["expected_v0"] = 1.25
    bad = runner.run(DP, "bang-drift", traced=False)
    assert any("misses closed form" in p for p in bad.problems)
    run.emit({}, {}, {}, [good, bad], {})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["correct"] is False


def test_traced_run_reports_the_same_outputs(runner):
    plain = runner.run(DP, "bang-drift", traced=False)
    traced = runner.run(DP, "bang-drift", traced=True)
    assert plain.problems == [] and traced.problems == []
    assert (plain.snapshot["dp_field.json"]["kernel"]
            != traced.snapshot["dp_field.json"]["kernel"])
    assert traced.trace["command"][:2] == ["solve", str(
        runner.configs["bang-drift"])]
    summary = traced.trace["summary"]
    assert summary["dp.solve_dp_grid"]["calls"] == 1
    assert summary["cli.main"]["calls"] == 1
