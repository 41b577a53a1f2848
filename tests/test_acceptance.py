"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion is checked at its stated tolerance, pulling every expected
value from the independent oracle routes in oracles.py or from a second
solver route inside the package.  The verdict lines bypass pytest capture
so every run prints the full pass/fail table.
"""

import json

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, cli, dp, girsanov, hjb, sim, transition
from jumpctrl.problem import load_problem

LADDER = (1, 2, 4, 8, 16)
N_BIG = 100_000


def _spec(family, **over):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(over)
    return load_problem(cfg)


FAMILIES = ("uncontrolled-decay", "bang-drift", "jump-reward",
            "ou-switch", "lookback-integral")


def _ladder(spec):
    """The lattice ladder on the time grid its top level needs and the
    default state grid."""
    return bsde.minimal_value(
        spec, LADDER, bsde.default_time_steps(spec, max(LADDER)),
        transition.default_state_grid(spec))


@pytest.fixture(scope="module")
def bang_spec():
    return _spec("bang-drift")


@pytest.fixture(scope="module")
def jump_spec():
    return _spec("jump-reward")


@pytest.fixture(scope="module")
def bang_ladder(bang_spec):
    return _ladder(bang_spec)


@pytest.fixture(scope="module")
def jump_ladder(jump_spec):
    return _ladder(jump_spec)


@pytest.fixture(scope="module")
def bang_dp(bang_spec, bang_ladder):
    return dp.solve_dp_grid(bang_spec, bang_ladder.n_time_steps,
                            bang_ladder.last_field.grid)


@pytest.fixture(scope="module")
def bang_bundle_big(bang_spec, bang_ladder):
    return sim.simulate_bundle(bang_spec, N_BIG, seed=11,
                               n_steps=bang_ladder.n_time_steps)


@pytest.fixture(scope="module")
def jump_bundle_big(jump_spec, jump_ladder):
    return sim.simulate_bundle(jump_spec, N_BIG, seed=13,
                               n_steps=jump_ladder.n_time_steps)


@pytest.fixture
def announce(capsys):
    def go(num, label, ok, detail=""):
        tail = f"  ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] "
                  f"criterion {num}: {label}{tail}")
        assert ok, f"criterion {num}: {label}{tail}"
    return go


def test_criterion_1_value_equality_on_bang(bang_spec, bang_dp,
                                            bang_ladder, announce):
    tol = bang_spec.tolerances["tol_value"]
    v_dp = bang_dp.value_at_origin(bang_spec)
    diff = abs(v_dp - bang_ladder.value_limit)
    announce(1, "classical value equals the randomized-ladder limit",
             diff <= tol, f"|{v_dp:.6f} - {bang_ladder.value_limit:.6f}| "
             f"= {diff:.2e} <= {tol:.0e}")


def test_criterion_2_monotone_ladder_on_all_families(announce):
    worst = (FAMILIES[0], -1.0)
    ok = True
    for family in FAMILIES:
        spec = _spec(family)
        rep = _ladder(spec)
        tol = spec.tolerances["tol_monotone"]
        if rep.monotone_max_violation > worst[1]:
            worst = (family, rep.monotone_max_violation)
        ok = ok and rep.monotone_max_violation <= tol
    announce(2, "penalized values are nodewise nondecreasing in the level",
             ok, f"worst violation {max(worst[1], 0.0):.2e} ({worst[0]})")


def test_criterion_3_constraint_decay_on_bang(bang_spec, bang_ladder,
                                              announce):
    bundle = sim.simulate_bundle(bang_spec, 20_000, 5,
                                 n_steps=bang_ladder.n_time_steps)
    reports = bsde.constraint_gap(bang_ladder.per_level, bundle)
    phi_ok = True
    for lo, hi in zip(reports, reports[1:]):
        # phi is a squared mean; propagate the mean's MC noise
        noise = (2.0 * abs(lo.mean_integral) * lo.se_integral
                 + 2.0 * abs(hi.mean_integral) * hi.se_integral
                 + lo.se_integral ** 2 + hi.se_integral ** 2)
        phi_ok = phi_ok and hi.phi <= lo.phi + noise + 1e-12
    k_first, k_last = reports[0].k_ratio, reports[-1].k_ratio
    k_ok = k_last <= 0.5 * k_first
    announce(3, "penalty pressure relaxes along the ladder",
             phi_ok and k_ok,
             f"phi {reports[0].phi:.2e}->{reports[-1].phi:.2e}, "
             f"k {k_first:.2e}->{k_last:.2e}")


def test_criterion_4_lsmc_agrees_with_grid_per_level(
        bang_spec, jump_spec, bang_ladder, jump_ladder,
        bang_bundle_big, jump_bundle_big, announce):
    worst = 0.0
    ok = True
    for spec, ladder, bundle in ((bang_spec, bang_ladder, bang_bundle_big),
                                 (jump_spec, jump_ladder, jump_bundle_big)):
        tol = spec.tolerances["tol_value"]
        se_mult = spec.tolerances["se_multiplier"]
        quints = bsde.solve_penalized_lsmc_ladder(spec, ladder.levels, bundle)
        for quint, grid_value in zip(quints, ladder.values):
            gap = abs(quint.y0 - grid_value)
            band = se_mult * quint.y0_se + tol
            ok = ok and gap <= band
            worst = max(worst, gap - se_mult * quint.y0_se)
    announce(4, "regression and lattice solvers agree at every level",
             ok, f"worst beyond-noise gap {worst:.2e} at {N_BIG} paths")


def test_criterion_5_randomized_dpp_at_midpoint(bang_spec, bang_ladder,
                                                announce):
    res = bsde.check_randomized_dpp(bang_ladder.last_field, bang_spec,
                                    t_prime=bang_spec.horizon / 2.0,
                                    n_paths=20_000, seed=7)
    announce(5, "restart at T/2 reproduces the initial value",
             res["ok"], f"diff {res['diff']:+.2e} within {res['band']:.2e}")


def test_criterion_6_tilt_weights_and_mode_agreement(
        bang_spec, bang_ladder, bang_bundle_big, announce):
    se_mult = bang_spec.tolerances["se_multiplier"]
    fld = bang_ladder.last_field
    nus = [girsanov.IntensityControl.const(c) for c in (0.5, 1.0, 2.0)]
    nus.append(girsanov.IntensityControl.argmax_tilt(
        fld.time_grid, fld.grid.axes, fld.values, strength=float(max(LADDER))))
    kappa_ok = True
    worst_pull = 0.0
    for nu in nus:
        est = girsanov.reweighted_expectation(bang_bundle_big, nu,
                                              girsanov.unit_payoff)
        err = abs(est.mean - 1.0)
        kappa_ok = kappa_ok and err <= se_mult * est.se + 1e-12
        if est.se > 0.0:
            worst_pull = max(worst_pull, err / est.se)
    agree_ok = True
    for family in FAMILIES:
        spec = _spec(family)
        res = girsanov.check_mode_agreement(
            sim.simulate_bundle(spec, N_BIG, seed=17),
            girsanov.IntensityControl.const(2.0))
        agree_ok = agree_ok and res["ok"]
    announce(6, "tilt weights average to one and both gain routes agree",
             kappa_ok and agree_ok,
             f"max |kappa-1| = {worst_pull:.2f} se; all families agree")


def test_criterion_7_hjb_residual_exact_and_stencil_decay(announce):
    exact_ok = True
    exact_worst = 0.0
    for family in ("uncontrolled-decay", "bang-drift"):
        spec = _spec(family)
        res = oracles.exact_residual(spec, oracles.registry_surface(spec),
                                     spec.time_grid(spec.default_steps()),
                                     transition.default_state_grid(spec))
        exact_worst = max(exact_worst, res.interior_max())
        exact_ok = exact_ok and (res.interior_max()
                                 <= spec.tolerances["tol_exact"])
    decay_ok = True
    sequences = {}
    for family in ("uncontrolled-decay", "bang-drift"):
        spec = _spec(family)
        value = oracles.registry_surface(spec)["value"]
        errs = []
        for steps, nodes in ((16, 81), (32, 161), (64, 321)):
            grid = transition.default_state_grid(spec, nodes)
            tg = np.linspace(0.0, spec.horizon, steps + 1)
            res = hjb.hjb_residual(
                spec, oracles.sampled_dp_field(value, tg, grid))
            errs.append(res.interior_max())
        sequences[family] = errs
        # second-order decay, with a floor where the residual is already
        # at float noise (flat-in-time candidates difference exactly)
        floor = 1e-12
        decay_ok = decay_ok and errs[1] <= max(errs[0] / 2.5, floor)
        decay_ok = decay_ok and errs[2] <= max(errs[0] / 8.0, floor)
    seq = sequences["uncontrolled-decay"]
    announce(7, "analytic candidates solve the equation; stencils are O(h^2)",
             exact_ok and decay_ok,
             f"exact max {exact_worst:.1e}; refinement "
             f"{seq[0]:.1e}->{seq[1]:.1e}->{seq[2]:.1e}")


def test_criterion_8_jump_reward_matches_the_moment_ode(jump_spec,
                                                        jump_ladder,
                                                        announce):
    tol = jump_spec.tolerances["tol_value"]
    target = oracles.jump_reward_value(
        0.0, jump_spec.horizon, jump_spec.control.points,
        rate=jump_spec.jump_measure.total_rate)
    v_dp = dp.solve_dp_grid(
        jump_spec, jump_ladder.n_time_steps, jump_ladder.last_field.grid
    ).value_at_origin(jump_spec)
    gap_dp = abs(v_dp - target)
    gap_pen = abs(jump_ladder.value_limit - target)
    announce(8, "controlled-jump value matches the moment-ODE oracle",
             gap_dp <= tol and gap_pen <= tol,
             f"dp off by {gap_dp:.2e}, penalized off by {gap_pen:.2e}")


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path, announce):
    cfg = tmp_path / "bang.json"
    cfg.write_text(json.dumps({"schema_version": 1, "family": "bang-drift"}),
                   encoding="utf-8")
    ok = True
    checked = 0
    runs = (
        (["simulate", str(cfg), "--paths", "50", "--steps", "16",
          "--seed", "9"], ("paths.csv",)),
        (["solve", str(cfg), "--method", "dp", "--steps", "16",
          "--nodes", "41", "--seed", "9"],
         ("dp_field.csv", "residual.csv")),
        (["solve", str(cfg), "--method", "penalized-grid", "--ladder", "1,4",
          "--steps", "16", "--paths", "500", "--seed", "9"],
         ("ladder.csv", "penalized_field.csv")),
    )
    for i, (argv, names) in enumerate(runs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        # coarse grids may fail a verdict (exit 1); reproducibility must
        # hold either way, including the verdict itself
        code_a = cli.main(argv + ["--out", str(a)])
        code_b = cli.main(argv + ["--out", str(b)])
        assert code_a in (0, 1) and code_a == code_b
        for name in names:
            ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
            checked += 1
    announce(9, "same-seed command reruns reproduce CSV outputs exactly",
             ok, f"{checked} artifacts compared byte-for-byte")
