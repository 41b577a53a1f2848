"""Penalized backward solvers: lattice route, regression route, ladders."""

import math

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, sim, transition
from jumpctrl.problem import closed_form, load_problem
from jumpctrl.transition import LatticeGrid


def _spec(family, **over):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(over)
    return load_problem(cfg)


@pytest.fixture(scope="module")
def bang_spec():
    return _spec("bang-drift")


@pytest.fixture(scope="module")
def bang_bundle(bang_spec):
    return sim.simulate_bundle(bang_spec, 20_000, seed=3, n_steps=64)


@pytest.fixture(scope="module")
def bang_ladder(bang_spec):
    return bsde.minimal_value(bang_spec, levels=(1, 2, 4, 8, 16),
                              n_time_steps=64)


# ---------------------------------------------------------------------------
# Lattice route
# ---------------------------------------------------------------------------

def test_grid_terminal_condition_exact_all_regimes():
    spec = _spec("jump-reward")
    fld = bsde.solve_penalized_grid(spec, 3, n_time_steps=16)
    g_nodes = spec.coefficients.g(fld.grid.nodes()).reshape(fld.grid.shape)
    for a in range(spec.control.size):
        np.testing.assert_array_equal(fld.values[-1][..., a], g_nodes)


def test_grid_uncontrolled_value_is_regime_and_level_free():
    # coefficients carry no control: penalty vanishes identically
    spec = _spec("uncontrolled-decay")
    f1 = bsde.solve_penalized_grid(spec, 1, n_time_steps=32)
    f5 = bsde.solve_penalized_grid(spec, 5, n_time_steps=32)
    np.testing.assert_allclose(f1.values, f5.values, atol=1e-12)
    np.testing.assert_allclose(f1.values[..., 0], f1.values[..., 1],
                               atol=1e-12)
    assert abs(f1.value_at_origin(spec) - oracles.DECAY_VALUE_T0) < 1e-9


def test_grid_bang_value_reaches_analytic_level(bang_spec):
    fld = bsde.solve_penalized_grid(bang_spec, 16, n_time_steps=64)
    assert abs(fld.value_at_origin(bang_spec) - oracles.BANG_VALUE_T0) < 2e-2
    assert fld.metadata["monotone_safe"]
    assert fld.metadata["stability"] == pytest.approx(16 / 64)


def test_grid_default_steps_respect_stability():
    spec = _spec("bang-drift")
    n = bsde.default_time_steps(spec, 16)
    assert n >= 64
    assert 16 * (spec.horizon / n) * spec.randomization.total_mass <= 0.5


def test_grid_warns_when_stability_bound_broken(bang_spec):
    with pytest.warns(RuntimeWarning, match="stability"):
        bsde.solve_penalized_grid(bang_spec, 200, n_time_steps=64)


def test_grid_warns_on_undersized_state_grid(bang_spec):
    grid = LatticeGrid(axes=(np.linspace(-0.05, 0.05, 9),))
    with pytest.warns(RuntimeWarning, match="widen"):
        bsde.solve_penalized_grid(bang_spec, 1, n_time_steps=8, grid=grid)


def test_grid_monotone_in_level_nodewise(bang_spec):
    grid = transition.default_state_grid(bang_spec, seed=0)
    prev = None
    for n in (1, 2, 4, 8, 16):
        fld = bsde.solve_penalized_grid(bang_spec, n, n_time_steps=64,
                                        grid=grid)
        if prev is not None:
            assert float((prev - fld.values).max()) <= 1e-9
        prev = fld.values


def test_grid_jump_reward_matches_moment_ode_oracle():
    spec = _spec("jump-reward")
    fld = bsde.solve_penalized_grid(spec, 16, n_time_steps=64)
    want = oracles.JUMP_REWARD_VALUE_T0
    assert abs(fld.value_at_origin(spec) - want) < 2e-2


def test_grid_snap_time_picks_nearest_node():
    fld = bsde.solve_penalized_grid(_spec("uncontrolled-decay"), 1,
                                    n_time_steps=8)
    assert fld.snap_time(0.49) == (4, 0.5)
    assert fld.snap_time(0.0) == (0, 0.0)


@pytest.mark.parametrize("case", ["bang-drift", "jump-reward",
                                  "lookback-integral"])
def test_grid_ladder_stacks_the_single_level_solves(case, bang_spec):
    spec = bang_spec if case == "bang-drift" else _spec(case)
    levels = (1, 2, 4, 8, 16)
    opts = {"n_time_steps": bsde.default_time_steps(spec, max(levels)),
            "grid": transition.default_state_grid(spec, seed=0)}
    stack = bsde.solve_penalized_grid_ladder(spec, levels, **opts)
    assert [f.level_n for f in stack] == list(levels)
    for fld in stack:
        ref = bsde.solve_penalized_grid(spec, fld.level_n, **opts)
        np.testing.assert_array_equal(fld.time_grid, ref.time_grid)
        np.testing.assert_array_equal(fld.values, ref.values)
        np.testing.assert_array_equal(fld.continuation, ref.continuation)
        assert fld.metadata == ref.metadata


def test_grid_ladder_rejects_a_level_below_one(bang_spec):
    grid = LatticeGrid(axes=(np.linspace(-1.0, 1.0, 9),))
    with pytest.raises(ValueError, match=">= 1"):
        bsde.solve_penalized_grid_ladder(bang_spec, (1, 0, 4),
                                         n_time_steps=8, grid=grid)


# ---------------------------------------------------------------------------
# Regression route
# ---------------------------------------------------------------------------

def test_lsmc_decay_value_exact_and_penalty_free():
    spec = _spec("uncontrolled-decay")
    bundle = sim.simulate_bundle(spec, 4000, seed=1, n_steps=32)
    q = bsde.solve_penalized_lsmc(spec, 8, bundle)
    assert abs(q.y0 - oracles.DECAY_VALUE_T0) < 1e-8
    assert float(np.abs(q.k_terminal).max()) < 1e-8
    # deterministic flow collapses the features: ridge fallback logged
    assert len(q.ridge_events) > 0


def test_lsmc_terminal_values_equal_terminal_reward(bang_spec, bang_bundle):
    q = bsde.solve_penalized_lsmc(bang_spec, 2, bang_bundle)
    g = bang_spec.coefficients.g(
        bang_bundle.states[bang_bundle.included()][:, -1, :])
    assert q.y_mean[-1] == g.mean()


def test_lsmc_matches_grid_per_level(bang_spec, bang_bundle):
    for n in (1, 4, 16):
        q = bsde.solve_penalized_lsmc(bang_spec, n, bang_bundle)
        fld = bsde.solve_penalized_grid(bang_spec, n, n_time_steps=64)
        gap = abs(q.y0 - fld.value_at_origin(bang_spec))
        assert gap <= 3 * q.y0_se + 2e-2


def test_lsmc_compensator_is_nondecreasing_from_zero(bang_spec, bang_bundle):
    q = bsde.solve_penalized_lsmc(bang_spec, 8, bang_bundle)
    assert q.k_mean[0] == 0.0
    assert np.all(np.diff(q.k_mean) >= -1e-15)
    assert np.all(q.k_terminal >= 0.0)


def test_lsmc_empty_origin_cells_are_logged_not_penalized(bang_spec,
                                                          bang_bundle):
    # every path starts in the registry regime, so the other cells carry
    # no data at step 0 and must not contribute advantage estimates there
    q = bsde.solve_penalized_lsmc(bang_spec, 4, bang_bundle)
    a0 = bang_spec.randomization.a0_index
    empty = {a for k, a in q.carried_cells if k == 0}
    assert empty == set(range(bang_spec.control.size)) - {a0}


def test_lsmc_rejects_all_excluded_paths(bang_spec, bang_bundle):
    import dataclasses
    crippled = dataclasses.replace(
        bang_bundle, excluded=np.ones(bang_bundle.n_paths, dtype=bool))
    with pytest.raises(ValueError, match="no paths"):
        bsde.solve_penalized_lsmc(bang_spec, 1, crippled)


def _excluding_every_seventh(bundle):
    import dataclasses
    excluded = np.zeros(bundle.n_paths, dtype=bool)
    excluded[::7] = True
    return dataclasses.replace(bundle, excluded=excluded)


_QUINTUPLE_ARRAYS = ("time_grid", "y_mean", "z_mean", "l_mean", "k_mean",
                     "r_pos_mean", "constraint_integral", "k_terminal")


@pytest.mark.parametrize("case", ["bang-drift", "jump-reward",
                                  "uncontrolled-decay", "excluded-paths"])
def test_lsmc_ladder_stacks_the_single_level_solves(case, bang_spec,
                                                    bang_bundle):
    if case == "excluded-paths":
        spec, bundle = bang_spec, _excluding_every_seventh(bang_bundle)
    elif case == "bang-drift":
        spec, bundle = bang_spec, bang_bundle
    else:
        spec = _spec(case)
        bundle = sim.simulate_bundle(spec, 5000, seed=4, n_steps=32)
    levels = (1, 2, 4, 8, 16)
    stack = bsde.solve_penalized_lsmc_ladder(spec, levels, bundle)
    assert [q.level_n for q in stack] == list(levels)
    for q in stack:
        ref = bsde.solve_penalized_lsmc(spec, q.level_n, bundle)
        assert abs(q.y0 - ref.y0) <= 1e-12
        assert abs(q.y0_se - ref.y0_se) <= 1e-12
        for name in _QUINTUPLE_ARRAYS:
            np.testing.assert_allclose(getattr(q, name), getattr(ref, name),
                                       rtol=0.0, atol=1e-12, err_msg=name)
        assert q.ridge_events == ref.ridge_events
        assert q.carried_cells == ref.carried_cells
        assert (q.n_paths, q.n_excluded) == (ref.n_paths, ref.n_excluded)
        assert q.metadata == ref.metadata
    if case == "uncontrolled-decay":
        assert len(stack[0].ridge_events) > 0
    if case == "excluded-paths":
        assert stack[0].n_excluded == bundle.n_excluded > 0


def test_lsmc_ladder_rejects_a_level_below_one(bang_spec, bang_bundle):
    with pytest.raises(ValueError, match=">= 1"):
        bsde.solve_penalized_lsmc_ladder(bang_spec, (1, 0, 4), bang_bundle)


# ---------------------------------------------------------------------------
# Constraint diagnostics
# ---------------------------------------------------------------------------

def test_constraint_gap_zero_for_uncontrolled_problem():
    spec = _spec("uncontrolled-decay")
    bundle = sim.simulate_bundle(spec, 2000, seed=2, n_steps=32)
    rep = bsde.constraint_gap(bsde.solve_penalized_lsmc(spec, 4, bundle))
    assert rep.phi < 1e-16
    assert rep.k_ratio < 1e-16


def test_constraint_gap_routes_agree(bang_spec, bang_bundle):
    q = bsde.solve_penalized_lsmc(bang_spec, 4, bang_bundle)
    fld = bsde.solve_penalized_grid(bang_spec, 4, n_time_steps=64)
    r_q = bsde.constraint_gap(q)
    r_f = bsde.constraint_gap(
        fld, sim.simulate_bundle(bang_spec, 20_000, 3, n_steps=64))
    band = 3 * math.hypot(r_q.se_integral, r_f.se_integral) + 2e-3
    assert abs(r_q.mean_integral - r_f.mean_integral) <= band


def test_constraint_gap_decreases_along_ladder(bang_spec, bang_bundle):
    ladder = bsde.solve_penalized_lsmc_ladder(bang_spec, (1, 2, 4, 8, 16),
                                              bang_bundle)
    reports = [bsde.constraint_gap(q) for q in ladder]
    phis = [r.phi for r in reports]
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
    assert reports[-1].k_ratio < reports[0].k_ratio / 2


def test_constraint_gap_many_fields_equal_their_one_field_calls(
        bang_ladder, bang_bundle):
    fields = bang_ladder.per_level
    many = bsde.constraint_gap(fields, bang_bundle)
    assert isinstance(many, tuple) and len(many) == len(fields)
    for fld, rep in zip(fields, many):
        assert rep == bsde.constraint_gap(fld, bang_bundle)
    assert [r.level_n for r in many] == list(bang_ladder.levels)
    assert bsde.constraint_gap(list(fields[:1]), bang_bundle) == many[:1]


def test_constraint_gap_many_fields_need_one_lattice(bang_spec, bang_ladder,
                                                     bang_bundle):
    other = bsde.solve_penalized_grid(
        bang_spec, 4, n_time_steps=64,
        grid=transition.default_state_grid(bang_spec, 41))
    with pytest.raises(ValueError, match="one lattice"):
        bsde.constraint_gap((bang_ladder.last_field, other), bang_bundle)
    with pytest.raises(TypeError):
        bsde.constraint_gap((), bang_bundle)


def test_constraint_gap_validates_inputs(bang_spec):
    with pytest.raises(TypeError):
        bsde.constraint_gap(object())
    fld = bsde.solve_penalized_grid(_spec("uncontrolled-decay"), 1,
                                    n_time_steps=8)
    with pytest.raises(ValueError, match="bundle"):
        bsde.constraint_gap(fld, None)
    with pytest.raises(ValueError, match="spec mismatch"):
        bsde.constraint_gap(fld, sim.simulate_bundle(bang_spec, 50, 0,
                                                     n_steps=8))


def test_constraint_gap_rejects_a_bundle_on_another_time_grid():
    spec = _spec("uncontrolled-decay")
    fld = bsde.solve_penalized_grid(spec, 1, n_time_steps=8)
    on_grid = sim.simulate_bundle(spec, 50, 0, n_steps=8)
    assert bsde.constraint_gap(fld, on_grid).n_paths == 50
    with pytest.raises(ValueError, match="time grid"):
        bsde.constraint_gap(fld, sim.simulate_bundle(spec, 50, 0,
                                                     n_steps=16))


# ---------------------------------------------------------------------------
# Ladder
# ---------------------------------------------------------------------------

def test_ladder_uncontrolled_is_flat_at_the_oracle():
    spec = _spec("uncontrolled-decay")
    rep = bsde.minimal_value(spec, levels=(1, 2, 4), n_time_steps=32)
    for v in rep.values:
        assert abs(v - oracles.DECAY_VALUE_T0) < 1e-9
    assert abs(rep.value_limit - oracles.DECAY_VALUE_T0) < 1e-9
    assert rep.monotone_ok


def test_ladder_bang_monotone_with_analytic_limit(bang_ladder):
    assert bang_ladder.monotone_ok
    assert all(b >= a - 1e-9 for a, b in
               zip(bang_ladder.values, bang_ladder.values[1:]))
    assert abs(bang_ladder.value_limit - oracles.BANG_VALUE_T0) < 2e-2
    spreads = bang_ladder.regime_spreads
    assert all(b < a for a, b in zip(spreads, spreads[1:]))
    assert all(r <= bang_ladder.growth_bound
               for r in bang_ladder.growth_ratios)


def test_ladder_needs_three_levels_for_extrapolation(bang_spec):
    with pytest.raises(ValueError, match="need at least 3 levels"):
        bsde.minimal_value(bang_spec, levels=(1,),
                           extrapolation="richardson")


def test_ladder_rejects_unordered_levels(bang_spec):
    with pytest.raises(ValueError, match="increasing"):
        bsde.minimal_value(bang_spec, levels=(4, 2, 1))


def test_aitken_limit_is_exact_on_reciprocal_errors():
    vals = [1.0 - 1.0 / n for n in (4, 8, 16)]
    assert bsde._aitken_limit(vals) == pytest.approx(1.0, abs=1e-12)


def test_ladder_lsmc_solver_tracks_grid(bang_spec, bang_ladder):
    rep = bsde.minimal_value(bang_spec, levels=(1, 4, 16), solver="lsmc",
                             n_time_steps=64, n_paths=20_000, seed=3)
    assert rep.solver == "lsmc"
    for v, se, n in zip(rep.values, rep.ses, rep.levels):
        idx = bang_ladder.levels.index(n)
        assert abs(v - bang_ladder.values[idx]) <= 3 * se + 2e-2
    assert rep.monotone_ok


# ---------------------------------------------------------------------------
# Randomized DPP
# ---------------------------------------------------------------------------

def test_dpp_check_passes_at_midpoint(bang_spec, bang_ladder):
    fld = bang_ladder.last_field
    out = bsde.check_randomized_dpp(fld, bang_spec, 0.5, n_paths=8_000,
                                    seed=2)
    assert out["ok"]
    assert out["t_prime"] == 0.5
    assert abs(out["diff"]) <= out["band"]


def test_dpp_check_at_terminal_reduces_to_value(bang_spec, bang_ladder):
    fld = bang_ladder.last_field
    out = bsde.check_randomized_dpp(fld, bang_spec, bang_spec.horizon,
                                    n_paths=8_000, seed=4)
    assert out["ok"]
    assert out["step_index"] == fld.n_steps


def test_dpp_check_uncontrolled_is_tower_property():
    spec = _spec("uncontrolled-decay")
    fld = bsde.solve_penalized_grid(spec, 2, n_time_steps=32)
    out = bsde.check_randomized_dpp(fld, spec, 0.5, n_paths=2_000, seed=1)
    assert out["ok"]
    assert abs(out["diff"]) < 1e-6


def test_dpp_check_rejects_boundary_times(bang_spec, bang_ladder):
    with pytest.raises(ValueError, match="interior"):
        bsde.check_randomized_dpp(bang_ladder.last_field, bang_spec, 0.0)


def test_dpp_check_rejects_foreign_spec(bang_ladder):
    other = _spec("uncontrolled-decay")
    with pytest.raises(ValueError, match="spec mismatch"):
        bsde.check_randomized_dpp(bang_ladder.last_field, other, 0.5)
