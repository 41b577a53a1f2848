"""Penalized backward solvers: lattice route, regression route, ladders."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, girsanov, sim, transition
from jumpctrl.problem import closed_form, load_problem
from jumpctrl.transition import LatticeGrid


def _spec(family, **over):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(over)
    return load_problem(cfg)


def _solve(spec, level_n, n_time_steps):
    """One lattice level on the default state grid."""
    return bsde.solve_penalized_grid(spec, level_n, n_time_steps,
                                     transition.default_state_grid(spec))


def _v0(fld, spec):
    """A lattice level's initial value, read at the start regime."""
    return transition.initial_value(
        spec, fld.grid, fld.values[0][..., spec.randomization.a0_index])


@pytest.fixture(scope="module")
def bang_spec():
    return _spec("bang-drift")


@pytest.fixture(scope="module")
def bang_bundle(bang_spec):
    return sim.simulate_bundle(bang_spec, 20_000, seed=3, n_steps=64)


@pytest.fixture(scope="module")
def bang_ladder(bang_spec):
    return bsde.minimal_value(bang_spec, (1, 2, 4, 8, 16), 64,
                              transition.default_state_grid(bang_spec))


# ---------------------------------------------------------------------------
# Lattice route
# ---------------------------------------------------------------------------

def test_grid_terminal_condition_exact_all_regimes():
    spec = _spec("jump-reward")
    fld = _solve(spec, 3, 16)
    g_nodes = spec.coefficients.g(fld.grid.nodes()).reshape(fld.grid.shape)
    for a in range(spec.control.size):
        np.testing.assert_array_equal(fld.values[-1][..., a], g_nodes)


def test_grid_uncontrolled_value_is_regime_and_level_free():
    # coefficients carry no control: penalty vanishes identically
    spec = _spec("uncontrolled-decay")
    grid = transition.default_state_grid(spec)
    f1 = bsde.solve_penalized_grid(spec, 1, 32, grid)
    f5 = bsde.solve_penalized_grid(spec, 5, 32, grid)
    np.testing.assert_allclose(f1.values, f5.values, atol=1e-12)
    np.testing.assert_allclose(f1.values[..., 0], f1.values[..., 1],
                               atol=1e-12)
    assert abs(_v0(f1, spec) - oracles.DECAY_VALUE_T0) < 1e-9


def test_grid_bang_value_reaches_analytic_level(bang_spec):
    fld = _solve(bang_spec, 16, 64)
    assert abs(_v0(fld, bang_spec) - oracles.BANG_VALUE_T0) < 2e-2
    assert fld.metadata["monotone_safe"]
    assert fld.metadata["stability"] == pytest.approx(16 / 64)


def test_grid_default_steps_respect_stability():
    spec = _spec("bang-drift")
    n = bsde.default_time_steps(spec, 16)
    assert n >= 64
    assert 16 * (spec.horizon / n) * spec.randomization.total_mass <= 0.5


def test_grid_warns_when_stability_bound_broken(bang_spec):
    with pytest.warns(RuntimeWarning, match="stability"):
        _solve(bang_spec, 200, 64)


def test_grid_warns_on_undersized_state_grid(bang_spec):
    grid = LatticeGrid(axes=(np.linspace(-0.05, 0.05, 9),))
    with pytest.warns(RuntimeWarning, match="widen"):
        bsde.solve_penalized_grid(bang_spec, 1, n_time_steps=8, grid=grid)


def test_grid_monotone_in_level_nodewise(bang_spec):
    grid = transition.default_state_grid(bang_spec)
    prev = None
    for n in (1, 2, 4, 8, 16):
        fld = bsde.solve_penalized_grid(bang_spec, n, n_time_steps=64,
                                        grid=grid)
        if prev is not None:
            assert float((prev - fld.values).max()) <= 1e-9
        prev = fld.values


def test_grid_jump_reward_matches_moment_ode_oracle():
    spec = _spec("jump-reward")
    fld = _solve(spec, 16, 64)
    want = oracles.JUMP_REWARD_VALUE_T0
    assert abs(_v0(fld, spec) - want) < 2e-2


def test_grid_snap_time_picks_nearest_node():
    spec = _spec("uncontrolled-decay")
    fld = _solve(spec, 1, 8)
    assert fld.snap_time(0.49) == (4, 0.5)
    assert fld.snap_time(0.0) == (0, 0.0)


@pytest.mark.parametrize("case", ["bang-drift", "jump-reward",
                                  "lookback-integral"])
def test_grid_ladder_stacks_the_single_level_solves(case, bang_spec):
    spec = bang_spec if case == "bang-drift" else _spec(case)
    levels = (1, 2, 4, 8, 16)
    opts = {"n_time_steps": bsde.default_time_steps(spec, max(levels)),
            "grid": transition.default_state_grid(spec)}
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
    # the terminal compensator K_T is the level times the integral
    assert q.level_n * float(np.abs(q.constraint_integral).max()) < 1e-8
    # deterministic flow collapses the features: ridge fallback logged
    assert len(q.ridge_events) > 0


def test_lsmc_matches_grid_per_level(bang_spec, bang_bundle):
    for n in (1, 4, 16):
        q = bsde.solve_penalized_lsmc(bang_spec, n, bang_bundle)
        fld = _solve(bang_spec, n, 64)
        gap = abs(q.y0 - _v0(fld, bang_spec))
        assert gap <= 3 * q.y0_se + 2e-2


def test_lsmc_compensator_is_nondecreasing_from_zero(bang_spec, bang_bundle):
    # K_T / n integrates a nonnegative charge from K_0 = 0
    q = bsde.solve_penalized_lsmc(bang_spec, 8, bang_bundle)
    assert np.all(q.constraint_integral >= 0.0)


def test_lsmc_empty_origin_cells_are_logged_not_penalized(bang_spec,
                                                          bang_bundle):
    # every path starts in the registry regime, so the other cells carry
    # no data at step 0 and must not contribute advantage estimates there
    q = bsde.solve_penalized_lsmc(bang_spec, 4, bang_bundle)
    a0 = bang_spec.randomization.a0_index
    empty = {a for k, a in q.carried_cells if k == 0}
    assert empty == set(range(bang_spec.control.size)) - {a0}


def test_lsmc_rejects_all_excluded_paths(bang_spec, bang_bundle):
    crippled = dataclasses.replace(
        bang_bundle, excluded=np.ones(bang_bundle.n_paths, dtype=bool))
    with pytest.raises(ValueError, match="no paths"):
        bsde.solve_penalized_lsmc(bang_spec, 1, crippled)


def _excluding_every_seventh(bundle):
    excluded = np.zeros(bundle.n_paths, dtype=bool)
    excluded[::7] = True
    return dataclasses.replace(bundle, excluded=excluded)


_QUINTUPLE_ARRAYS = ("time_grid", "constraint_integral")


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


def _kept_events(events, keep):
    """An event table restricted to the kept paths, re-indexed."""
    on = keep[events.path_ids()]
    return sim.CsrEvents(events.times[on], events.marks[on],
                         np.concatenate([[0],
                                         np.cumsum(events.counts()[keep])]))


def _assert_same_quintuples(got, want, skip=()):
    for q, ref in zip(got, want, strict=True):
        for f in dataclasses.fields(q):
            if f.name not in skip:
                a, b = getattr(q, f.name), getattr(ref, f.name)
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b, err_msg=f.name)
                else:
                    assert a == b, f.name


def test_lsmc_ladder_reads_kept_rows_like_a_bundle_of_only_them():
    spec = _spec("jump-reward")
    bundle = _excluding_every_seventh(
        sim.simulate_bundle(spec, 6000, seed=8, n_steps=32))
    keep = bundle.included()
    kept_only = dataclasses.replace(
        bundle, states=bundle.states[keep], regimes=bundle.regimes[keep],
        pi=_kept_events(bundle.pi, keep),
        theta=_kept_events(bundle.theta, keep),
        running_reward=bundle.running_reward[keep],
        excluded=np.zeros(int(keep.sum()), dtype=bool))
    assert kept_only.pi.total < bundle.pi.total
    levels = (1, 2, 4, 8, 16)
    got = bsde.solve_penalized_lsmc_ladder(spec, levels, bundle)
    want = bsde.solve_penalized_lsmc_ladder(spec, levels, kept_only)
    _assert_same_quintuples(got, want, skip=("n_excluded",))
    assert got[0].n_excluded == bundle.n_excluded > 0


#: the block size of the regression pass in the multi-block oracle cases
SMALL_BLOCK = 64
#: kept-path counts of the multi-block cases: a fixed split would leave a
#: one-row block after one block, and a 7-row block after two
BLOCK_CASES = {"one-block-plus-1": SMALL_BLOCK + 1,
               "two-blocks-plus-7": 2 * SMALL_BLOCK + 7}


def _oracle_case(case, bang_spec, bang_bundle):
    # bang-drift: its Brownian states make the products round, which
    # jump-reward's half-integer states do not
    if case in BLOCK_CASES:
        return bang_spec, sim.simulate_bundle(bang_spec, BLOCK_CASES[case],
                                              seed=4, n_steps=32)
    if case == "excluded-across-a-block-edge":
        # 3 blocks' worth of paths less 8 excluded ones around the first
        # block's edge, so the kept rows split at gathered indices
        bundle = sim.simulate_bundle(bang_spec, 3 * SMALL_BLOCK, seed=4,
                                     n_steps=32)
        excluded = np.zeros(bundle.n_paths, dtype=bool)
        excluded[SMALL_BLOCK - 4:SMALL_BLOCK + 4] = True
        return bang_spec, dataclasses.replace(bundle, excluded=excluded)
    if case == "bang-drift":
        return bang_spec, bang_bundle
    if case == "excluded-paths":
        return bang_spec, _excluding_every_seventh(bang_bundle)
    if case == "carried-cells":
        # few paths from the worst regime: the others stay empty for
        # several early steps, while the first switchers gain on them
        spec = _spec("bang-drift", a0_index=0)
        return spec, sim.simulate_bundle(spec, 12, seed=2, n_steps=32)
    spec = _spec("jump-reward")
    if case == "tilted-const16":
        return spec, girsanov.simulate_tilted_theta(
            girsanov.IntensityControl.const(16.0), spec, 3, 3000,
            n_steps=32)
    return spec, sim.simulate_bundle(spec, 8000, seed=6, n_steps=64)


@pytest.mark.parametrize("case", ["bang-drift", "jump-reward",
                                  "excluded-paths", "carried-cells",
                                  "tilted-const16", *BLOCK_CASES,
                                  "excluded-across-a-block-edge"])
def test_lsmc_ladder_is_bitwise_the_full_stack_recursion(case, bang_spec,
                                                         bang_bundle,
                                                         monkeypatch):
    spec, bundle = _oracle_case(case, bang_spec, bang_bundle)
    levels = (1, 2, 4, 8, 16)
    if case in BLOCK_CASES or case == "excluded-across-a-block-edge":
        monkeypatch.setattr(bsde, "LSMC_BLOCK_PATHS", SMALL_BLOCK)
    # the 20000-path bundle runs 3 blocks at the module's block size
    n_blocks = {"bang-drift": 3, "excluded-paths": 3, "one-block-plus-1": 2,
                "two-blocks-plus-7": 3, "excluded-across-a-block-edge": 3}
    assert len(bsde._path_blocks(int(bundle.included().sum()))) == \
        n_blocks.get(case, 1)
    got = bsde.solve_penalized_lsmc_ladder(spec, levels, bundle)
    want = oracles.lsmc_ladder_full_stack(spec, levels, bundle)
    for q, ref in zip(got, want, strict=True):
        assert {f.name for f in dataclasses.fields(q)} == set(ref)
        for name, b in ref.items():
            a = getattr(q, name)
            if isinstance(b, np.ndarray):
                # signed zeros included
                assert np.array_equal(a, b), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name
            else:
                assert a == b, name
    regimes = bundle.regimes[bundle.included()]
    moved = np.mean(regimes[:, 1:] != regimes[:, :-1])
    if case == "carried-cells":
        assert {k for k, _ in got[0].carried_cells} >= {0, 1, 2, 3}
    if case == "tilted-const16":
        # a quarter of the targets come from the switched-path branch
        assert moved > 0.2
    else:
        assert moved < 0.1


def test_lsmc_ladder_rejects_a_level_below_one(bang_spec, bang_bundle):
    with pytest.raises(ValueError, match=">= 1"):
        bsde.solve_penalized_lsmc_ladder(bang_spec, (1, 0, 4), bang_bundle)


# ---------------------------------------------------------------------------
# Constraint diagnostics
# ---------------------------------------------------------------------------

def _lsmc_constraint_report(q):
    return bsde._constraint_report(q.level_n, q.constraint_integral)


def test_constraint_gap_zero_for_uncontrolled_problem():
    spec = _spec("uncontrolled-decay")
    bundle = sim.simulate_bundle(spec, 2000, seed=2, n_steps=32)
    rep = _lsmc_constraint_report(bsde.solve_penalized_lsmc(spec, 4, bundle))
    assert rep.phi < 1e-16
    assert rep.k_ratio < 1e-16


def test_constraint_gap_routes_agree(bang_spec, bang_bundle):
    q = bsde.solve_penalized_lsmc(bang_spec, 4, bang_bundle)
    fld = _solve(bang_spec, 4, 64)
    r_q = _lsmc_constraint_report(q)
    (r_f,) = bsde.constraint_gap(
        (fld,), sim.simulate_bundle(bang_spec, 20_000, 3, n_steps=64))
    band = 3 * math.hypot(r_q.se_integral, r_f.se_integral) + 2e-3
    assert abs(r_q.mean_integral - r_f.mean_integral) <= band


def test_constraint_gap_decreases_along_ladder(bang_spec, bang_bundle):
    ladder = bsde.solve_penalized_lsmc_ladder(bang_spec, (1, 2, 4, 8, 16),
                                              bang_bundle)
    reports = [_lsmc_constraint_report(q) for q in ladder]
    phis = [r.phi for r in reports]
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
    assert reports[-1].k_ratio < reports[0].k_ratio / 2


def test_constraint_gap_many_fields_equal_their_one_field_calls(
        bang_ladder, bang_bundle):
    fields = bang_ladder.per_level
    many = bsde.constraint_gap(fields, bang_bundle)
    assert isinstance(many, tuple) and len(many) == len(fields)
    for fld, rep in zip(fields, many):
        assert bsde.constraint_gap((fld,), bang_bundle) == (rep,)
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


def test_constraint_gap_validates_inputs(bang_spec, bang_bundle):
    with pytest.raises(TypeError):
        bsde.constraint_gap((object(),), bang_bundle)
    with pytest.raises(TypeError):
        bsde.constraint_gap(
            (bsde.solve_penalized_lsmc(bang_spec, 1, bang_bundle),),
            bang_bundle)
    spec = _spec("uncontrolled-decay")
    fld = _solve(spec, 1, 8)
    with pytest.raises(ValueError, match="spec mismatch"):
        bsde.constraint_gap((fld,), sim.simulate_bundle(bang_spec, 50, 0,
                                                        n_steps=8))


def test_constraint_gap_rejects_a_bundle_on_another_time_grid():
    spec = _spec("uncontrolled-decay")
    fld = _solve(spec, 1, 8)
    on_grid = sim.simulate_bundle(spec, 50, 0, n_steps=8)
    assert bsde.constraint_gap((fld,), on_grid)[0].n_paths == 50
    with pytest.raises(ValueError, match="time grid"):
        bsde.constraint_gap((fld,), sim.simulate_bundle(spec, 50, 0,
                                                        n_steps=16))


# ---------------------------------------------------------------------------
# Ladder
# ---------------------------------------------------------------------------

def test_ladder_uncontrolled_is_flat_at_the_oracle():
    spec = _spec("uncontrolled-decay")
    rep = bsde.minimal_value(spec, (1, 2, 4), 32,
                             transition.default_state_grid(spec))
    for v in rep.values:
        assert abs(v - oracles.DECAY_VALUE_T0) < 1e-9
    assert abs(rep.value_limit - oracles.DECAY_VALUE_T0) < 1e-9
    assert rep.monotone_ok


def test_ladder_bang_monotone_with_analytic_limit(bang_spec, bang_ladder):
    assert bang_ladder.monotone_ok
    assert all(b >= a - 1e-9 for a, b in
               zip(bang_ladder.values, bang_ladder.values[1:]))
    assert abs(bang_ladder.value_limit - oracles.BANG_VALUE_T0) < 2e-2
    # the regimes' values at the origin close in as the level grows, and
    # every level stays within the growth bound of the first
    x0 = bang_spec.initial_augmented(bang_spec.initial_law.mean[None, :])
    n_controls = bang_spec.control.size
    pbar = oracles.HYPOTHESES["bang-drift"]["growth_pbar"]
    spreads, ratios = [], []
    for fld in bang_ladder.per_level:
        at0 = [fld.value_at_node(0, x0, a)[0] for a in range(n_controls)]
        spreads.append(max(at0) - min(at0))
        node_norm = 1.0 + np.max(np.abs(fld.grid.nodes()), axis=1) ** pbar
        flat = np.abs(fld.values.reshape(fld.time_grid.size, -1, n_controls))
        ratios.append((flat / node_norm[None, :, None]).max())
    assert all(b < a for a, b in zip(spreads, spreads[1:]))
    assert all(r <= 1.5 * ratios[0] for r in ratios)


def test_ladder_rejects_unordered_levels(bang_spec, bang_bundle):
    grid = LatticeGrid(axes=(np.linspace(-1.0, 1.0, 9),))
    for on in (grid, bang_bundle):
        with pytest.raises(ValueError, match="increasing"):
            bsde.minimal_value(bang_spec, (4, 2, 1), 64, on)


def test_ladder_regression_route_needs_the_bundle_step_count(bang_spec,
                                                             bang_bundle):
    with pytest.raises(ValueError, match="step count 64 is not 32"):
        bsde.minimal_value(bang_spec, (1, 2), 32, bang_bundle)


def test_ladder_regression_route_needs_the_bundle_spec(bang_spec):
    other = sim.simulate_bundle(_spec("jump-reward"), 2000, 3, n_steps=64)
    with pytest.raises(ValueError, match="spec mismatch"):
        bsde.minimal_value(bang_spec, (1, 2), 64, other)


def test_ladder_lsmc_solver_tracks_grid(bang_spec, bang_bundle, bang_ladder):
    rep = bsde.minimal_value(bang_spec, (1, 4, 16), 64, bang_bundle)
    assert rep.solver == "lsmc"
    for v, se, n in zip(rep.values, rep.ses, rep.levels):
        idx = bang_ladder.levels.index(n)
        assert abs(v - bang_ladder.values[idx]) <= 3 * se + 2e-2
    assert rep.monotone_ok


def test_ladder_lsmc_monotone_slack_reads_se_multiplier(monkeypatch):
    # the second level drops by 0.1 with standard errors of 0.05 each: within
    # 3 standard errors of the difference, not within 1
    def two_levels(spec, levels, bundle):
        return tuple(SimpleNamespace(y0=y0, y0_se=0.05, metadata={})
                     for y0 in (1.0, 0.9))

    monkeypatch.setattr(bsde, "solve_penalized_lsmc_ladder", two_levels)
    bundle = SimpleNamespace(n_steps=8)
    assert bsde.minimal_value(_spec("bang-drift"), (1, 2), 8,
                              bundle).monotone_ok
    tight = _spec("bang-drift", tolerances={"se_multiplier": 1})
    assert not bsde.minimal_value(tight, (1, 2), 8, bundle).monotone_ok


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
    fld = _solve(spec, 2, 32)
    out = bsde.check_randomized_dpp(fld, spec, 0.5, n_paths=2_000, seed=1)
    assert out["ok"]
    assert abs(out["diff"]) < 1e-6


def test_dpp_check_rejects_boundary_times(bang_spec, bang_ladder):
    with pytest.raises(ValueError, match="interior"):
        bsde.check_randomized_dpp(bang_ladder.last_field, bang_spec, 0.0,
                                  n_paths=100, seed=0)


def test_dpp_check_rejects_foreign_spec(bang_ladder):
    other = _spec("uncontrolled-decay")
    with pytest.raises(ValueError, match="spec mismatch"):
        bsde.check_randomized_dpp(bang_ladder.last_field, other, 0.5,
                                  n_paths=100, seed=0)
