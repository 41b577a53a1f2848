"""Classical dynamic programming lattice and the solver cross-checks."""

import dataclasses

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, dp, girsanov, sim, transition
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
def bang_dp(bang_spec):
    return dp.solve_dp_grid(bang_spec, 64,
                            transition.default_state_grid(bang_spec))


@pytest.fixture(scope="module")
def bang_ladder(bang_spec):
    return bsde.minimal_value(bang_spec, (1, 2, 4, 8, 16), 64,
                              transition.default_state_grid(bang_spec))


# ---------------------------------------------------------------------------
# Lattice values
# ---------------------------------------------------------------------------

def test_dp_uncontrolled_matches_closed_form_on_the_lattice():
    spec = _spec("uncontrolled-decay")
    fld = dp.solve_dp_grid(spec, 32, transition.default_state_grid(spec))
    cf = closed_form(spec)["value"]
    for k in (0, 16, 32):
        t = float(fld.time_grid[k])
        want = np.array([cf(t, x) for x in fld.grid.nodes()])
        np.testing.assert_allclose(fld.values[k].ravel(), want, atol=1e-9)


def test_dp_uncontrolled_argmax_breaks_ties_toward_low_index():
    spec = _spec("uncontrolled-decay")
    fld = dp.solve_dp_grid(spec, 16, transition.default_state_grid(spec))
    assert np.all(fld.argmax == 0)


def test_dp_argmax_ties_tolerate_rounding():
    # two controls 1e-13 apart: their values differ by rounding only, and
    # an exact-maximum rule would pick index 1 at nearly every node
    spec = _spec("bang-drift", control_points=[0.0, 1e-13], a0_index=0)
    grid = LatticeGrid(axes=(np.linspace(-2.0, 3.0, 101),))
    fld = dp.solve_dp_grid(spec, n_time_steps=16, grid=grid)
    assert np.all(fld.argmax == 0)


def test_dp_bang_value_and_policy(bang_spec, bang_dp):
    assert abs(transition.initial_value(bang_spec, bang_dp.grid,
                                        bang_dp.values[0])
               - oracles.BANG_VALUE_T0) < 1e-2
    # reward is increasing in the state, so the maximal drift wins at
    # every node the boundary clamp cannot reach
    interior = transition.interior_mask(bang_dp.grid)
    assert np.all(bang_dp.argmax[:, interior] == 2)


def test_dp_jump_reward_matches_moment_ode():
    spec = _spec("jump-reward")
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    assert abs(transition.initial_value(spec, fld.grid, fld.values[0])
               - oracles.JUMP_REWARD_VALUE_T0) < 2e-2
    k_mid = fld.n_steps // 2
    origin = np.argmin(np.abs(fld.grid.axes[0]))
    assert fld.argmax[k_mid, origin] == 2


def test_dp_lookback_running_integral():
    spec = _spec("lookback-integral")
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    assert abs(transition.initial_value(spec, fld.grid, fld.values[0])
               - oracles.LOOKBACK_VALUE_T0) < 2e-2


def test_dp_dominates_penalized_field_nodewise(bang_spec):
    grid = transition.default_state_grid(bang_spec)
    fld_dp = dp.solve_dp_grid(bang_spec, n_time_steps=64, grid=grid)
    fld_pen = bsde.solve_penalized_grid(bang_spec, 16, n_time_steps=64,
                                        grid=grid)
    gap = fld_pen.values.max(axis=-1) - fld_dp.values
    assert float(gap.max()) <= 1e-9


def test_dp_policy_at_picks_nearest_node():
    grid = LatticeGrid(axes=(np.array([0.0, 1.0, 2.0]),))
    fld = dp.DpField(time_grid=np.array([0.0, 1.0]), grid=grid,
                     values=np.zeros((2, 3)),
                     argmax=np.array([[0, 1, 2]]), metadata={})
    got = fld.policy_at(0, np.array([[0.4], [0.6], [1.9], [2.7]]))
    np.testing.assert_array_equal(got, [0, 1, 2, 2])


# ---------------------------------------------------------------------------
# Equality of the two value constructions
# ---------------------------------------------------------------------------

def test_value_equality_bang(bang_spec, bang_dp, bang_ladder):
    out = dp.value_equality_check(bang_dp, bang_ladder, bang_spec)
    assert out["ok"]
    assert abs(out["diff"]) <= 2e-2
    assert abs(out["v_dp"] - oracles.BANG_VALUE_T0) < 1e-2


def test_value_equality_with_tilted_upper_estimate(bang_spec, bang_dp,
                                                   bang_ladder):
    fld = bang_ladder.last_field
    nu = girsanov.IntensityControl.argmax_tilt(
        fld.time_grid, fld.grid.axes, fld.values, strength=8.0)
    est = girsanov.randomized_gain(bang_spec, nu, 4_000, seed=5,
                                   n_steps=bang_spec.default_steps())
    out = dp.value_equality_check(bang_dp, bang_ladder, bang_spec,
                                  tilt_estimate=est)
    assert out["tilt_bound_ok"]
    assert out["ok"]


def test_value_equality_uncontrolled_is_exact():
    spec = _spec("uncontrolled-decay")
    grid = transition.default_state_grid(spec)
    fld = dp.solve_dp_grid(spec, 32, grid)
    ladder = bsde.minimal_value(spec, (1, 2), 32, grid)
    out = dp.value_equality_check(fld, ladder, spec)
    assert out["ok"]
    assert abs(out["diff"]) < 1e-9


def test_value_equality_rejects_foreign_spec(bang_dp, bang_ladder):
    other = _spec("uncontrolled-decay")
    with pytest.raises(ValueError, match="spec mismatch"):
        dp.value_equality_check(bang_dp, bang_ladder, other)


def test_value_equality_rejects_kernel_drift(bang_spec, bang_dp,
                                             bang_ladder):
    tampered = dataclasses.replace(bang_ladder, kernel="0" * 16)
    with pytest.raises(AssertionError, match="kernels differ"):
        dp.value_equality_check(bang_dp, tampered, bang_spec)


@pytest.mark.parametrize("setting", [
    lambda spec: {"n_time_steps": 32},
    lambda spec: {"grid": transition.default_state_grid(spec, 101)}],
    ids=["dt", "axes"])
def test_value_equality_rejects_other_operator_settings(bang_spec,
                                                        bang_ladder,
                                                        setting):
    opts = {"n_time_steps": bang_ladder.n_time_steps,
            "grid": bang_ladder.last_field.grid, **setting(bang_spec)}
    fld = dp.solve_dp_grid(bang_spec, **opts)
    with pytest.raises(AssertionError, match="kernels differ"):
        dp.value_equality_check(fld, bang_ladder, bang_spec)


def test_solvers_share_one_kernel(bang_dp, bang_ladder):
    want = transition.kernel_checksum()
    assert bang_dp.metadata["kernel"] == want
    assert bang_ladder.kernel == want


def test_truncated_jump_mass_is_reported_and_warned():
    spec = _spec("jump-reward", parameters={"rate": 100.0},
                 control_points=[1.0], a0_index=0)
    with pytest.warns(RuntimeWarning, match="Poisson mass"):
        fld = dp.solve_dp_grid(
            spec, n_time_steps=64,
            grid=transition.default_state_grid(spec, 101))
    tail = fld.metadata["truncated_jump_mass"]
    assert tail == transition.truncated_jump_mass(spec, 1 / 64)
    assert 0.02 < tail < 0.025
    with pytest.warns(RuntimeWarning, match="Poisson mass"):
        pen = bsde.solve_penalized_grid(spec, 1, n_time_steps=64,
                                        grid=fld.grid)
    assert pen.metadata["truncated_jump_mass"] == tail


def test_default_jump_rate_does_not_warn(recwarn):
    spec = _spec("jump-reward")
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    assert 0.0 < fld.metadata["truncated_jump_mass"] < 1e-9
    assert not [w for w in recwarn if "Poisson" in str(w.message)]


# ---------------------------------------------------------------------------
# Feedback policy rollout
# ---------------------------------------------------------------------------

def test_rollout_uncontrolled_is_deterministic():
    spec = _spec("uncontrolled-decay")
    fld = dp.solve_dp_grid(spec, 32, transition.default_state_grid(spec))
    out = dp.policy_rollout(fld, spec, n_paths=200, seed=1)
    assert out["ok"]
    assert out["j_se"] == 0.0
    assert abs(out["j_mean"] - oracles.DECAY_VALUE_T0) < 1e-6


def test_rollout_bang_reaches_the_lattice_value(bang_spec, bang_dp):
    out = dp.policy_rollout(bang_dp, bang_spec, n_paths=20_000, seed=2)
    assert out["ok"]
    assert abs(out["j_mean"] - out["v0"]) <= 3 * out["j_se"] + 1e-2


def test_rollout_mean_reverting_switch_self_consistent():
    # curved value: per-step interpolation bias scales like
    # n_steps * dx^2, so the node count must grow with the step count
    # for the rollout to sit inside the noise band
    spec = _spec("ou-switch")
    fld = dp.solve_dp_grid(spec, n_time_steps=64,
                           grid=transition.default_state_grid(spec, 401))
    out = dp.policy_rollout(fld, spec, n_paths=20_000, seed=4)
    assert out["ok"]
    assert abs(out["j_mean"] - out["v0"]) < 5e-3


def test_rollout_rejects_empty_path_set(bang_spec, bang_dp):
    with pytest.raises(ValueError, match="no paths"):
        dp.policy_rollout(bang_dp, bang_spec, n_paths=0, seed=0)


@pytest.mark.filterwarnings("ignore:state grid missed")
@pytest.mark.parametrize("horizon", [1.0, 0.7])
def test_paths_and_lattice_fields_step_on_one_time_grid(horizon):
    # one float per node, so tables built on a field's grid are read at the
    # bundle's step without a tolerance
    spec = _spec("uncontrolled-decay", parameters={"horizon": horizon})
    grid = LatticeGrid(axes=(np.array([0.0, 2.0]),))
    for n in range(1, 201):
        want = sim.simulate_bundle(spec, 1, seed=0, n_steps=n).time_grid
        assert np.array_equal(spec.time_grid(n), want), n
        for fld in (bsde.solve_penalized_grid(spec, 1, n_time_steps=n,
                                              grid=grid),
                    dp.solve_dp_grid(spec, n_time_steps=n, grid=grid)):
            assert np.array_equal(fld.time_grid, want), n
