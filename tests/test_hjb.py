"""Residual operator: Hamiltonian terms, stencils, field certificates."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, dp, hjb, transition
from jumpctrl.problem import JumpMeasureSpec, closed_form, load_problem
from jumpctrl.transition import LatticeGrid


def _spec(family, **over):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(over)
    return load_problem(cfg)


@pytest.fixture(scope="module")
def bang_spec():
    return _spec("bang-drift")


@pytest.fixture(scope="module")
def bang_limit_field(bang_spec):
    return bsde.minimal_value(
        bang_spec, (1, 2, 4, 8, 16), 64,
        transition.default_state_grid(bang_spec)).last_field


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def ham_row(spec, t, x, grad, hess, accessor):
    """Supremand at one point for every control, shape (A,)."""
    return hjb._hamiltonian_nodes(spec, t, np.atleast_2d(x),
                                  np.atleast_2d(grad), np.asarray(hess)[None],
                                  accessor)[0]


def test_hamiltonian_pure_drift_returns_the_drift(bang_spec):
    acc = lambda pts: pts[:, 0]
    h = ham_row(bang_spec, 0.3, [0.2], [1.0], [[0.0]], acc)
    for i, a in enumerate(bang_spec.control.points):
        assert h[i] == pytest.approx(a, abs=1e-14)


def test_hamiltonian_running_reward_only():
    spec = _spec("jump-reward", parameters={"rate": 0.0, "sigma": 0.0})
    h = ham_row(spec, 0.0, [0.7], np.zeros(1), np.zeros((1, 1)), None)
    for i, a in enumerate(spec.control.points):
        assert h[i] == pytest.approx(a, abs=1e-14)


def test_hamiltonian_nonlocal_quadratic_two_point_atoms():
    spec = _spec("jump-reward")
    acc = lambda pts: -pts[:, 0] ** 2
    m2 = spec.jump_measure.second_moment
    h = ham_row(spec, 0.0, [0.4], [-0.8], [[-2.0]], acc)
    for i, a in enumerate(spec.control.points):
        assert h[i] == pytest.approx(a - a * a * m2, abs=1e-12)


@pytest.mark.parametrize("sampler,params,m2_marks", [
    ("uniform-interval", {"low": -0.5, "high": 0.5}, 0.25 / 3.0),
    ("exponential", {"scale": 0.3}, 2 * 0.3 ** 2),
])
def test_hamiltonian_nonlocal_quadratic_continuous_laws(sampler, params,
                                                        m2_marks):
    # quadrature vs the closed quadratic expansion of the jump integral
    rate = 1.7
    jm = JumpMeasureSpec(total_rate=rate, mark_sampler_id=sampler,
                         mark_parameters=params,
                         rho_envelope=1.0, second_moment=rate * m2_marks)
    spec = dataclasses.replace(_spec("jump-reward"), jump_measure=jm)
    acc = lambda pts: -pts[:, 0] ** 2
    h = ham_row(spec, 0.0, [-0.2], [0.4], [[-2.0]], acc)
    for i, a in enumerate(spec.control.points):
        assert h[i] == pytest.approx(a - a * a * rate * m2_marks, abs=1e-10)


def test_hamiltonian_requires_accessor_for_jump_problems():
    spec = _spec("jump-reward")
    with pytest.raises(ValueError, match="accessor"):
        ham_row(spec, 0.0, [0.0], np.zeros(1), np.zeros((1, 1)), None)


# ---------------------------------------------------------------------------
# Residual surfaces: exact derivatives and sampled closed forms
# ---------------------------------------------------------------------------

def _default_lattice(spec):
    """The config's time grid and the default state grid."""
    return (spec.time_grid(spec.default_steps()),
            transition.default_state_grid(spec))


def test_residual_vanishes_on_exact_solutions():
    for fam, tol in (("uncontrolled-decay", 1e-12), ("bang-drift", 1e-12),
                     ("jump-reward", 1e-10)):
        spec = _spec(fam)
        rf = oracles.exact_residual(spec, oracles.registry_surface(spec),
                                    *_default_lattice(spec))
        assert rf.interior_max() <= tol
        assert rf.terminal_error <= 1e-12


def test_residual_accumulator_drift_term():
    # the closed form is linear in both coordinates, so any error in the
    # running-integral generator x * dv/dz would show up at order |x|
    spec = _spec("lookback-integral")
    fld = oracles.sampled_dp_field(closed_form(spec)["value"],
                                   *_default_lattice(spec))
    rf = hjb.hjb_residual(spec, fld)
    assert rf.interior_max() <= 1e-9
    assert rf.terminal_error <= 1e-12


def test_wrong_candidate_flagged_by_terminal_error(bang_spec):
    cand = {"value": lambda t, x: 0.0,
            "dt": lambda t, x: 0.0,
            "grad": lambda t, x: np.zeros(1),
            "hess": lambda t, x: np.zeros((1, 1))}
    rf = oracles.exact_residual(bang_spec, cand, *_default_lattice(bang_spec))
    assert rf.interior_max() <= 1e-14
    assert rf.terminal_error == pytest.approx(
        float(np.abs(rf.grid.axes[0]).max()))


def test_residual_field_layout(bang_spec):
    rf = oracles.exact_residual(bang_spec,
                                oracles.registry_surface(bang_spec),
                                *_default_lattice(bang_spec))
    n = rf.grid.shape[0]
    np.testing.assert_array_equal(np.argwhere(rf.excluded), [[0], [n - 1]])
    assert np.all(np.isnan(rf.residual[:, rf.excluded]))
    assert np.all(np.isfinite(rf.residual[:, ~rf.excluded]))
    assert np.all(rf.argmax[:, rf.excluded] == -1)
    assert rf.time_grid.size == rf.residual.shape[0]


def test_stencil_error_decays_second_order():
    spec = _spec("uncontrolled-decay")
    T = spec.horizon
    cand = {
        "value": lambda t, x: math.exp(-(T - t)) * math.sin(x[0]),
        "dt": lambda t, x: math.exp(-(T - t)) * math.sin(x[0]),
        "grad": lambda t, x: np.array([math.exp(-(T - t))
                                       * math.cos(x[0])]),
        "hess": lambda t, x: np.array([[-math.exp(-(T - t))
                                        * math.sin(x[0])]]),
    }
    errs = []
    for nt, nx in ((16, 41), (32, 81), (64, 161)):
        tg = np.linspace(0.0, T, nt + 1)
        grid = LatticeGrid(axes=(np.linspace(-2.0, 2.0, nx),))
        r_st = hjb.hjb_residual(
            spec, oracles.sampled_dp_field(cand["value"], tg, grid))
        r_ex = oracles.exact_residual(spec, cand, tg, grid)
        errs.append(float(np.nanmax(np.abs(r_st.residual
                                           - r_ex.residual))))
    assert errs[1] <= errs[0] / 2.5
    assert errs[2] <= errs[1] / 2.5
    assert errs[2] <= errs[0] / 8.0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_residual_rejects_bad_inputs(bang_spec):
    with pytest.raises(TypeError, match="candidate"):
        hjb.hjb_residual(bang_spec, 3.14)


def test_residual_rejects_degenerate_grids(bang_spec):
    value = closed_form(bang_spec)["value"]
    tg = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="5 nodes"):
        hjb.hjb_residual(bang_spec, oracles.sampled_dp_field(
            value, tg, LatticeGrid(axes=(np.linspace(-1, 1, 4),))))
    with pytest.raises(ValueError, match="uniform"):
        hjb.hjb_residual(bang_spec, oracles.sampled_dp_field(
            value, tg, LatticeGrid(axes=(np.geomspace(1, 8, 16),))))


def test_residual_rejects_supremum_augmentation():
    spec = _spec("lookback-integral", augmentation="running-supremum")
    axis = np.linspace(-1.0, 1.0, 5)
    fld = oracles.sampled_dp_field(lambda t, x: 0.0, spec.time_grid(4),
                                   LatticeGrid(axes=(axis, axis)))
    with pytest.raises(ValueError, match="no smooth generator"):
        hjb.hjb_residual(spec, fld)


# ---------------------------------------------------------------------------
# Certificates on solved fields
# ---------------------------------------------------------------------------

def test_certificate_uncontrolled_dp_field():
    spec = _spec("uncontrolled-decay")
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    rep = hjb.residual_certificate(fld, spec)
    assert rep["ok"]
    assert rep["interior_max_abs_residual"] <= 1e-2
    assert rep["terminal_max_error"] <= 1e-12


def test_certificate_bang_penalized_limit(bang_spec, bang_limit_field):
    rep = hjb.residual_certificate(bang_limit_field, bang_spec)
    assert rep["ok"]
    assert rep["interior_max_abs_residual"] <= 5e-2
    assert rep["terminal_max_error"] <= 1e-12
    assert rep["n_certified"] > 0.9 * bang_limit_field.grid.shape[0]


def test_certificate_jump_reward_dp_field():
    spec = _spec("jump-reward")
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    rep = hjb.residual_certificate(fld, spec)
    assert rep["ok"]
    assert rep["interior_max_abs_residual"] <= 1e-2


def test_certificate_argmax_matches_dp_policy(bang_spec, bang_limit_field):
    fdp = dp.solve_dp_grid(bang_spec, 64, bang_limit_field.grid)
    rf = hjb.residual_certificate(bang_limit_field,
                                  bang_spec)["residual_field"]
    interior = ~rf.excluded
    agree = (rf.argmax[:, interior] == fdp.argmax[:, interior]).mean()
    assert agree >= 0.95


def test_certificate_detects_foreign_field(bang_spec):
    other = _spec("uncontrolled-decay")
    fld = dp.solve_dp_grid(bang_spec, 64,
                           transition.default_state_grid(bang_spec))
    with pytest.warns(RuntimeWarning, match="different problem"):
        rep = hjb.residual_certificate(fld, other)
    assert not rep["ok"]
    assert rep["interior_max_abs_residual"] > 0.5
