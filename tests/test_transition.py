"""One-step kernel: quadrature exactness, interpolation, lattice bounds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from jumpctrl import transition
from jumpctrl.problem import FAMILIES, load_problem
from jumpctrl.transition import LatticeGrid, default_state_grid


def _spec(family, **over):
    cfg = {"schema_version": 1, "family": family}
    cfg.update(over)
    return load_problem(cfg)


# ---------------------------------------------------------------------------
# LatticeGrid / interpolation
# ---------------------------------------------------------------------------

def test_lattice_grid_rejects_unsorted_axis():
    with pytest.raises(ValueError, match="increasing"):
        LatticeGrid(axes=(np.array([0.0, 2.0, 1.0]),))


def test_lattice_nodes_cover_product():
    g = LatticeGrid(axes=(np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0])))
    assert g.shape == (2, 3)
    nodes = g.nodes()
    assert nodes.shape == (6, 2)
    assert nodes[0].tolist() == [0.0, -1.0]
    assert nodes[-1].tolist() == [1.0, 1.0]


def test_multilinear_matches_np_interp_in_1d():
    ax = np.linspace(-2.0, 3.0, 17)
    vals = np.sin(ax)
    pts = np.linspace(-1.7, 2.9, 101)[:, None]
    got, clamped = transition.multilinear((ax,), vals, pts)
    assert clamped == 0
    np.testing.assert_allclose(got, np.interp(pts[:, 0], ax, vals),
                               rtol=0, atol=1e-14)


def test_multilinear_exact_on_bilinear_function():
    gx = np.linspace(0.0, 2.0, 5)
    gz = np.linspace(-1.0, 1.0, 7)
    vals = 2.0 + 3.0 * gx[:, None] - gz[None, :] + 0.5 * gx[:, None] * gz
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, 2, 200), rng.uniform(-1, 1, 200)])
    got, clamped = transition.multilinear((gx, gz), vals, pts)
    want = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
    assert clamped == 0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_multilinear_clamps_and_counts():
    ax = np.linspace(0.0, 1.0, 11)
    vals = ax.copy()
    pts = np.array([[-5.0], [0.5], [2.0]])
    got, clamped = transition.multilinear((ax,), vals, pts)
    assert clamped == 2
    np.testing.assert_allclose(got, [0.0, 0.5, 1.0], atol=1e-15)


def test_multilinear_carries_trailing_axes():
    # one call over a (*shape, A) array equals A calls, bit for bit
    gx = np.linspace(0.0, 2.0, 5)
    gz = np.linspace(-1.0, 1.0, 7)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(5, 7, 3))
    pts = np.column_stack([rng.uniform(-0.5, 2.5, 50),
                           rng.uniform(-1, 1, 50)])
    got, clamped = transition.multilinear((gx, gz), vals, pts)
    assert got.shape == (50, 3)
    for a in range(3):
        one, c = transition.multilinear((gx, gz), vals[..., a], pts)
        np.testing.assert_array_equal(got[:, a], one)
        assert c == clamped


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.floats(0.0, 1.0))
def test_multilinear_monotone_in_values(bumps, s):
    # raising stored values anywhere never lowers an interpolated value
    ax = np.linspace(0.0, 1.0, 6)
    lo = np.array(bumps)
    hi = lo + np.linspace(0.0, 1.0, 6)
    pts = np.array([[s]])
    a, _ = transition.multilinear((ax,), lo, pts)
    b, _ = transition.multilinear((ax,), hi, pts)
    assert b[0] >= a[0] - 1e-12


def test_nearest_node_breaks_ties_low_and_clamps_outside():
    ax = np.array([0.0, 1.0, 2.0, 4.0])
    below, above = (np.nextafter(0.5, -1.0), np.nextafter(0.5, 1.0))
    cases = {
        "nodes": ([0.0, 1.0, 2.0, 4.0], [0, 1, 2, 3]),
        "midpoints": ([0.5, 1.5, 3.0], [0, 1, 2]),
        "one ulp off a midpoint": (
            [below, above, np.nextafter(3.0, 0.0), np.nextafter(3.0, 4.0)],
            [0, 1, 2, 3]),
        "outside": ([-7.0, np.nextafter(0.0, -1.0), 4.5, 1e300],
                    [0, 0, 3, 3]),
    }
    for name, (x, want) in cases.items():
        got = transition.nearest_node(ax, np.array(x))
        np.testing.assert_array_equal(got, want, err_msg=name)


# ---------------------------------------------------------------------------
# Outcome enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["uncontrolled-decay", "bang-drift",
                                    "jump-reward", "ou-switch",
                                    "lookback-integral"])
def test_outcome_weights_sum_to_one(family):
    spec = _spec(family)
    x = np.array([[0.3] * spec.total_dim])
    for a in range(spec.control.size):
        outs = transition.one_step_points(spec, 0.0, 1 / 64, a, x)
        total = math.fsum(w for w, _ in outs)
        assert abs(total - 1.0) < 1e-12


def test_decay_step_is_exact_and_deterministic():
    spec = _spec("uncontrolled-decay")
    dt = 0.125
    x = np.array([[0.8], [-0.4]])
    outs = transition.one_step_points(spec, 0.0, dt, 0, x)
    assert len(outs) == 1
    w, pts = outs[0]
    assert w == 1.0
    np.testing.assert_allclose(pts, math.exp(-dt) * x, rtol=1e-15)


def test_brownian_quadrature_matches_gaussian_moments():
    # bang drift at a=+1: X' = x + a dt + sigma sqrt(dt) xi
    spec = _spec("bang-drift")
    dt = 1 / 32
    x0 = 0.4
    a_idx = spec.control.index_of(1.0)
    outs = transition.one_step_points(spec, 0.0, dt, a_idx,
                                      np.array([[x0]]))
    mean = math.fsum(w * p[0, 0] for w, p in outs)
    second = math.fsum(w * p[0, 0] ** 2 for w, p in outs)
    m = x0 + 1.0 * dt
    v = 0.2 ** 2 * dt
    assert abs(mean - m) < 1e-13
    want = oracles.normal_quadratic_expectation(m, v, 1.0, 0.0, 0.0)
    assert abs(second - want) < 1e-13


def test_jump_outcomes_match_compensated_moments():
    # jump-reward: symmetric +-1/2 marks, rate 2, gamma = a z, sigma = 0
    spec = _spec("jump-reward")
    dt = 1 / 64
    a_idx = spec.control.index_of(1.0)
    outs = transition.one_step_points(spec, 0.0, dt, a_idx,
                                      np.array([[0.0]]))
    mean = math.fsum(w * p[0, 0] for w, p in outs)
    second = math.fsum(w * p[0, 0] ** 2 for w, p in outs)
    m2 = spec.jump_measure.second_moment   # rate-weighted: int z^2 rate(dz)
    assert abs(mean) < 1e-12                      # compensated
    assert abs(second - dt * m2) < 1e-8           # trunc error only


def test_truncated_poisson_is_a_probability_vector():
    p = transition._poisson_truncated(0.05, 4)
    assert p.shape == (5,)
    assert abs(p.sum() - 1.0) < 1e-15
    raw = [math.exp(-0.05) * 0.05 ** k / math.factorial(k) for k in range(5)]
    np.testing.assert_allclose(p, np.array(raw) / sum(raw), rtol=1e-13)


def test_lookback_outcomes_update_running_integral_by_trapezoid():
    spec = _spec("lookback-integral")
    dt = 1 / 16
    a_idx = spec.control.index_of(1.0)
    x = np.array([[0.5, 2.0]])
    outs = transition.one_step_points(spec, 0.0, dt, a_idx, x)
    for _, pts in outs:
        want = 2.0 + 0.5 * (0.5 + pts[0, 0]) * dt
        assert abs(pts[0, 1] - want) < 1e-12


# ---------------------------------------------------------------------------
# expect_next
# ---------------------------------------------------------------------------

def test_expect_next_exact_for_linear_value():
    spec = _spec("bang-drift")
    grid = LatticeGrid(axes=(np.linspace(-4.0, 4.0, 81),))
    vals = 2.0 * grid.axes[0] - 1.0
    dt = 1 / 64
    a_idx = spec.control.index_of(-1.0)
    inner = grid.axes[0][20:-20]
    got, _ = transition.expect_next(spec, 0.0, dt, a_idx, grid, vals)
    got = got[20:-20]
    want = 2.0 * (inner - dt) - 1.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_expect_next_counts_clamps_near_boundary():
    spec = _spec("bang-drift")
    grid = LatticeGrid(axes=(np.linspace(-0.01, 0.01, 5),))
    vals = np.zeros(5)
    _, clamped = transition.expect_next(spec, 0.0, 0.25, 2, grid, vals)
    assert clamped > 0


# ---------------------------------------------------------------------------
# Default lattice + checksum
# ---------------------------------------------------------------------------

def test_default_state_grid_bounds_cover_dynamics():
    spec = _spec("bang-drift")
    grid = default_state_grid(spec, n_nodes=41)
    lo, hi = grid.axes[0][[0, -1]]
    assert lo <= -0.5 and hi >= 1.5
    again = default_state_grid(spec, n_nodes=41)
    np.testing.assert_array_equal(grid.axes[0], again.axes[0])


_LAWS = {"point": {"kind": "point", "mean": [0.3]},
         "gaussian": {"kind": "gaussian", "mean": [0.3], "cov_diag": [0.25]}}


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("family", ["bang-drift", "jump-reward"])
def test_default_state_grid_is_the_moment_envelope(family, law):
    # linear coefficients: the sigma-point moments are the exact ones
    spec = _spec(family, initial_law=_LAWS[law])
    x0 = 0.3
    v0 = 0.25 if law == "gaussian" else 0.0
    controls = spec.control.points
    if family == "bang-drift":
        want = oracles.bang_drift_envelope(x0, v0, 1.0, controls, 0.2, 16)
    else:
        want = oracles.jump_reward_envelope(x0, v0, 1.0, controls, 2.0, 0.5,
                                            16)
    got = default_state_grid(spec, n_nodes=11).axes[0][[0, -1]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_jump_count_cut_barely_moves_the_default_lattice():
    # cutting the per-step jump count at MAX_JUMPS_PER_STEP moves the
    # bounds of jump-reward's x0 +/- 5 sqrt(M t) + 0.5 by about 1.6e-5
    got = default_state_grid(_spec("jump-reward"), n_nodes=11).axes[0][[0, -1]]
    half = 5.0 * math.sqrt(oracles.JUMP_REWARD_SECOND_MOMENT) + 0.5
    np.testing.assert_allclose(got, (-half, half), rtol=0, atol=1e-4)


def test_default_state_grid_ignores_the_start_regime():
    one = _spec("jump-reward", parameters={"rate": 3}, a0=0.0)
    other = _spec("jump-reward", parameters={"rate": 3}, a0=1.0)
    assert one.randomization.a0_index != other.randomization.a0_index
    for ax_one, ax_other in zip(default_state_grid(one).axes,
                                default_state_grid(other).axes):
        np.testing.assert_array_equal(ax_one, ax_other)


def test_default_state_grid_handles_augmented_state():
    spec = _spec("lookback-integral")
    grid = default_state_grid(spec, n_nodes=21)
    assert grid.ndim == 2
    assert grid.axes[1][-1] >= 0.4   # running integral reaches ~T*amax/2


def test_kernel_checksum_format_and_stability():
    c1 = transition.kernel_checksum()
    c2 = transition.kernel_checksum()
    assert c1 == c2
    assert len(c1) == 16
    int(c1, 16)


@pytest.mark.parametrize("name,value", [
    ("HERMITE_NODES", 4), ("MAX_JUMPS_PER_STEP", 3),
    ("_NODES_BY_COUNT", {1: 8, 2: 4, 3: 3, 4: 3})],
    ids=["hermite", "max-jumps", "mark-nodes"])
def test_kernel_checksum_covers_the_quadrature_constants(monkeypatch, name,
                                                         value):
    before = transition.kernel_checksum()
    monkeypatch.setattr(transition, name, value)
    assert transition.kernel_checksum() != before


def test_kernel_checksum_covers_literals_of_nested_code():
    code = transition.one_step_points.__code__
    finish = next(c for c in code.co_consts if hasattr(c, "co_code"))
    before = transition._code_bytes(code)
    consts = tuple(c.replace(co_consts=(*c.co_consts, 0.5))
                   if c is finish else c for c in code.co_consts)
    assert transition._code_bytes(code.replace(co_consts=consts)) != before


def test_kernel_checksum_is_the_same_in_every_interpreter():
    src = str(Path(transition.__file__).resolve().parents[1])
    script = ("from jumpctrl import transition; "
              "print(transition.kernel_checksum())")
    outs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": src}
        outs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.strip())
    assert outs == {transition.kernel_checksum()}


# ---------------------------------------------------------------------------
# Assembled operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["bang-drift", "jump-reward",
                                    "ou-switch", "lookback-integral"])
def test_operator_rows_match_outcome_loop(family):
    # reference: the per-outcome interpolation loop the operator replaces
    spec = _spec(family)
    grid = default_state_grid(spec, n_nodes=15)
    dt = 1 / 32
    rng = np.random.default_rng(3)
    vals = rng.normal(size=grid.shape)
    interior = transition.interior_mask(grid)
    for a in range(spec.control.size):
        matrix, clamp_rows = transition.assemble_operator(spec, 0.0, dt, a,
                                                          grid)
        want = np.zeros(interior.size)
        want_clamp = want_interior_clamp = 0.0
        for w, pts in transition.one_step_points(spec, 0.0, dt, a,
                                                 grid.nodes()):
            v, c = transition.multilinear(grid.axes, vals, pts)
            _, c_interior = transition.multilinear(grid.axes, vals,
                                                   pts[interior])
            want += w * v
            want_clamp += w * c
            want_interior_clamp += w * c_interior
        np.testing.assert_allclose(matrix @ vals.ravel(), want,
                                   rtol=0, atol=1e-13)
        assert abs(clamp_rows[interior].sum() - want_interior_clamp) < 1e-12
        assert abs(clamp_rows.sum() - want_clamp) < 1e-12
        got, clamp = transition.expect_next(spec, 0.0, dt, a, grid, vals)
        np.testing.assert_array_equal(got, matrix @ vals.ravel())
        assert clamp == pytest.approx(want_clamp, abs=1e-12)
        # rows of a Markov operator: nonnegative and summing to one
        assert matrix.data.min() >= 0.0
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_step_points_do_not_depend_on_time(family):
    # the solvers assemble the quadrature operator once, at t = 0; a
    # family whose coefficients depend on t must fail here first
    spec = _spec(family)
    grid = default_state_grid(spec, n_nodes=9)
    dt = spec.horizon / spec.default_steps()
    for a in range(spec.control.size):
        at0 = transition.one_step_points(spec, 0.0, dt, a, grid.nodes())
        mid = transition.one_step_points(spec, spec.horizon / 2, dt, a,
                                         grid.nodes())
        assert len(at0) == len(mid)
        for (w0, p0), (w1, p1) in zip(at0, mid):
            assert w0 == w1
            np.testing.assert_array_equal(p0, p1)


def test_truncated_jump_mass_is_the_poisson_tail():
    spec = _spec("jump-reward", parameters={"rate": 100.0})
    dt = 1 / 64
    lam = 100.0 * dt
    tail = 1.0 - sum(math.exp(-lam) * lam ** k / math.factorial(k)
                     for k in range(transition.MAX_JUMPS_PER_STEP + 1))
    assert transition.truncated_jump_mass(spec, dt) == pytest.approx(
        tail, rel=1e-12)
    assert 0.02 < tail < 0.025
    assert transition.truncated_jump_mass(_spec("jump-reward"), dt) < 1e-9
    assert transition.truncated_jump_mass(_spec("bang-drift"), dt) == 0.0
