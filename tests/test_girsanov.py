"""Tilt weights, reweighted estimators, thinning simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from onerow import one_path, path_events, replay
from jumpctrl import girsanov, problem, sim


def load(family, **over):
    doc = {"schema_version": 1, "family": family}
    doc.update(over)
    return problem.load_problem(doc)


def kappa(spec, nu, times=(), marks=(), start=None, n_steps=8):
    """Tilt weight of one path with the given switches and no noise."""
    path = one_path(spec, n_steps, start=start, switches=(times, marks))
    return girsanov.doleans_weights(path, nu)[0]


# ---------------------------------------------------------------------------
# Closed-form weights
# ---------------------------------------------------------------------------

def test_doleans_unit_intensity_is_one():
    spec = load("bang-drift")
    w = kappa(spec, girsanov.IntensityControl.const(1.0), [0.2, 0.8], [0, 1])
    assert w == 1.0 and math.log(w) == 0.0


def test_doleans_constant_two_closed_forms():
    spec = load("bang-drift")          # lambda0 total mass 1 by default
    nu2 = girsanov.IntensityControl.const(2.0)
    empty = kappa(spec, nu2)
    assert empty == pytest.approx(oracles.KAPPA_CONST2_NO_EVENTS)
    one = kappa(spec, nu2, [0.4], [1])
    assert one == pytest.approx(oracles.KAPPA_CONST2_ONE_EVENT)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.1, 5.0), count=st.integers(0, 30),
       mass=st.floats(0.2, 3.0))
def test_doleans_constant_matches_oracle(c, count, mass):
    rnd = problem.RandomizationSpec(
        lambda0_weights=np.full(3, mass / 3.0), a0_index=0)
    spec = dataclasses.replace(load("bang-drift"), randomization=rnd)
    times = np.linspace(0.05, 0.95, count) if count else []
    w = kappa(spec, girsanov.IntensityControl.const(c), times, [0] * count,
              n_steps=4)
    assert w > 0.0
    assert w == pytest.approx(
        oracles.constant_tilt_weight(c, mass, 1.0, count), rel=1e-12)


def test_doleans_matrix_single_path_manual():
    """Hand-computed weight for a two-switch path under a matrix tilt."""
    spec = load("bang-drift")
    mat = np.array([[1.0, 2.0, 0.5],
                    [1.5, 1.0, 0.25],
                    [3.0, 0.75, 1.0]])
    nu = girsanov.IntensityControl.from_matrix(mat)
    w = kappa(spec, nu, [0.25, 0.5], [0, 1], start=2)
    third = 1.0 / 3.0
    comp = (0.25 * third * ((1 - 3.0) + (1 - 0.75) + (1 - 1.0))
            + 0.25 * third * ((1 - 1.0) + (1 - 2.0) + (1 - 0.5))
            + 0.50 * third * ((1 - 1.5) + (1 - 1.0) + (1 - 0.25)))
    expected = math.exp(comp) * mat[2, 0] * mat[0, 1]
    assert w == pytest.approx(expected, rel=1e-12)


def test_bundle_weights_agree_with_single_path():
    spec = load("bang-drift")
    nu = girsanov.IntensityControl.from_matrix(
        np.array([[1.0, 0.5, 2.0], [1.0, 1.0, 1.0], [0.2, 3.0, 1.0]]))
    bundle = sim.simulate_bundle(spec, 40, seed=11, n_steps=16)
    weights = girsanov.doleans_weights(bundle, nu)
    for i in (0, 3, 17, 39):
        w = girsanov.doleans_weights(replay(bundle, i), nu)[0]
        assert weights[i] == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_kappa_mean_is_one(c):
    spec = load("bang-drift")
    bundle = sim.simulate_bundle(spec, 20_000, seed=13)
    kappa = girsanov.doleans_weights(bundle, girsanov.IntensityControl.const(c))
    se = kappa.std(ddof=1) / math.sqrt(kappa.size)
    assert abs(kappa.mean() - 1.0) < 3.0 * se
    assert np.all(kappa > 0)


# ---------------------------------------------------------------------------
# Reweighted estimators
# ---------------------------------------------------------------------------

def test_reweight_unit_intensity_matches_unweighted_exactly():
    spec = load("jump-reward")
    bundle = sim.simulate_bundle(spec, 5_000, seed=19)
    est = girsanov.reweighted_expectation(
        bundle, girsanov.IntensityControl.const(1.0), girsanov.gain_payoff)
    plain = girsanov.gain_payoff(bundle)[bundle.included()]
    assert est["mean"] == math.fsum(plain.tolist()) / plain.size
    assert est["kappa_mean"] == 1.0


def test_reweighted_switch_count_scales_with_intensity():
    spec = load("bang-drift")
    bundle = sim.simulate_bundle(spec, 30_000, seed=23)
    for c in (0.5, 2.0):
        est = girsanov.reweighted_expectation(
            bundle, girsanov.IntensityControl.const(c),
            girsanov.theta_count_payoff)
        target = c * spec.randomization.total_mass * spec.horizon
        assert abs(est["mean"] - target) < 3.0 * est["se"]


def test_reweighted_expectation_no_paths():
    spec = load("bang-drift")
    bundle = sim.simulate_bundle(spec, 10, seed=1, n_steps=8)
    bundle.excluded[:] = True
    with pytest.raises(ValueError, match="no paths"):
        girsanov.reweighted_expectation(
            bundle, girsanov.IntensityControl.const(1.0),
            girsanov.gain_payoff)


# ---------------------------------------------------------------------------
# Thinning simulation
# ---------------------------------------------------------------------------

def test_tilted_unit_intensity_reproduces_reference_law():
    spec = load("bang-drift")
    n = 6_000
    ref = sim.simulate_bundle(spec, n, seed=29)
    til = girsanov.simulate_tilted_theta(
        girsanov.IntensityControl.const(1.0), spec, seed=31, n_paths=n)
    alpha = spec.tolerances["ks_alpha"]

    def gaps(bundle):
        segs = []
        for i in range(bundle.n_paths):
            t, _ = path_events(bundle.theta, i)
            if t.size:
                segs.append(np.diff(np.concatenate([[0.0], t])))
        return np.concatenate(segs)

    g_ref, g_til = gaps(ref), gaps(til)
    assert min(g_ref.size, g_til.size) > 1_000
    ks = stats.ks_2samp(g_ref, g_til)
    assert ks.pvalue >= alpha
    # counts agree in the mean too
    c_ref = ref.theta.counts().mean()
    c_til = til.theta.counts().mean()
    se = math.hypot(ref.theta.counts().std() / math.sqrt(n),
                    til.theta.counts().std() / math.sqrt(n))
    assert abs(c_ref - c_til) < 3.0 * se


def test_tilted_feedback_suppresses_disfavored_regime():
    spec = load("bang-drift")
    nu_min, nu_max = 0.1, 2.0
    mat = np.full((3, 3), nu_max)
    mat[:, 2] = nu_min                  # switching into regime 2 disfavored
    nu = girsanov.IntensityControl.from_matrix(mat, nu_id="suppress-a2")
    bundle = girsanov.simulate_tilted_theta(nu, spec, seed=37, n_paths=4_000)
    marks = bundle.theta.marks.astype(int)
    freq = (marks == 2).mean()
    bound = nu_min / (nu_min + nu_max)
    sigma = math.sqrt(bound * (1 - bound) / marks.size)
    assert freq <= bound + 3.0 * sigma


def test_tilted_intensity_two_scales_switch_count():
    spec = load("bang-drift")
    bundle = girsanov.simulate_tilted_theta(
        girsanov.IntensityControl.const(2.0), spec, seed=41, n_paths=4_000)
    counts = bundle.theta.counts()
    se = counts.std() / math.sqrt(counts.size)
    assert abs(counts.mean() - 2.0) < 3.0 * se


# ---------------------------------------------------------------------------
# Gains
# ---------------------------------------------------------------------------

def test_gain_modes_agree_and_respect_value_bound():
    spec = load("bang-drift")
    for nu in (girsanov.IntensityControl.const(0.5),
               girsanov.IntensityControl.const(2.0)):
        rep = girsanov.check_mode_agreement(
            sim.simulate_bundle(spec, 20_000, seed=43), nu)
        assert rep["ok"], rep
        for est in (rep["reweight"], rep["tilted"]):
            assert est.mean <= oracles.BANG_VALUE_T0 + 3.0 * est.se


def test_mode_agreement_needs_a_reference_bundle():
    spec = load("bang-drift")
    nu = girsanov.IntensityControl.const(2.0)
    with pytest.raises(ValueError, match="reference bundle"):
        girsanov.check_mode_agreement(
            girsanov.simulate_tilted_theta(nu, spec, 3, n_paths=50), nu)
    with pytest.raises(ValueError, match="reference bundle"):
        girsanov.check_mode_agreement(
            sim.simulate_bundle(spec, 50, 3, t0=0.5), nu)


def test_strong_tilt_toward_best_regime_approaches_value():
    spec = load("bang-drift")
    mat = np.full((3, 3), 0.05)
    mat[:, 2] = 6.0                     # push hard toward a=+1
    nu = girsanov.IntensityControl.from_matrix(mat, nu_id="push-up")
    est = girsanov.randomized_gain(spec, nu, 20_000, seed=47, mode="tilted")
    assert est.mean <= oracles.BANG_VALUE_T0 + 3.0 * est.se
    assert est.mean > 0.9               # close to the optimum from below


def test_gain_estimate_json_round_trip():
    import json
    est = girsanov.GainEstimate(nu_id="const-2", mode="tilted", mean=0.5,
                                se=0.01, n_paths=100, seed=7)
    doc = json.loads(est.to_json())
    assert doc["nu_id"] == "const-2" and doc["mode"] == "tilted"
    assert set(doc) == {"nu_id", "mode", "mean", "se", "n_paths", "seed",
                        "n_excluded"}


# ---------------------------------------------------------------------------
# Argmax tilt construction
# ---------------------------------------------------------------------------

def test_argmax_tilt_table_shape_and_lookup():
    time_grid = np.linspace(0.0, 1.0, 5)
    axes = (np.linspace(-1.0, 1.0, 3),)
    values = np.zeros((5, 3, 2))
    values[:, :, 1] = 1.0               # regime 1 strictly better everywhere
    nu = girsanov.IntensityControl.argmax_tilt(time_grid, axes, values,
                                               strength=4.0, nu_min=0.05)
    assert nu.table.shape == (4, 3, 2, 2)
    x = np.array([[0.0], [0.9]])
    up = nu.rate(0.3, x, np.array([0, 0]), np.array([1, 1]))
    down = nu.rate(0.3, x, np.array([1, 1]), np.array([0, 0]))
    stay = nu.rate(0.3, x, np.array([1, 1]), np.array([1, 1]))
    assert np.all(up == 4.0)
    assert np.all(down == 0.05)
    assert np.all(stay == 0.05)         # ties and self-switches not pushed


def test_intensity_validation():
    with pytest.raises(ValueError, match="nu_min"):
        girsanov.IntensityControl.const(0.0)
    with pytest.raises(ValueError, match="leave"):
        girsanov.IntensityControl(nu_id="bad", kind="matrix", nu_min=1.0,
                                  nu_max=1.0, matrix=np.array([[1.0, 2.0],
                                                               [1.0, 1.0]]))
