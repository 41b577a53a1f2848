"""Validation, evaluation purity, and declared-constant audits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audits
import oracles
from jumpctrl import bsde, cli, problem, sim
from jumpctrl.transition import LatticeGrid


def cfg(family, **over):
    doc = {"schema_version": 1, "family": family}
    doc.update(over)
    return doc


ALL_FAMILIES = sorted(problem.FAMILIES)


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_load_all_families(family):
    spec = problem.load_problem(cfg(family))
    assert spec.coefficients.family == family
    assert spec.control.size >= 2
    assert spec.randomization.lambda0_weights.size == spec.control.size
    assert np.all(spec.a_eigenvalues <= 0.0)


def test_unknown_family_rejected():
    with pytest.raises(problem.ConfigError, match="unknown family"):
        problem.load_problem(cfg("mystery-family"))


def test_missing_schema_version_rejected():
    with pytest.raises(problem.ConfigError, match="schema_version"):
        problem.load_problem({"family": "bang-drift"})


def test_positive_eigenvalue_rejected():
    with pytest.raises(problem.ConfigError, match="spectrum not dissipative"):
        problem.load_problem(cfg("bang-drift", a_eigenvalues=[0.1]))


def test_lambda0_full_support_required():
    with pytest.raises(problem.ConfigError, match="lambda0 lacks full support"):
        problem.load_problem(
            cfg("bang-drift", lambda0_weights=[0.5, 0.0, 0.5]))


def test_duplicate_control_points_rejected():
    with pytest.raises(problem.ConfigError, match="pairwise distinct"):
        problem.load_problem(cfg("bang-drift", control_points=[1.0, 1.0]))


def test_augmentation_restricted_to_supporting_family():
    with pytest.raises(problem.ConfigError, match="augmentation not supported"):
        problem.load_problem(cfg("bang-drift", augmentation="running-integral"))


def _jump(sampler, **params):
    return {"total_rate": 2.0, "mark_sampler_id": sampler,
            "mark_parameters": params}


def test_second_moment_is_the_mark_law_quadrature():
    laws = (
        (_jump("two-point", values=[0.5, -0.25], probs=[0.3, 0.7]),
         oracles.second_moment_two_point(0.5, -0.25, 0.3, 2.0)),
        (_jump("uniform-interval", low=0.0, high=1.0),
         oracles.second_moment_uniform(0.0, 1.0, 2.0)),
        (_jump("exponential", scale=0.3),
         oracles.second_moment_exponential(0.3, 2.0)),
    )
    for jump, m2 in laws:
        spec = problem.load_problem(cfg("jump-reward", jump=jump))
        assert abs(spec.jump_measure.second_moment - m2) <= 1e-12
        # the closed form reads the computed moment
        run = max(a - a * a * m2 for a in spec.control.points)
        assert problem.closed_form(spec)["value"](0.0, [0.0]) == \
            pytest.approx(run * spec.horizon, abs=1e-12)


def test_two_point_probabilities_are_checked_at_load():
    bad = _jump("two-point", values=[0.5, -0.5], probs=[0.5, 0.4])
    with pytest.raises(problem.ConfigError, match="sum to 1"):
        problem.load_problem(cfg("jump-reward", jump=bad))


@pytest.mark.parametrize("value", ["abc", -1.0, float("nan"), float("inf"),
                                   True, None])
def test_tolerances_must_be_finite_and_nonnegative(value):
    with pytest.raises(problem.ConfigError, match="tol_value"):
        problem.load_problem(cfg("bang-drift",
                                 tolerances={"tol_value": value}))


def test_tolerances_override_the_defaults_and_keep_their_order():
    spec = problem.load_problem(cfg("bang-drift",
                                    tolerances={"tol_hjb": 0, "tol_value": 1}))
    assert spec.tolerances == {**problem.DEFAULT_TOLERANCES,
                               "tol_hjb": 0, "tol_value": 1}
    assert list(spec.tolerances) == list(problem.DEFAULT_TOLERANCES)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_family_parameters_are_checked_against_the_registry(family):
    _, defaults = problem.FAMILIES[family]
    spec = problem.load_problem(cfg(family, parameters=dict(defaults)))
    assert spec.fingerprint() != problem.load_problem(cfg(family)).fingerprint()
    with pytest.raises(problem.ConfigError,
                       match="unknown config key 'parameters.sigm'"):
        problem.load_problem(cfg(family, parameters={"sigm": 5.0}))


@pytest.mark.parametrize("doc,key", [
    ({"schema_version": 1}, "'family'"),
    ({"schema_version": 1, "family": "bang-drift", "jump": {}},
     "'jump.total_rate'"),
    ({"schema_version": 1, "family": "bang-drift",
      "initial_law": {"kind": "point"}}, "'initial_law.mean'"),
])
def test_missing_required_keys_raise_config_error(doc, key):
    with pytest.raises(problem.ConfigError, match=f"missing config key {key}"):
        problem.load_problem(doc)


_EXPONENTIAL = {"total_rate": 2.0, "mark_sampler_id": "exponential",
                "mark_parameters": {"scale": 0.3}}


#: (key, config entry) whose value at the key has the wrong JSON type:
#: null, boolean, list or object where the loader reads a number or a
#: name, a fraction or boolean where it reads an integer; then a
#: covariance on a point law, which reads none
WRONG_TYPES = [
    ("parameters.horizon", {"parameters": {"horizon": None}}),
    ("family", {"family": ["bang-drift"]}),
    ("parameters.sigma", {"parameters": {"sigma": None}}),
    ("jump.total_rate", {"jump": {**_EXPONENTIAL, "total_rate": None}}),
    ("jump.mark_sampler_id", {"jump": {**_EXPONENTIAL,
                                       "mark_sampler_id": {"id": 1}}}),
    ("jump.mark_parameters.scale", {"jump": {
        **_EXPONENTIAL, "mark_parameters": {"scale": True}}}),
    ("jump.mark_parameters.values", {"jump": {
        "total_rate": 2.0, "mark_sampler_id": "two-point",
        "mark_parameters": {"values": [0.5, None], "probs": [0.5, 0.5]}}}),
    ("a0_index", {"a0_index": 1.9}),
    ("a0_index", {"a0_index": True}),
    ("control_points", {"control_points": [-1.0, True]}),
    ("lambda0_weights", {"lambda0_weights": None}),
    ("initial_law.mean", {"initial_law": {"kind": "point", "mean": None}}),
    ("augmentation", {"augmentation": False}),
    ("schema_version", {"schema_version": True}),
    ("initial_law.cov_diag", {"initial_law": {
        "kind": "point", "mean": [0.0], "cov_diag": [4.0]}}),
]


@pytest.mark.parametrize("key,entry", WRONG_TYPES,
                         ids=[key for key, _ in WRONG_TYPES])
def test_a_value_of_the_wrong_type_exits_2_naming_its_key(key, entry,
                                                          tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg("bang-drift"), **entry}),
                    encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["solve", str(path), "--method", "dp", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config key '{key}'" in err
    assert "Traceback" not in err
    assert not out.exists()


#: Second spellings of a problem value, which the loader does not read:
#: each value has one key (``parameters.horizon``, ``initial_law``,
#: ``a0_index``), and a run's step count is ``--steps``
DROPPED_KEYS = [
    ("horizon", {"horizon": 3.0}),
    ("x0", {"x0": [0.5]}),
    ("a0", {"a0": -1.0}),
    ("steps_per_unit_time", {"steps_per_unit_time": 32}),
]


@pytest.mark.parametrize("key,entry", DROPPED_KEYS,
                         ids=[key for key, _ in DROPPED_KEYS])
def test_a_dropped_key_exits_2_naming_it(key, entry, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg("bang-drift"), **entry}),
                    encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["solve", str(path), "--method", "dp", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"unknown config key '{key}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("entry,fingerprint", [
    ({"parameters": {"horizon": 3.0}}, "0607d6eb6e3a54dd"),
    ({"initial_law": {"kind": "point", "mean": [0.5]}}, "adb79c8c849867b6"),
    ({"a0_index": 0}, "8e8729c52f56b114"),
], ids=["horizon", "x0", "a0"])
def test_the_kept_key_loads_the_dropped_keys_problem_id(entry, fingerprint):
    # the ids that {"horizon": 3.0}, {"x0": [0.5]} and {"a0": -1.0} gave
    assert problem.load_problem(
        cfg("bang-drift", **entry)).fingerprint() == fingerprint


def test_registry_default_fingerprints_are_pinned():
    # the fingerprint is every report's problem id: a loader change must
    # leave the defaults' ids as they are
    assert {family: problem.load_problem(cfg(family)).fingerprint()
            for family in ALL_FAMILIES} == {
        "bang-drift": "79ade65b60f6f0e2",
        "jump-reward": "d4506b279d93ed74",
        "lookback-integral": "9c49b4881292f7bc",
        "ou-switch": "e2a418676bc4eeaf",
        "uncontrolled-decay": "0ca50a2475df8b3c"}


def test_gaussian_initial_law_needs_matching_cov():
    with pytest.raises(problem.ConfigError):
        problem.load_problem(cfg(
            "bang-drift",
            initial_law={"kind": "gaussian", "mean": [0.0]}))
    spec = problem.load_problem(cfg(
        "bang-drift",
        initial_law={"kind": "gaussian", "mean": [0.0], "cov_diag": [0.04]}))
    assert spec.initial_law.cov_diag[0] == 0.04


def test_fingerprint_stable_and_discriminating():
    a = problem.load_problem(cfg("bang-drift")).fingerprint()
    b = problem.load_problem(cfg("bang-drift")).fingerprint()
    c = problem.load_problem(
        cfg("bang-drift", parameters={"horizon": 2.0})).fingerprint()
    assert a == b
    assert a != c


@pytest.mark.parametrize("n_steps", [0, 1.5, -1])
def test_invalid_step_counts_raise_value_error(n_steps):
    spec = problem.load_problem(cfg("bang-drift"))
    with pytest.raises(ValueError, match="step count"):
        spec.time_grid(n_steps)
    with pytest.raises(ValueError, match="step count"):
        sim.simulate_bundle(spec, 10, 1, n_steps=n_steps)
    grid = LatticeGrid(axes=(np.linspace(-1.0, 1.0, 9),))
    bundle = sim.simulate_bundle(spec, 10, 1, n_steps=8)
    for on in (grid, bundle):
        with pytest.raises(ValueError, match="step count"):
            bsde.minimal_value(spec, (1, 2), n_steps, on)


def test_time_grid_accepts_numpy_integers():
    spec = problem.load_problem(cfg("bang-drift"))
    assert spec.time_grid(np.int64(8)).tobytes() == spec.time_grid(8).tobytes()
    assert spec.time_grid(np.uint8(1)).tolist() == [0.0, spec.horizon]

# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_coefficients_bang_drift_values():
    spec = problem.load_problem(cfg("bang-drift"))
    c, a, x = spec.coefficients, spec.control.points[0], np.array([[0.7]])
    b = c.b(0.3, x, a)
    assert b.shape == (1, 1) and b[0, 0] == -1.0
    sig = c.sigma(0.3, x, a)
    assert sig.shape == (1, 1, 1) and sig[0, 0, 0] == 0.2
    assert c.f(0.3, x, a)[0] == 0.0
    assert c.gamma is None


def test_coefficients_jump_reward_gamma():
    spec = problem.load_problem(cfg("jump-reward"))
    c, a, x = spec.coefficients, spec.control.points[0], np.array([[0.0]])
    gam = c.gamma(0.0, x, a, np.array([0.5]))
    assert gam.shape == (1, 1)
    assert gam[0, 0] == -0.5     # a=-1 times z=0.5
    assert c.f(0.0, x, a)[0] == -1.0


def test_coefficients_are_pure():
    spec = problem.load_problem(cfg("ou-switch"))
    c, a, x = spec.coefficients, spec.control.points[2], np.array([[1.2]])
    assert np.array_equal(c.b(0.5, x, a), c.b(0.5, x, a))
    assert np.array_equal(c.sigma(0.5, x, a), c.sigma(0.5, x, a))
    assert c.f(0.5, x, a)[0] == c.f(0.5, x, a)[0]


def test_eval_terminal_shapes_and_values():
    spec = problem.load_problem(cfg("jump-reward"))
    g = problem.eval_terminal(spec, [[2.0], [-1.0]])
    assert np.allclose(g, [-4.0, -1.0])
    look = problem.load_problem(cfg("lookback-integral"))
    g2 = problem.eval_terminal(look, [[3.0, 0.25]])
    assert g2[0] == 0.25
    with pytest.raises(ValueError, match="coordinates"):
        problem.eval_terminal(look, [[3.0]])


def test_decay_factor_contraction():
    spec = problem.load_problem(cfg("uncontrolled-decay"))
    assert spec.decay_factor(0.5)[0] == pytest.approx(math.exp(-0.5))
    assert spec.decay_factor(0.0)[0] == 1.0


def test_initial_augmented_layouts():
    look = problem.load_problem(cfg("lookback-integral"))
    x = look.initial_augmented(np.array([[1.5]]))
    assert x.shape == (1, 2) and x[0, 1] == 0.0
    sup = problem.load_problem(cfg("lookback-integral",
                                   augmentation="running-supremum"))
    xs = sup.initial_augmented(np.array([[1.5]]))
    assert xs[0, 1] == 1.5


# ---------------------------------------------------------------------------
# Spot checks and growth bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_lipschitz_spot_check_passes(family):
    spec = problem.load_problem(cfg(family))
    report = audits.spot_check_lipschitz(spec, oracles.HYPOTHESES[family],
                                         n_samples=10_000, seed=7)
    assert report["pass"], report
    assert report["max_quotient"] <= report["bound"]


def test_lipschitz_spot_check_fails_when_underdeclared():
    spec = problem.load_problem(cfg("ou-switch"))
    underdeclared = dict(oracles.HYPOTHESES["ou-switch"], lipschitz_l=0.5)
    report = audits.spot_check_lipschitz(spec, underdeclared,
                                         n_samples=2_000, seed=7)
    assert not report["pass"]
    assert report["max_quotient"] == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-50, 50), ai=st.integers(0, 2),
       t=st.floats(0, 1), fam=st.sampled_from(ALL_FAMILIES))
def test_growth_bounds_hold(x, ai, t, fam):
    spec = problem.load_problem(cfg(fam))
    ai = min(ai, spec.control.size - 1)
    L = oracles.HYPOTHESES[fam]["lipschitz_l"]
    pbar = oracles.HYPOTHESES[fam]["growth_pbar"]
    bound = L * (1.0 + abs(x) ** pbar)
    f = spec.coefficients.f(t, np.array([[x]]), spec.control.points[ai])
    assert abs(f[0]) <= bound + 1e-12
    xa = np.zeros((1, spec.total_dim))
    xa[0, 0] = x
    if spec.augmentation != "none":
        xa[0, 1] = x
    g = problem.eval_terminal(spec, xa)[0]
    assert abs(g) <= bound + 1e-12


# ---------------------------------------------------------------------------
# Mark laws and closed forms
# ---------------------------------------------------------------------------

def test_mark_samplers_inverse_cdf():
    spec = problem.load_problem(cfg("jump-reward"))
    u = np.linspace(0.0, 0.999, 1000)
    z = spec.jump_measure.sample_marks(u)
    assert set(np.unique(z)) == {-0.5, 0.5}
    assert abs((z == 0.5).mean() - 0.5) < 0.01

    uni = problem.JumpMeasureSpec(
        total_rate=3.0, mark_sampler_id="uniform-interval",
        mark_parameters={"low": 0.0, "high": 1.0})
    zu = uni.sample_marks(u)
    assert zu.min() >= 0.0 and zu.max() <= 1.0

    expo = problem.JumpMeasureSpec(
        total_rate=2.0, mark_sampler_id="exponential",
        mark_parameters={"scale": 0.5})
    ze = expo.sample_marks(u)
    assert np.all(ze >= 0.0)
    z64, w64 = expo.gauss_nodes(64)
    assert abs(np.sum(w64 * z64) - 0.5) < 1e-8   # mean = scale


def test_closed_forms_match_oracles():
    decay = problem.load_problem(cfg("uncontrolled-decay"))
    cf = problem.closed_form(decay)
    assert cf["value"](0.0, np.array([1.0])) == pytest.approx(
        oracles.DECAY_VALUE_T0)

    bang = problem.load_problem(cfg("bang-drift"))
    cfb = problem.closed_form(bang)
    assert cfb["value"](0.0, np.array([0.0])) == pytest.approx(
        oracles.BANG_VALUE_T0)

    jump = problem.load_problem(cfg("jump-reward"))
    cfj = problem.closed_form(jump)
    assert cfj["value"](0.0, np.array([0.0])) == pytest.approx(
        oracles.jump_reward_value(0.0, 1.0, (-1.0, 0.0, 1.0), 2.0))

    look = problem.load_problem(cfg("lookback-integral"))
    cfl = problem.closed_form(look)
    assert cfl["value"](0.0, np.array([0.0, 0.0])) == pytest.approx(
        oracles.LOOKBACK_VALUE_T0)

    assert problem.closed_form(problem.load_problem(cfg("ou-switch"))) is None


def test_closed_form_tracks_control_grid_override():
    spec = problem.load_problem(cfg("bang-drift",
                                    control_points=[-2.0, 0.5],
                                    a0_index=1))
    cf = problem.closed_form(spec)
    assert cf["value"](0.0, np.array([0.0])) == pytest.approx(0.5)


def test_running_functional_updates():
    z = np.array([0.0])
    out = problem.update_running_functional(
        "running-integral", z, np.array([1.0]), np.array([2.0]), 0.5)
    assert out[0] == pytest.approx(0.75)
    sup = problem.update_running_functional(
        "running-supremum", np.array([1.0]), np.array([0.0]),
        np.array([3.0]), 0.5)
    assert sup[0] == 3.0
