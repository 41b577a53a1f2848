"""Simulation invariants: purity, adaptedness, exactness, martingales."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audits
import oracles
from onerow import one_path, path_events, poisson_events, replay
from jumpctrl import girsanov, problem, sim, stream


def load(family, **over):
    doc = {"schema_version": 1, "family": family}
    doc.update(over)
    return problem.load_problem(doc)


# ---------------------------------------------------------------------------
# Random substreams
# ---------------------------------------------------------------------------

def test_uniform_block_row_purity():
    wide = stream.uniform_block(11, stream.STREAM_PI, 9, 40, 0)
    narrow = stream.uniform_block(11, stream.STREAM_PI, 5, 40, 0)
    assert np.array_equal(wide[:5], narrow)
    other_stream = stream.uniform_block(11, stream.STREAM_THETA, 5, 40, 0)
    assert not np.allclose(narrow, other_stream)


@pytest.mark.parametrize("n_cols", [1, 4, 13])
def test_draws_from_a_row_offset_are_rows_of_the_block(n_cols):
    """Rows drawn from ``first_row`` on are bitwise those rows of the block
    drawn from row 0, also where ``first_row * n_cols`` is not a multiple
    of the four words a Philox counter step yields."""
    full_u = stream.uniform_block(11, stream.STREAM_PI, 24, n_cols, 0)
    full_z = stream.normal_block(11, stream.STREAM_BROWNIAN, 24, n_cols, 0)
    for first_row in range(10):
        for n_rows in (0, 1, 5):
            rows = slice(first_row, first_row + n_rows)
            u = stream.uniform_block(11, stream.STREAM_PI, n_rows, n_cols,
                                     first_row)
            z = stream.normal_block(11, stream.STREAM_BROWNIAN, n_rows,
                                    n_cols, first_row)
            assert u.tobytes() == full_u[rows].tobytes()
            assert z.tobytes() == full_z[rows].tobytes()


def test_normal_block_moments():
    z = stream.normal_block(3, stream.STREAM_BROWNIAN, 200, 500, 0)
    assert abs(z.mean()) < 3.0 / math.sqrt(z.size)
    assert abs(z.std() - 1.0) < 0.005
    assert np.isfinite(z).all()


def test_event_budget_scales():
    assert stream.event_budget(0.0, 1.0) == 20
    assert stream.event_budget(4.0, 1.0) >= 4 + 10 * 2


# ---------------------------------------------------------------------------
# Poisson streams
# ---------------------------------------------------------------------------

def test_poisson_log_reproducible_and_seed_sensitive():
    spec = load("jump-reward")
    t1, z1 = poisson_events(2.0, spec.jump_measure, 1.0, seed=5)
    t2, z2 = poisson_events(2.0, spec.jump_measure, 1.0, seed=5)
    t3, _ = poisson_events(2.0, spec.jump_measure, 1.0, seed=6)
    assert np.array_equal(t1, t2)
    assert np.array_equal(z1, z2)
    assert (t1.size != t3.size
            or not np.allclose(t1, t3))


def test_poisson_count_matches_rate():
    rate, horizon, reps = 2.0, 1.0, 10_000
    mean_th, var_th = oracles.poisson_mean_var(rate, horizon)
    spec = load("jump-reward")
    counts = np.array([
        poisson_events(rate, spec.jump_measure, horizon, seed=s)[0].size
        for s in range(reps)])
    se = math.sqrt(var_th / reps)
    assert abs(counts.mean() - mean_th) < 3.0 * se


def test_poisson_log_strictly_increasing_in_window():
    spec = load("jump-reward")
    for s in range(50):
        times, _ = poisson_events(5.0, spec.jump_measure, 2.0, seed=s)
        if times.size:
            assert np.all(np.diff(times) > 0)
            assert times[0] > 0.0 and times[-1] <= 2.0


def test_event_budget_overflow_raises(monkeypatch):
    # the honest budget is unreachable by design; shrink it to test the guard
    monkeypatch.setattr(sim.stream, "event_budget", lambda r, s: 3)
    with pytest.raises(RuntimeError, match="event budget exceeded"):
        sim._poisson_block(50.0, 1.0, 0, stream.STREAM_PI, 4, 0)


# ---------------------------------------------------------------------------
# Fixed regime paths
# ---------------------------------------------------------------------------

def test_fixed_switches_retain_noop_events():
    spec = load("bang-drift")
    switches = ([0.3, 0.7], [2, 2])
    path = one_path(spec, 8, switches=switches)
    assert np.array_equal(path.theta.times, [0.3, 0.7])
    assert np.array_equal(path.theta.marks, [2, 2])
    # a0 is index 2 for this family, and the switches to 2 keep it there
    assert np.all(path.regimes[0] == 2)
    spec_mid = load("bang-drift", a0_index=1)
    path_mid = one_path(spec_mid, 8, switches=switches)
    assert path_mid.regimes[0, 0] == 1
    assert path_mid.regimes[0, 7] == 2        # t = 0.875 > 0.7


@pytest.mark.parametrize("bad", [-1, 3, 1.5])
@pytest.mark.parametrize("mode", ["fixed", "policy"])
def test_out_of_range_regimes_are_rejected(mode, bad):
    """Start regimes and policy outputs must be integers in [0, A): a
    narrow regime buffer would store -1 as 255, and a policy's -1 would
    index the last control."""
    spec = load("bang-drift")
    regimes = np.array([bad, 0, 1, 2])
    if mode == "fixed":
        run = lambda: sim._simulate_core(
            spec, 4, 1, n_steps=8, control="fixed",
            fixed_theta=sim.CsrEvents([], [], np.zeros(5, dtype=np.int64)),
            start_regimes=regimes)
    else:
        run = lambda: sim._simulate_core(
            spec, 4, 1, n_steps=8, control="policy",
            policy=lambda k, t, x: regimes if k == 3 else np.zeros(4, int))
    with pytest.raises(ValueError, match="control grid"):
        run()


def test_regime_width_follows_the_control_grid():
    """The regime buffer is the narrowest exact width: uint8 up to 256
    controls, uint16 beyond, and it stores the top index exactly."""
    for n_controls, width in ((2, np.uint8), (256, np.uint8),
                              (257, np.uint16)):
        spec = load("bang-drift",
                    control_points=np.linspace(-1.0, 1.0, n_controls).tolist())
        top = np.full(3, n_controls - 1)
        bundle = sim._simulate_core(
            spec, 3, 1, n_steps=2, control="policy",
            policy=lambda k, t, x: top)
        assert bundle.regimes.dtype == width
        assert np.all(bundle.regimes == n_controls - 1)


def test_fixed_control_rejects_non_index_marks():
    spec = load("bang-drift")
    with pytest.raises(ValueError, match="theta"):
        one_path(spec, 8, switches=([0.5], [0.1]))


def test_event_log_validation():
    spec = load("bang-drift")
    with pytest.raises(ValueError, match="increase strictly"):
        one_path(spec, 8, switches=([0.5, 0.5], [1, 2]))
    with pytest.raises(ValueError, match="increase strictly"):
        one_path(spec, 8, switches=([0.2, 1.4], [1, 2]))
    with pytest.raises(ValueError, match="increase strictly"):
        one_path(load("jump-reward"), 8, jumps=([0.0, 0.5], [1.0, -1.0]))
    with pytest.raises(ValueError, match="control grid"):
        one_path(spec, 8, switches=([0.5], [3]))


# ---------------------------------------------------------------------------
# Bundles: reproducibility and purity
# ---------------------------------------------------------------------------

def test_bundle_bit_identical_reruns():
    spec = load("jump-reward")
    b1 = sim.simulate_bundle(spec, 64, seed=42)
    b2 = sim.simulate_bundle(spec, 64, seed=42)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.regimes, b2.regimes)
    assert np.array_equal(b1.pi.times, b2.pi.times)
    assert np.array_equal(b1.theta.marks, b2.theta.marks)


def test_bundle_path_prefix_purity():
    """Path i must not depend on how many paths were simulated."""
    spec = load("jump-reward")
    big = sim.simulate_bundle(spec, 50, seed=9)
    small = sim.simulate_bundle(spec, 7, seed=9)
    assert np.array_equal(big.states[:7], small.states)
    assert np.array_equal(big.regimes[:7], small.regimes)
    for i in range(7):
        tb, mb = path_events(big.pi, i)
        ts, ms = path_events(small.pi, i)
        assert np.array_equal(tb, ts) and np.array_equal(mb, ms)


def test_pi_theta_streams_never_coincide():
    spec = load("jump-reward")
    b = sim.simulate_bundle(spec, 400, seed=3)
    for i in range(b.n_paths):
        tp, _ = path_events(b.pi, i)
        tt, _ = path_events(b.theta, i)
        if tp.size and tt.size:
            assert not np.intersect1d(tp, tt).size


# ---------------------------------------------------------------------------
# Integrator exactness
# ---------------------------------------------------------------------------

def test_constant_drift_is_exact():
    """b=+1, sigma noise off via zero increments: X_t = x0 + t exactly."""
    spec = load("bang-drift")
    path = one_path(spec, 16, start=2, x0=[0.25])
    assert np.allclose(path.states[0, :, 0],
                       0.25 + path.time_grid, atol=1e-14)


def test_linear_decay_flow_is_exact():
    """dX = -X dt integrates to the exact exponential at grid nodes."""
    spec = load("uncontrolled-decay")
    path = one_path(spec, 8, start=0, x0=[1.0])
    assert np.allclose(path.states[0, :, 0], np.exp(-path.time_grid),
                       atol=1e-14)
    assert path.states[0, -1, 0] == pytest.approx(oracles.DECAY_VALUE_T0)


def test_mid_step_switch_integrates_drift_exactly():
    """Regime flips inside a step: occupation-split drift stays exact."""
    spec = load("bang-drift")
    # coarse grid: 0.3141 is mid-step
    path = one_path(spec, 4, start=2, switches=([0.3141], [0]), x0=[0.0])
    expected = 0.3141 * 1.0 + (1.0 - 0.3141) * (-1.0)
    assert path.states[0, -1, 0] == pytest.approx(expected, abs=1e-14)


def test_running_integral_augmentation_trapezoid():
    spec = load("lookback-integral")
    path = one_path(spec, 32, start=1, x0=[0.0])
    # X_t = t, integral = t^2/2; trapezoid on a linear path is exact
    assert path.states[0, -1, 1] == pytest.approx(0.5, abs=1e-14)


def test_adaptedness_truncated_drivers_reproduce_prefix():
    """State at t_k depends only on drivers up to t_k."""
    spec = load("jump-reward")
    bundle = sim.simulate_bundle(spec, 6, seed=21, n_steps=32)
    k = 20
    spec_k = load("jump-reward", horizon=float(bundle.time_grid[k]))
    for i in range(bundle.n_paths):
        prefix = replay(bundle, i, spec=spec_k, n_steps=k)
        assert np.allclose(prefix.states[0, :, 0], bundle.states[i, :k + 1, 0],
                           atol=1e-12)


def test_compensated_jumps_are_mean_zero():
    """State-independent jumps: E[X_T] - x0 = 0 within 3 SE."""
    spec = load("jump-reward")
    bundle = sim.simulate_bundle(spec, 40_000, seed=17)
    xt = bundle.terminal_states()[bundle.included(), 0]
    se = xt.std() / math.sqrt(xt.size)
    assert abs(xt.mean()) < 3.0 * se
    assert se < 0.01


def test_uniform_marks_compensator():
    """Nonzero-mean marks force a real compensator; mean must still vanish."""
    m2 = oracles.second_moment_uniform(0.0, 1.0, 2.0)
    spec = load("jump-reward", jump={
        "total_rate": 2.0, "mark_sampler_id": "uniform-interval",
        "mark_parameters": {"low": 0.0, "high": 1.0},
        "rho_envelope": 1.0, "second_moment": m2})
    bundle = sim.simulate_bundle(spec, 40_000, seed=23)
    xt = bundle.terminal_states()[bundle.included(), 0]
    se = xt.std() / math.sqrt(xt.size)
    assert abs(xt.mean()) < 3.0 * se


def test_brownian_martingale_mean():
    """Driftless regimes keep E[X_T] = x0 for the diffusion families."""
    spec = load("ou-switch")
    bundle = sim.simulate_bundle(spec, 20_000, seed=29)
    xt = bundle.terminal_states()[bundle.included(), 0]
    target = oracles.ou_mean(0.5, 0.0, 1.0, 1.0)
    # regimes average out: compare against the mixture mean instead of a
    # single target by checking the OU mean under the mid regime band
    assert xt.mean() == pytest.approx(target, abs=0.02)


def test_overflow_flag_and_exclude():
    spec = load("ou-switch",
                parameters={"reversion": -30.0},
                regularity={"lipschitz_l": 30.0},
                x0=[1e9])
    with pytest.warns(RuntimeWarning, match="overflowed"):
        bundle = sim.simulate_bundle(spec, 8, seed=1, n_steps=64)
    assert bundle.n_excluded == 8
    assert np.isfinite(bundle.states).all()
    with pytest.raises(ValueError, match="no paths"):
        audits.empirical_moment_check(bundle)


def test_empirical_moment_check_reports():
    spec = load("bang-drift", regularity={"moment_cp": 8.0})
    bundle = sim.simulate_bundle(spec, 2_000, seed=2)
    rep = audits.empirical_moment_check(bundle)
    assert rep["pass"] is True
    assert rep["observed"] <= rep["bound"]
    spec2 = load("bang-drift")
    rep2 = audits.empirical_moment_check(
        sim.simulate_bundle(spec2, 500, seed=2))
    assert rep2["pass"] is None and rep2["ratio"] > 0


def test_running_reward_accumulates_f():
    """f = a: the reward integral equals the signed occupation time."""
    spec = load("jump-reward")
    bundle = sim.simulate_bundle(spec, 200, seed=37, n_steps=32)
    a_vals = spec.control.points
    expected = np.zeros(200)
    for i in range(200):
        times, marks = path_events(bundle.theta, i)
        starts = [0.0, *times]
        ends = [*times, spec.horizon]
        regimes = [bundle.regimes[i, 0], *marks]
        expected[i] = sum((e - s) * a_vals[int(a)]
                          for s, e, a in zip(starts, ends, regimes))
    assert np.allclose(bundle.running_reward, expected, atol=1e-12)


def test_event_steps_own_the_left_open_step():
    """An event at t in (t_k, t_{k+1}] belongs to step k."""
    grid = np.linspace(0.0, 1.0, 9)
    times = np.array([1e-12, grid[1], grid[1] + 1e-12, grid[5], 1.0])
    np.testing.assert_array_equal(sim.event_steps(grid, times),
                                  [0, 0, 1, 4, 7])


def test_regime_frequencies_match_lambda0():
    """Switch marks follow the normalized intensity weights."""
    spec = load("bang-drift", lambda0_weights=[0.5, 0.3, 0.2])
    bundle = sim.simulate_bundle(spec, 4_000, seed=41)
    marks = bundle.theta.marks.astype(int)
    freq = np.bincount(marks, minlength=3) / marks.size
    se = np.sqrt(np.array([0.5, 0.3, 0.2]) * 0.7 / marks.size)
    assert np.all(np.abs(freq - [0.5, 0.3, 0.2]) < 4 * se + 0.01)


def test_write_bundle_csv_roundtrip(tmp_path):
    spec = load("lookback-integral")
    bundle = sim.simulate_bundle(spec, 3, seed=4, n_steps=8)
    csv_path = tmp_path / "paths.csv"
    side = tmp_path / "paths.json"
    sim.write_bundle_csv(bundle, str(csv_path), str(side))
    text = csv_path.read_bytes()
    assert text.count(b"\r\n") == 3 * 9 + 1  # data rows + header
    header = text.split(b"\r\n")[0].decode()
    assert header == "path,t,x0,running,regime,excluded"
    import json
    meta = json.loads(side.read_text())
    assert meta["schema_version"] == sim.CSV_SCHEMA
    assert meta["n_paths"] == 3


def _naive_csv(header, columns) -> bytes:
    """The writer's contract, one cell at a time."""
    lines = [",".join(header)]
    lines += [",".join(repr(col[i].item()) for col in columns)
              for i in range(len(columns[0]))]
    return ("\r\n".join(lines) + "\r\n").encode()


_FEW_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300,
               0.1 + 0.2, 0.015625)


@st.composite
def _csv_columns(draw):
    n_rows = draw(st.integers(0, 40))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["few", "many", "int"]),
                              min_size=1, max_size=4)):
        if kind == "int":
            values = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                   min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=np.int64))
            continue
        elem = (st.sampled_from(_FEW_FLOATS) if kind == "few"
                else st.floats(allow_nan=True, allow_infinity=True))
        values = draw(st.lists(elem, min_size=n_rows, max_size=n_rows))
        # a strided view, as the writers pass rows of transposed arrays
        columns.append(np.repeat(np.array(values, dtype=float), 2)[::2])
    return columns


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns=_csv_columns(),
       chunk_rows=st.sampled_from([5, sim.CSV_CHUNK_ROWS]))
def test_csv_writer_matches_a_per_cell_repr_writer(tmp_path_factory,
                                                   columns, chunk_rows):
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "cols.csv"
    with mock.patch.object(sim, "CSV_CHUNK_ROWS", chunk_rows):
        sim.write_csv_columns(path, header, columns)
    assert path.read_bytes() == _naive_csv(header, columns)


def test_csv_writer_text_does_not_depend_on_integer_width(tmp_path):
    values = np.array([0, 1, 2, 255, 7, 0])
    texts = []
    for dtype in (np.uint8, np.uint16, np.int64):
        path = tmp_path / f"{np.dtype(dtype).name}.csv"
        sim.write_csv_columns(path, ["regime"], [values.astype(dtype)])
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2] == b"regime\r\n" + b"".join(
        b"%d\r\n" % v for v in values)


def test_csv_writer_rejects_a_header_of_another_width(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="header"):
        sim.write_csv_columns(path, ["a", "b"],
                              [np.zeros(2), np.ones(2), np.arange(2)])
    assert not path.exists()


def test_csv_writer_rejects_an_empty_column_list(tmp_path):
    with pytest.raises(ValueError, match="at least one column"):
        sim.write_csv_columns(tmp_path / "none.csv", [], [])


# ---------------------------------------------------------------------------
# Golden bundle hashes
# ---------------------------------------------------------------------------

GOLDEN_PATHS, GOLDEN_STEPS, GOLDEN_SEED = 400, 16, 5
GOLDEN_MODES = ("randomized", "tilted-const", "tilted-feedback", "policy",
                "fixed")
#: extra specs beyond the registry defaults: a Gaussian initial law (the
#: STREAM_INIT draw) and an overflowing system (the frozen/excluded rows)
GOLDEN_EXTRA = {
    "gaussian-init": ("jump-reward", {"initial_law": {
        "kind": "gaussian", "mean": [0.1], "cov_diag": [0.25]}}),
    "overflow": ("ou-switch", {"parameters": {"reversion": -60.0},
                               "regularity": {"lipschitz_l": 60.0},
                               "initial_law": {"kind": "gaussian",
                                               "mean": [0.0],
                                               "cov_diag": [400.0]}}),
}


def _golden_feedback_tilt(spec):
    """An argmax tilt on a fixed synthetic lattice over every coordinate."""
    time_grid = np.linspace(0.0, spec.horizon, GOLDEN_STEPS + 1)
    axes = [np.linspace(-1.5, 1.5, 7) for _ in range(spec.total_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    a = np.arange(spec.control.size)
    values = np.cos(time_grid.reshape(-1, *(1,) * len(axes), 1)
                    + 2.0 * sum(mesh)[None, ..., None] * (a - 0.5))
    return girsanov.IntensityControl.argmax_tilt(time_grid, axes, values,
                                                 strength=3.0)


def _golden_policy(n_controls):
    def policy(k, t, states):
        cell = np.floor(np.nan_to_num(states[:, 0], posinf=0.0, neginf=0.0)
                        * 4.0)
        return (np.abs(cell).astype(np.int64) + k) % n_controls
    return policy


def _golden_bundle(spec, mode, n_paths):
    """The golden bundle of ``mode`` and the increments it integrated."""
    args = (spec, n_paths, GOLDEN_SEED)
    if mode == "fixed":
        ref = sim.simulate_bundle(spec, n_paths, GOLDEN_SEED + 1,
                                  n_steps=GOLDEN_STEPS)
        increments = oracles.brownian_increments(ref)
        return sim._simulate_core(
            *args, n_steps=GOLDEN_STEPS, control="fixed",
            fixed_theta=ref.theta,
            start_regimes=(np.arange(n_paths) % spec.control.size),
            brownian=increments, pi_events=ref.pi), increments
    if mode == "randomized":
        bundle = sim.simulate_bundle(*args, n_steps=GOLDEN_STEPS)
    elif mode.startswith("tilted"):
        nu = (girsanov.IntensityControl.const(2.0) if mode == "tilted-const"
              else _golden_feedback_tilt(spec))
        bundle = girsanov.simulate_tilted_theta(
            nu, spec, GOLDEN_SEED, n_paths, n_steps=GOLDEN_STEPS)
    else:
        bundle = sim._simulate_core(*args, n_steps=GOLDEN_STEPS,
                                    control="policy",
                                    policy=_golden_policy(spec.control.size))
    return bundle, oracles.brownian_increments(bundle)


def _bundle_hash(bundle, increments) -> str:
    """The regime path is hashed widened to int64, so a digest records its
    values and not the width it is stored at.  The bundle keeps no
    increments, so the ones it was integrated on are passed in."""
    h = hashlib.sha256()
    for arr in (bundle.states, bundle.regimes.astype(np.int64), increments,
                bundle.running_reward, bundle.excluded,
                bundle.theta.times, bundle.theta.marks, bundle.theta.indptr,
                bundle.pi.times, bundle.pi.marks, bundle.pi.indptr):
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


#: sha256 prefixes recorded before the step loop was restructured
GOLDEN_HASHES = {
    "uncontrolled-decay/randomized": "f6bd53e8407a822f",
    "uncontrolled-decay/tilted-const": "0b4fc95e2fdd7f76",
    "uncontrolled-decay/tilted-feedback": "cb1e82db0176dab9",
    "uncontrolled-decay/policy": "f12609197cdf6899",
    "uncontrolled-decay/fixed": "3949cea12d92dfe9",
    "bang-drift/randomized": "a73c2796371a8302",
    "bang-drift/tilted-const": "0678995cdcb3b77a",
    "bang-drift/tilted-feedback": "d4057b6307f9435d",
    "bang-drift/policy": "1923833c2143f602",
    "bang-drift/fixed": "826b4efba6e89760",
    "jump-reward/randomized": "e3489de39d2b5194",
    "jump-reward/tilted-const": "0479699fc1a60d45",
    "jump-reward/tilted-feedback": "ed4b2153423145ff",
    "jump-reward/policy": "5ff9ac687f76c92a",
    "jump-reward/fixed": "cd579d8749d50119",
    "ou-switch/randomized": "7191ca8c579ce8cd",
    "ou-switch/tilted-const": "2ecfe3381edcb528",
    "ou-switch/tilted-feedback": "45432cece7ed3fd6",
    "ou-switch/policy": "355d6eb278b9899e",
    "ou-switch/fixed": "711c99101cb251ca",
    "lookback-integral/randomized": "d0a42170f790d990",
    "lookback-integral/tilted-const": "4c31d987a661a0c7",
    "lookback-integral/tilted-feedback": "24c0f106d9608a62",
    "lookback-integral/policy": "dcb57a2ba76184ec",
    "lookback-integral/fixed": "d93dddc789f116b1",
    "gaussian-init/randomized": "e64ac8cff0e1dff2",
    "gaussian-init/tilted-const": "8d7c9b25fffcb71f",
    "gaussian-init/tilted-feedback": "a14628fe565021b8",
    "gaussian-init/policy": "394e2f4bf5530824",
    "gaussian-init/fixed": "180a26f10036c60f",
    "overflow/randomized": "bfc868b0291cad92",
    "overflow/tilted-const": "ad5b72aed98a4896",
    "overflow/tilted-feedback": "7e27b86cded64ec9",
    "overflow/policy": "fca755b3b488ab48",
    "overflow/fixed": "bdf3f46b48e1ad7c",
}


def _golden_cases():
    for family in problem.FAMILIES:
        for mode in GOLDEN_MODES:
            yield f"{family}/{mode}", family, {}, mode
    for name, (family, over) in GOLDEN_EXTRA.items():
        for mode in GOLDEN_MODES:
            yield f"{name}/{mode}", family, over, mode


@pytest.mark.filterwarnings("ignore:.*overflowed:RuntimeWarning")
def test_bundles_match_golden_hashes():
    """Every simulation mode on every family reproduces recorded bytes:
    states, regimes, increments, rewards, exclusions and both event
    tables.  A refactor of the integrator must leave these unchanged."""
    got, widths = {}, {}
    for key, family, over, mode in _golden_cases():
        spec = load(family, **over)
        bundle, increments = _golden_bundle(spec, mode, GOLDEN_PATHS)
        got[key] = _bundle_hash(bundle, increments)
        widths[key] = (bundle.regimes.dtype,
                       np.min_scalar_type(spec.control.size - 1))
    assert got == GOLDEN_HASHES
    assert all(have == want for have, want in widths.values()), widths


def _golden_digests(n_paths) -> dict:
    return {key: _bundle_hash(*_golden_bundle(load(family, **over), mode,
                                              n_paths))
            for key, family, over, mode in _golden_cases()}


@pytest.mark.filterwarnings("ignore:.*overflowed:RuntimeWarning")
@pytest.mark.parametrize("block", [7, 64])
def test_golden_hashes_hold_at_any_path_block(block, monkeypatch):
    """Each path block draws its own rows of every stream and merges and
    steps its own events, so the block size changes no byte: 400 paths
    run as 57 blocks of 7 and one of 1, or 6 of 64 and one of 16."""
    monkeypatch.setattr(sim, "SIM_BLOCK_PATHS", block)
    assert _golden_digests(GOLDEN_PATHS) == GOLDEN_HASHES


@pytest.mark.filterwarnings("ignore:.*overflowed:RuntimeWarning")
def test_one_path_blocks_rebuild_every_golden_bundle(monkeypatch):
    """Blocks of one path give the one-block bundle in every golden case.
    On 24 paths: the 400-path cases take about 40 s at one path a block."""
    whole = _golden_digests(24)
    monkeypatch.setattr(sim, "SIM_BLOCK_PATHS", 1)
    assert _golden_digests(24) == whole


@pytest.mark.parametrize("family", problem.FAMILIES)
def test_regenerated_increments_replay_drawn_bundles_bitwise(family):
    """A bundle keeps no Brownian increments; the ones regenerated from its
    stream, fed back with its own events, reproduce it bit for bit."""
    spec = load(family)
    args = (spec, GOLDEN_PATHS, GOLDEN_SEED)
    for mode in ("randomized", "tilted-const", "tilted-feedback", "policy"):
        bundle, increments = _golden_bundle(spec, mode, GOLDEN_PATHS)
        if mode == "policy":
            replayed = sim._simulate_core(
                *args, n_steps=GOLDEN_STEPS, control="policy",
                policy=_golden_policy(spec.control.size),
                brownian=increments, pi_events=bundle.pi)
        else:
            replayed = sim._simulate_core(
                *args, n_steps=GOLDEN_STEPS, control="fixed",
                fixed_theta=bundle.theta, start_regimes=bundle.regimes[:, 0],
                brownian=increments, pi_events=bundle.pi)
        for name in ("states", "regimes", "running_reward", "excluded"):
            got, want = getattr(replayed, name), getattr(bundle, name)
            assert got.dtype == want.dtype, (mode, name)
            assert got.tobytes() == want.tobytes(), (mode, name)
