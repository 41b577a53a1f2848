"""Independent oracles for the test suite.

Every expected value used by the tests is either trivial arithmetic or is
computed here by a route that shares no code with the package: closed forms
derived by hand, scipy quadrature, and a plain RK4 ODE integrator.  The
frozen constants below are asserted against their recomputation in
test_oracles.py, so they cannot drift silently.  Two sections use the
package: ``brownian_increments`` regenerates a bundle's noise from the
package's random stream, so that replay tests can feed it back, and
``sampled_dp_field`` / ``exact_residual`` put oracle surfaces into the
package's lattice types, so that tests can hand them to the residual
operator.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from jumpctrl import dp, hjb, stream


# ---------------------------------------------------------------------------
# Frozen expected values (recomputed and asserted in test_oracles.py).
# ---------------------------------------------------------------------------

# Linear decay dX = -X dt, X_0 = 1: value of g(x)=x at time 0 over [0,1].
DECAY_VALUE_T0 = math.exp(-1.0)

# Drift chosen from {-1,0,+1}, g(x)=x, T=1, x0=0: best constant drift +1.
BANG_VALUE_T0 = 1.0

# Controlled pure-jump family: dX = a dN-compensated with marks +-1/2 at
# rate 2, running reward f=a, terminal g=-x^2, T=1, x0=0.
JUMP_REWARD_SECOND_MOMENT = 0.5   # rate * E[z^2] = 2 * 1/4
JUMP_REWARD_VALUE_T0 = 0.5        # max_a (a - a^2 M) * T = 1 - 0.5

# Running-integral family: dX = a dt + sigma dW, g = integral of X,
# x0 = 0, T = 1: best constant drift +1 gives T^2/2.
LOOKBACK_VALUE_T0 = 0.5

# Tilt-weight closed forms on [0,1] with total switch intensity 1:
# constant tilt c with no switch events, and with exactly one event.
KAPPA_CONST2_NO_EVENTS = math.exp(-1.0)
KAPPA_CONST2_ONE_EVENT = 2.0 * math.exp(-1.0)

# Band for identities that hold exactly up to rounding.
TOL_EXACT = 1e-10


# ---------------------------------------------------------------------------
# Declared constants of the paper's standing hypotheses, per registry family
# at its defaults (checked empirically by tests/audits.py): b, sigma and
# gamma / rho_envelope are lipschitz_l-Lipschitz in x; |f| and |g| are at
# most lipschitz_l * (1 + |x|^growth_pbar); E[sup_t |X_t|^2] is at most
# moment_cp * (1 + |x0|^2), where a constant is declared.
# ---------------------------------------------------------------------------

HYPOTHESES = {
    "uncontrolled-decay": {"lipschitz_l": 1.0, "growth_pbar": 1.0,
                           "rho_envelope": 0.0, "moment_cp": None},
    "bang-drift": {"lipschitz_l": 1.0, "growth_pbar": 1.0,
                   "rho_envelope": 0.0, "moment_cp": 8.0},
    "jump-reward": {"lipschitz_l": 1.0, "growth_pbar": 2.0,
                    "rho_envelope": 0.5, "moment_cp": None},
    "ou-switch": {"lipschitz_l": 1.0, "growth_pbar": 2.0,
                  "rho_envelope": 0.0, "moment_cp": None},
    "lookback-integral": {"lipschitz_l": 1.0, "growth_pbar": 1.0,
                          "rho_envelope": 0.0, "moment_cp": None},
}


# ---------------------------------------------------------------------------
# Recomputation routes (independent of src/jumpctrl).
# ---------------------------------------------------------------------------

def decay_value(x0: float, t: float, horizon: float) -> float:
    """Value of E[X_T | X_t = x0] for dX = -X dt via the explicit flow."""
    return x0 * math.exp(-(horizon - t))


def bang_value(x0: float, t: float, horizon: float) -> float:
    """sup over drift processes valued in {-1,0,1} of E[X_T], X_t = x0.

    E[X_T] = x0 + E[int a_s ds] <= x0 + (T - t), attained by a = +1;
    the Brownian part has mean zero.
    """
    return x0 + (horizon - t)


def second_moment_two_point(z_hi: float, z_lo: float, p_hi: float,
                            rate: float) -> float:
    """rate * E[z^2] for a two-atom mark law."""
    return rate * (p_hi * z_hi ** 2 + (1.0 - p_hi) * z_lo ** 2)


def second_moment_uniform(lo: float, hi: float, rate: float) -> float:
    """rate * E[z^2] for uniform marks, via scipy quadrature."""
    val, _ = integrate.quad(lambda z: z * z / (hi - lo), lo, hi)
    return rate * val


def second_moment_exponential(scale: float, rate: float) -> float:
    """rate * E[z^2] for Exp(scale) marks, via scipy quadrature."""
    val, _ = integrate.quad(
        lambda z: z * z * math.exp(-z / scale) / scale, 0.0, np.inf)
    return rate * val


def _rk4(deriv, y0: float, t0: float, t1: float, n: int) -> float:
    """Classic fixed-step RK4 for a scalar ODE, written out by hand."""
    h = (t1 - t0) / n
    t, y = t0, y0
    for _ in range(n):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
    return y


def jump_reward_value(x0: float, horizon: float, controls, rate: float,
                      z_hi: float = 0.5, z_lo: float = -0.5,
                      p_hi: float = 0.5) -> float:
    """Optimal value of E[int a dt - X_T^2] for dX = a dM (compensated jumps).

    For any adapted control the compensated sum is a martingale with
    d E[X^2] = a^2 * M dt where M = rate * E[z^2], so the gain of a constant
    control a over [0,T] from x0 is a*T - x0^2 - a^2*M*T and the optimum over
    adapted controls is attained at the constant argmax (the running cost of
    variance is state-independent).  The second moment is integrated as an
    ODE with RK4 rather than multiplied out, so this route stays independent
    of the package's closed forms.
    """
    m2 = rate * (p_hi * z_hi ** 2 + (1.0 - p_hi) * z_lo ** 2)
    best = -np.inf
    for a in controls:
        second = _rk4(lambda t, y: a * a * m2, x0 * x0, 0.0, horizon, 256)
        best = max(best, a * horizon - second)
    return best


def lookback_integral_value(x0: float, z0: float, horizon: float,
                            controls) -> float:
    """sup_a E[z0 + int_0^T X_s ds] for dX = a dt + sigma dW from x0.

    E[X_s] = x0 + a*s, so the integral has mean x0*T + a*T^2/2; integrated
    numerically per control to stay independent of the algebra.
    """
    best = -np.inf
    for a in controls:
        mean_int, _ = integrate.quad(lambda s: x0 + a * s, 0.0, horizon)
        best = max(best, z0 + mean_int)
    return best


# ---------------------------------------------------------------------------
# Exact derivatives of the closed-form value functions.
# ---------------------------------------------------------------------------
#
# Each surface is a dict of callables (t, x) on the core state x:
# ``value``, its time derivative ``dt``, ``grad`` (d,) and ``hess`` (d, d).

def decay_surface(horizon: float) -> dict:
    """v(t, x) = e^{-(T-t)} x for dX = -X dt and g(x) = x: the flow is
    linear, so the reward is carried back along it."""
    return {
        "value": lambda t, x: math.exp(-(horizon - t)) * x[0],
        "dt": lambda t, x: math.exp(-(horizon - t)) * x[0],
        "grad": lambda t, x: np.array([math.exp(-(horizon - t))]),
        "hess": lambda t, x: np.zeros((1, 1)),
    }


def bang_surface(horizon: float, amax: float) -> dict:
    """v(t, x) = x + amax (T - t) for dX = a dt + sigma dW and g(x) = x:
    the largest drift ``amax`` is optimal at every state (see
    :func:`bang_value`), and v is linear in x, so sigma drops out."""
    return {
        "value": lambda t, x: x[0] + amax * (horizon - t),
        "dt": lambda t, x: -amax,
        "grad": lambda t, x: np.ones(1),
        "hess": lambda t, x: np.zeros((1, 1)),
    }


def jump_reward_surface(horizon: float, controls, rate: float,
                        z_hi: float = 0.5, z_lo: float = -0.5,
                        p_hi: float = 0.5) -> dict:
    """v(t, x) = -x^2 + max_a (a - a^2 M) (T - t) for the controlled pure
    jump family, M = rate E[z^2] (see :func:`jump_reward_value`)."""
    m2 = second_moment_two_point(z_hi, z_lo, p_hi, rate)
    run = max(a - a * a * m2 for a in controls)
    return {
        "value": lambda t, x: -x[0] ** 2 + run * (horizon - t),
        "dt": lambda t, x: -run,
        "grad": lambda t, x: np.array([-2.0 * x[0]]),
        "hess": lambda t, x: np.array([[-2.0]]),
    }


def registry_surface(spec) -> dict:
    """The surface of a registry family with its default parameters:
    uncontrolled-decay, bang-drift or jump-reward (read off ``spec``)."""
    family = spec.coefficients.family
    if family == "uncontrolled-decay":
        return decay_surface(spec.horizon)
    if family == "bang-drift":
        return bang_surface(spec.horizon, float(max(spec.control.points)))
    if family == "jump-reward":
        return jump_reward_surface(spec.horizon, spec.control.points,
                                   spec.jump_measure.total_rate)
    raise ValueError(f"no oracle surface for {family!r}")


def constant_tilt_weight(c: float, total_rate: float, horizon: float,
                         n_events: int) -> float:
    """Closed-form tilt weight for a constant intensity multiplier c."""
    return math.exp((1.0 - c) * total_rate * horizon) * c ** n_events


def tilt_weight(table, cell_times, axes, lambda0, time_grid, states,
                start: int, times, marks) -> float:
    """Doleans-Dade weight of one path under a feedback tilt table.

    ``table`` is nu on (time cell, *state cells, from, to); ``states``
    the path's (N+1, D) grid states and ``times``/``marks`` its switches
    from regime ``start``.  A plain loop over the path's regime segments,
    split at the grid times: on step k the tilt is read at the left node,
    in the time cell of t_k (a cell holds its left end) and at the nearest
    node of each axis, ties to the lower node.
    """
    def rate(cell, a):
        return sum((1.0 - table[cell + (a, b)]) * lam
                   for b, lam in enumerate(lambda0))

    log_w, regime, j = 0.0, int(start), 0
    for k in range(len(time_grid) - 1):
        t_lo, t_hi = float(time_grid[k]), float(time_grid[k + 1])
        k_cell = sum(1 for c in cell_times[1:-1] if c <= t_lo)
        cell = (k_cell, *(int(np.argmin(np.abs(np.asarray(ax) - x)))
                          for ax, x in zip(axes, states[k])))
        s = t_lo
        while j < len(times) and times[j] <= t_hi:
            log_w += (times[j] - s) * rate(cell, regime)
            log_w += math.log(table[cell + (regime, int(marks[j]))])
            regime, s = int(marks[j]), float(times[j])
            j += 1
        log_w += (t_hi - s) * rate(cell, regime)
    return math.exp(log_w)


def poisson_mean_var(rate: float, horizon: float) -> tuple[float, float]:
    """Mean and variance of the event count on [0, horizon]."""
    return rate * horizon, rate * horizon


def normal_quadratic_expectation(mean: float, var: float,
                                 a: float, b: float, c: float) -> float:
    """E[a*X^2 + b*X + c] for X ~ N(mean, var), by scipy quadrature."""
    sd = math.sqrt(var)

    def dens(x):
        return math.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    val, _ = integrate.quad(lambda x: (a * x * x + b * x + c) * dens(x),
                            mean - 12 * sd, mean + 12 * sd)
    return val


def ou_mean(x0: float, target: float, reversion: float, t: float) -> float:
    """Mean of dX = reversion*(target - X) dt at time t, explicit flow."""
    return target + (x0 - target) * math.exp(-reversion * t)


def ou_second_moment(x0: float, target: float, reversion: float,
                     sigma: float, t: float) -> float:
    """E[X_t^2] for the linear mean-reverting diffusion, via RK4 on the
    moment system dm1 = r*(target-m1), dm2 = 2r*(target*m1 - m2) + sigma^2."""
    def deriv(_t, y):
        m1, m2 = y
        return np.array([reversion * (target - m1),
                         2.0 * reversion * (target * m1 - m2) + sigma * sigma])

    h = t / 512
    y = np.array([x0, x0 * x0])
    s = 0.0
    for _ in range(512):
        k1 = deriv(s, y)
        k2 = deriv(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
    return float(y[1])


def _padded_envelope(x0: float, curves) -> tuple[float, float]:
    """Envelope of (mean, sd) curves at +/- 5 sd, padded as the default
    lattice is, by max(0.5, 0.05 |x0|)."""
    pad = max(0.5, 0.05 * abs(x0))
    lo = min(float(np.min(m - 5.0 * s)) for m, s in curves)
    hi = max(float(np.max(m + 5.0 * s)) for m, s in curves)
    return lo - pad, hi + pad


def bang_drift_envelope(x0: float, v0: float, horizon: float, controls,
                        sigma: float, n_steps: int) -> tuple[float, float]:
    """Default-lattice bounds for dX = a dt + sigma dW from N(x0, v0): the
    envelope over the controls and the n_steps grid of
    x0 + a t +/- 5 sqrt(v0 + sigma^2 t)."""
    t = horizon * np.arange(n_steps + 1) / n_steps
    return _padded_envelope(x0, [(x0 + a * t, np.sqrt(v0 + sigma ** 2 * t))
                                 for a in controls])


def jump_reward_envelope(x0: float, v0: float, horizon: float, controls,
                         rate: float, mark: float, n_steps: int,
                         max_jumps: int = 4) -> tuple[float, float]:
    """Default-lattice bounds for dX = a dM, M compensated jumps at ``rate``
    with marks +/- ``mark`` at equal odds, from N(x0, v0): the envelope of
    x0 +/- 5 sqrt(v0 + a^2 rate mark^2 t).

    Per step the lattice kernel counts at most ``max_jumps`` jumps, from the
    Poisson law cut there and renormalized, so the jump rate here is that
    law's mean per unit time (it falls short of ``rate`` by about 1e-5 at
    rate 2 and dt 1/16).
    """
    lam = rate * horizon / n_steps
    pk = [math.exp(-lam) * lam ** k / math.factorial(k)
          for k in range(max_jumps + 1)]
    kept_per_step = math.fsum(k * p for k, p in enumerate(pk)) / math.fsum(pk)
    kept_rate = kept_per_step * n_steps / horizon
    t = horizon * np.arange(n_steps + 1) / n_steps
    return _padded_envelope(
        x0, [(np.full(t.size, x0), np.sqrt(v0 + a * a * kept_rate * mark ** 2
                                           * t)) for a in controls])


# ---------------------------------------------------------------------------
# Replay inputs.
# ---------------------------------------------------------------------------

def brownian_increments(bundle) -> np.ndarray:
    """The (M, N, m) Brownian increments a drawn bundle was integrated on.

    A bundle does not keep them.  They are regenerated from its stream:
    the (seed, ``STREAM_BROWNIAN``) normal block of N m columns, times
    sqrt(horizon / N).  Row i of that block is a pure function of (seed, i,
    N m), so this is bitwise what the integrator read, for randomized,
    tilted and policy bundles alike.  A bundle replayed from given
    increments (fixed mode) was integrated on those instead.
    """
    spec, n_paths, n_steps = bundle.spec, bundle.n_paths, bundle.n_steps
    raw = stream.normal_block(bundle.seed, stream.STREAM_BROWNIAN, n_paths,
                              n_steps * spec.brownian_dim, 0)
    return (raw.reshape(n_paths, n_steps, spec.brownian_dim)
            * np.sqrt(spec.horizon / n_steps))


# ---------------------------------------------------------------------------
# Closed forms on the package's lattice types.
# ---------------------------------------------------------------------------

def sampled_dp_field(value, time_grid, grid) -> dp.DpField:
    """``value(t, x)`` sampled at every node of ``grid`` and every time of
    ``time_grid``, as a field the residual operator differences like a
    solved one (its argmax is all zeros)."""
    nodes = grid.nodes()
    values = np.array([[value(float(t), p) for p in nodes]
                       for t in time_grid])
    return dp.DpField(
        time_grid=np.asarray(time_grid, dtype=float), grid=grid,
        values=values.reshape(len(time_grid), *grid.shape),
        argmax=np.zeros((len(time_grid) - 1, *grid.shape), dtype=np.int64),
        metadata={})


def exact_residual(spec, surface, time_grid, grid):
    """The residual operator on a surface's exact derivatives, evaluated
    at the nodes of ``grid`` and the left times of ``time_grid``; the jump
    term reads the surface itself."""
    nodes = grid.nodes()
    k_steps, ndim = len(time_grid) - 1, grid.ndim
    left = [float(t) for t in time_grid[:-1]]

    def at_nodes(key, t_list):
        return np.array([[surface[key](t, p) for p in nodes]
                         for t in t_list])

    def value_at(k, points):
        return np.array([surface["value"](left[k], p) for p in points]), 0

    shape = (k_steps, *grid.shape)
    return hjb.residual_surface(
        spec, time_grid, grid,
        at_nodes("value", [float(time_grid[-1])]).reshape(grid.shape),
        at_nodes("dt", left).reshape(shape),
        at_nodes("grad", left).reshape(*shape, ndim),
        at_nodes("hess", left).reshape(*shape, ndim, ndim), value_at)


# ---------------------------------------------------------------------------
# Regression Monte Carlo ladder, full value stacks.
# ---------------------------------------------------------------------------

def _lsmc_fit(phi, y, ridge):
    """Least squares of each row of ``y`` on ``phi`` through one SVD,
    ``ridge`` on the normal equations when the SVD loses rank."""
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    cutoff = np.finfo(float).eps * max(phi.shape) * s[0]
    if np.count_nonzero(s > cutoff) < phi.shape[1]:
        gram = phi.T @ phi + ridge * np.eye(phi.shape[1])
        return np.array([np.linalg.solve(gram, phi.T @ y_l)
                         for y_l in y]), True
    return np.array([vt.T @ ((u.T @ y_l) / s) for y_l in y]), False


def lsmc_ladder_full_stack(spec, levels, bundle, degree: int = 2,
                           ridge: float = 1e-8) -> list:
    """The penalized regression recursion with every value at every control.

    Each backward step fits the next value, read at the path's current
    regime, on the state monomials per regime (a regime with no rows keeps
    the previous step's fit, or a fit on all rows, and gets no weight in
    the advantage), builds the (levels, controls, paths) stacks of the
    continuation and of the advantage sum_{b != a} (u_b - u_a)^+ w_b over
    every ordered pair (a, b), and only then reads the held regime's
    entries.  Written against the bundle's arrays alone; returns one dict
    of quintuple fields per level.
    """
    keep = ~bundle.excluded
    m_used = int(keep.sum())
    states = np.ascontiguousarray(bundle.states[keep].transpose(1, 0, 2))
    # int64, as the index arithmetic of ``at_regime`` needs
    regimes = np.ascontiguousarray(bundle.regimes[keep].T, dtype=np.int64)
    time_grid = bundle.time_grid
    n_steps = time_grid.size - 1
    dt = float(time_grid[1] - time_grid[0])
    weights = spec.randomization.lambda0_weights
    n_controls, n_levels = spec.control.size, len(levels)
    level_dt = np.array(levels) * dt
    rows = np.arange(m_used)

    def at_regime(v, regime):
        return np.take(v.reshape(n_levels, -1), regime * m_used + rows,
                       axis=1)

    g_terminal = spec.coefficients.g(states[n_steps])
    v_next = np.tile(g_terminal, (n_levels, n_controls, 1))
    tilde = np.empty_like(v_next)
    s_int = np.zeros((n_levels, m_used))
    ridge_events, carried, betas_prev = [], [], [None] * n_controls
    for k in range(n_steps - 1, -1, -1):
        x_k, i_k = states[k], regimes[k]
        cols = [np.ones(m_used)]
        for deg in range(1, degree + 1):
            for combo in itertools.combinations_with_replacement(
                    range(x_k.shape[1]), deg):
                col = np.ones(m_used)
                for j in combo:
                    col = col * x_k[:, j]
                cols.append(col)
        phi = np.column_stack(cols)
        target = at_regime(v_next, i_k)
        betas, pooled, present = [None] * n_controls, None, []
        for a in range(n_controls):
            mask = i_k == a
            present.append(bool(mask.any()))
            if present[a]:
                betas[a], used_ridge = _lsmc_fit(
                    phi[mask], [y_l[mask] for y_l in target], ridge)
                if used_ridge:
                    ridge_events.append((k, a))
            else:
                if betas_prev[a] is None and pooled is None:
                    pooled, _ = _lsmc_fit(phi, target, ridge)
                betas[a] = pooled if betas_prev[a] is None else betas_prev[a]
                carried.append((k, a))
            f_a = spec.coefficients.f(float(time_grid[k]),
                                      x_k[:, :spec.dim],
                                      float(spec.control.points[a]))
            for l in range(n_levels):
                tilde[l, a] = phi @ betas[a][l] + f_a * dt
        w = weights * np.array(present)
        adv = np.zeros_like(tilde)
        for a, b in itertools.permutations(range(n_controls), 2):
            if w[b] != 0.0:
                adv[:, a] += np.maximum(tilde[:, b] - tilde[:, a], 0.0) * w[b]
        v_next = level_dt[:, None, None] * adv + tilde
        r_pos = at_regime(adv, i_k)
        s_int += dt * r_pos
        betas_prev = betas

    y0_se = target.std(axis=1, ddof=1) / math.sqrt(m_used)
    y0 = at_regime(v_next, regimes[0]).mean(axis=1)
    return [dict(
        level_n=n, time_grid=time_grid, y0=float(y0[l]),
        y0_se=float(y0_se[l]), n_paths=m_used,
        n_excluded=int(bundle.excluded.sum()), constraint_integral=s_int[l],
        ridge_events=tuple(ridge_events),
        carried_cells=tuple(carried),
        metadata={"solver": "lsmc", "level_n": n, "dt": dt,
                  "degree": degree,
                  "stability": n * dt * spec.randomization.total_mass,
                  "fingerprint": spec.fingerprint(), "seed": bundle.seed,
                  "n_time_steps": n_steps})
        for l, n in enumerate(levels)]
