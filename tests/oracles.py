"""Independent oracles for the test suite.

Every expected value used by the tests is either trivial arithmetic or is
computed here by a route that shares no code with the package: closed forms
derived by hand, scipy quadrature, and a plain RK4 ODE integrator.  The
frozen constants below are asserted against their recomputation in
test_oracles.py, so they cannot drift silently.  The one exception is
``brownian_increments``, which regenerates a bundle's noise from the
package's random stream, so that replay tests can feed it back.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from jumpctrl import stream


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
    rate = spec.jump_measure.total_rate
    # kept row and step of each jump; t in (t_k, t_{k+1}] is step k
    paths = np.repeat(np.arange(bundle.n_paths), np.diff(bundle.pi.indptr))
    on = keep[paths]
    jump_row = (np.cumsum(keep) - 1)[paths[on]]
    jump_step = np.clip(np.searchsorted(time_grid, bundle.pi.times[on],
                                        side="left") - 1, 0, n_steps - 1)
    rows = np.arange(m_used)

    def at_regime(v, regime):
        return np.take(v.reshape(n_levels, -1), regime * m_used + rows,
                       axis=1)

    g_terminal = spec.coefficients.g(states[n_steps])
    v_next = np.tile(g_terminal, (n_levels, n_controls, 1))
    tilde = np.empty_like(v_next)
    y_mean = np.full((n_levels, n_steps + 1), g_terminal.mean())
    l_mean = np.zeros((n_levels, n_steps))
    r_pos_mean = np.zeros((n_levels, n_steps))
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
        r_pos_mean[:, k] = r_pos.mean(axis=1)
        y_mean[:, k] = at_regime(v_next, i_k).mean(axis=1)
        if rate > 0.0:
            dn = (np.bincount(jump_row[jump_step == k], minlength=m_used)
                  - rate * dt)
            l_mean[:, k] = (target @ dn) / m_used / (rate * dt)
        betas_prev = betas

    y0_se = target.std(axis=1, ddof=1) / math.sqrt(m_used)
    k_mean = np.zeros((n_levels, n_steps + 1))
    k_mean[:, 1:] = np.cumsum(level_dt[:, None] * r_pos_mean, axis=1)
    y0 = at_regime(v_next, regimes[0]).mean(axis=1)
    return [dict(
        level_n=n, time_grid=time_grid, y0=float(y0[l]),
        y0_se=float(y0_se[l]), n_paths=m_used,
        n_excluded=int(bundle.excluded.sum()), y_mean=y_mean[l],
        l_mean=l_mean[l], k_mean=k_mean[l],
        r_pos_mean=r_pos_mean[l], constraint_integral=s_int[l],
        k_terminal=n * s_int[l], ridge_events=tuple(ridge_events),
        carried_cells=tuple(carried),
        metadata={"solver": "lsmc", "level_n": n, "dt": dt,
                  "degree": degree,
                  "stability": n * dt * spec.randomization.total_mass,
                  "fingerprint": spec.fingerprint(), "seed": bundle.seed,
                  "n_time_steps": n_steps})
        for l, n in enumerate(levels)]
