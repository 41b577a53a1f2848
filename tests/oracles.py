"""Independent oracles for the test suite.

Every expected value used by the tests is either trivial arithmetic or is
computed here by a route that shares no code with the package: closed forms
derived by hand, scipy quadrature, and a plain RK4 ODE integrator.  The
frozen constants below are asserted against their recomputation in
test_oracles.py, so they cannot drift silently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


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
