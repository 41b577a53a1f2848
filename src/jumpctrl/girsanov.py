"""Intensity tilts of the regime-switch stream.

Switching the reference intensity ``lambda0(db) ds`` to
``nu_s(b) lambda0(db) ds`` (with ``0 < nu_min <= nu <= nu_max``) reweights
path functionals by the exponential martingale

    kappa_T = exp( int_0^T sum_b (1 - nu_s(b)) lambda0(b) ds )
              * prod_{switch events} nu_{T_j}(mark_j),

computed here in log space and exact in the piecewise-constant regime
path the bundle stores (grid regimes plus switch events).  The same
intensities can instead be simulated directly by thinning a dominating
stream at rate ``nu_max * lambda0``.  Both routes estimate the same gains
as a :class:`GainEstimate` and are kept as independent code paths:
:func:`reweighted_expectation` weights a reference bundle,
:func:`randomized_gain` simulates the tilt, and
:func:`check_mode_agreement` compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sim
from .problem import ProblemSpec
from .sim import PathBundle
from .transition import nearest_node

#: intensity multiplier of the argmax tilt's switches that do not improve
ARGMAX_NU_MIN = 0.05


# ---------------------------------------------------------------------------
# Intensity controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntensityControl:
    """Switch-intensity multiplier nu(t, x, a, b), bounded away from zero.

    Two shapes: a constant, or a state-feedback table piecewise constant
    on (time step x state cell); the feedback form is what the argmax tilt
    of a value lattice produces.
    """

    nu_id: str
    kind: str                   # "constant" | "feedback"
    nu_min: float
    nu_max: float
    constant: Optional[float] = None
    time_grid: Optional[np.ndarray] = None       # (K+1,) feedback cells
    axes: Optional[tuple] = None                 # per state coordinate
    table: Optional[np.ndarray] = None           # (K, *shape, A, A)

    def __post_init__(self):
        if not (0.0 < self.nu_min <= self.nu_max):
            raise ValueError("need 0 < nu_min <= nu_max")
        if self.table is not None:
            lo, hi = float(np.min(self.table)), float(np.max(self.table))
            if lo < self.nu_min - 1e-12 or hi > self.nu_max + 1e-12:
                raise ValueError("intensity values leave [nu_min, nu_max]")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value: float) -> "IntensityControl":
        return IntensityControl(nu_id=f"const-{value:g}", kind="constant",
                                nu_min=value, nu_max=value, constant=value)

    @staticmethod
    def argmax_tilt(time_grid, axes, values,
                    strength: float) -> "IntensityControl":
        """Push switches toward regimes with strictly larger lattice values.

        ``values`` has shape (K+1, *state_shape, A); the table is built on
        the left time nodes.  nu = strength where the target regime improves
        on the current one, ``ARGMAX_NU_MIN`` otherwise.
        """
        values = np.asarray(values, dtype=float)
        n_controls = values.shape[-1]
        k_steps = values.shape[0] - 1
        state_shape = values.shape[1:-1]
        left = values[:-1]                       # (K, *shape, A)
        better = (left[..., None, :] > left[..., :, None] + 1e-12)
        table = np.where(better, float(strength), ARGMAX_NU_MIN)
        assert table.shape == (k_steps, *state_shape, n_controls, n_controls)
        return IntensityControl(
            nu_id=f"argmax-{strength:g}", kind="feedback",
            nu_min=ARGMAX_NU_MIN, nu_max=float(strength),
            time_grid=np.asarray(time_grid, dtype=float),
            axes=tuple(np.asarray(ax, dtype=float) for ax in axes),
            table=table)

    # -- evaluation ----------------------------------------------------------

    def _cell(self, t, x: np.ndarray) -> tuple:
        """Table index (time cell, *state cells) of each row of x at t.

        Callers pass left grid nodes; the nearest-node rule reads node k's
        row even from a grid whose floats miss the table's by an ulp (the
        restart check's cut grid at odd step counts)."""
        k = np.minimum(nearest_node(self.time_grid, np.atleast_1d(t)),
                       self.table.shape[0] - 1)
        if k.size == 1:
            k = np.full(x.shape[0], int(k[0]))
        return (k, *(nearest_node(ax, x[:, j])
                     for j, ax in enumerate(self.axes)))

    def rate(self, t, x: np.ndarray, a_idx: np.ndarray,
             b_idx: np.ndarray) -> np.ndarray:
        """nu at (t, x, a, b); vectorized over rows of x."""
        x = np.atleast_2d(x)
        a_idx = np.asarray(a_idx, dtype=np.int64)
        b_idx = np.asarray(b_idx, dtype=np.int64)
        if self.kind == "constant":
            return np.full(x.shape[0], self.constant)
        return self.table[(*self._cell(t, x), a_idx, b_idx)]


# ---------------------------------------------------------------------------
# Weight computation
# ---------------------------------------------------------------------------

def doleans_weights(bundle: PathBundle, nu: IntensityControl) -> np.ndarray:
    """kappa_T for every path of a bundle, in log space.

    The feedback intensity is read at the left grid node of each step, as
    by the thinning simulator and the lattice the tilt was built from.
    With D_k(a) = sum_b (1 - nu_k(a, b)) lambda0(b) and a_k =
    ``regimes[:, k]``, summation by parts over the regime path gives the
    step's compensator exactly: dt D_k(a_k), plus (t_{k+1} - tau)
    (D_k(new) - D_k(old)) for each switch at tau in the step.  A
    policy-mode bundle changes regime without switch events: ValueError.
    """
    if bundle.control_mode == "policy":
        raise ValueError("tilt weights need the switch events of the regime "
                         "path; a policy-mode bundle records none")
    time_grid, states, theta = bundle.time_grid, bundle.states, bundle.theta
    n_paths = bundle.n_paths
    weights = bundle.spec.randomization.lambda0_weights
    log_k = np.zeros(n_paths)
    if nu.kind == "feedback":
        # sum_b (1 - nu(a, b)) lambda0(b) for every source regime a, once per
        # feedback cell: (K, *shape, A)
        deficit = ((1.0 - nu.table) * weights).sum(axis=-1)
        dt = np.diff(time_grid)
        for k in range(bundle.n_steps):
            cell = nu._cell(float(time_grid[k]), states[:, k, :])
            log_k += dt[k] * deficit[(*cell, bundle.regimes[:, k])]

    if theta.total:
        ev_path, ev_time = theta.path_ids(), theta.times
        ev_mark = np.asarray(theta.marks, dtype=np.int64)
        # pre-switch regime: the path's previous mark, or its start regime
        pre = np.roll(ev_mark, 1)
        has = theta.counts() > 0
        pre[theta.indptr[:-1][has]] = bundle.regimes[has, 0]
        step = sim.event_steps(time_grid, ev_time)
        t_left = time_grid[step]
        x_left = states[ev_path, step, :]
        # event factor: nu at (left node, pre-switch regime, target mark)
        vals = nu.rate(t_left, x_left, pre, ev_mark)
        if np.any(vals <= 0.0):
            raise ValueError("intensity must stay positive on events")
        log_k += np.bincount(ev_path, weights=np.log(vals),
                             minlength=n_paths)
        if nu.kind == "feedback":
            # the switch's share of the compensator: the rest of its step
            # at the new regime's rate instead of the old one's
            cell = nu._cell(t_left, x_left)
            shift = (time_grid[step + 1] - ev_time) * (
                deficit[(*cell, ev_mark)] - deficit[(*cell, pre)])
            log_k += np.bincount(ev_path, weights=shift, minlength=n_paths)

    if nu.kind == "constant":
        log_k += ((1.0 - nu.constant) * float(weights.sum())
                  * float(time_grid[-1]))
    return np.exp(log_k)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def unit_payoff(bundle: PathBundle) -> np.ndarray:
    return np.ones(bundle.n_paths)


@dataclass(frozen=True)
class GainEstimate:
    """One randomized-gain estimate with its provenance."""

    nu_id: str
    mode: str                   # "reweight" | "tilted"
    mean: float
    se: float
    n_paths: int
    seed: int
    n_excluded: int = 0


def _estimate(bundle: PathBundle, nu: IntensityControl, mode: str,
              values: np.ndarray) -> GainEstimate:
    """Compensated-sum mean and standard error of per-path ``values`` over
    the bundle's kept paths."""
    y = values[bundle.included()]
    if not y.size:
        raise ValueError("no paths")
    se = float(y.std(ddof=1) / math.sqrt(y.size)) if y.size > 1 else 0.0
    return GainEstimate(nu_id=nu.nu_id, mode=mode,
                        mean=math.fsum(y.tolist()) / y.size, se=se,
                        n_paths=int(y.size), seed=bundle.seed,
                        n_excluded=bundle.n_excluded)


def reweighted_expectation(bundle: PathBundle, nu: IntensityControl,
                           payoff: Callable) -> GainEstimate:
    """E^nu[payoff] estimated by tilt weights on a reference bundle.

    The mean uses compensated summation; with nu identically 1 every
    weight is exactly 1.0 and the estimate coincides bitwise with the
    unweighted sample mean.
    """
    return _estimate(bundle, nu, "reweight",
                     doleans_weights(bundle, nu)
                     * np.asarray(payoff(bundle), dtype=float))


def simulate_tilted_theta(nu: IntensityControl, spec: ProblemSpec, seed: int,
                          n_paths: int, n_steps: int) -> PathBundle:
    """Simulate under the tilted intensity by thinning a dominating stream.

    Proposals arrive at rate nu_max * lambda0(grid); each is accepted with
    probability nu/nu_max evaluated at the left grid node (state and time
    frozen there, same convention as the weight computation).  Acceptance
    uniforms use a dedicated substream, so path i remains a pure function of
    (seed, i).
    """
    return sim._simulate_core(spec, n_paths, seed, n_steps, nu)


def randomized_gain(spec: ProblemSpec, nu: IntensityControl, n_paths: int,
                    seed: int, n_steps: int) -> GainEstimate:
    """Estimate E^nu[int f dt + g(X_T)] on paths simulated under the tilt."""
    bundle = simulate_tilted_theta(nu, spec, seed, n_paths, n_steps)
    return _estimate(bundle, nu, "tilted", sim.total_gain(bundle))


def check_mode_agreement(bundle: PathBundle, nu: IntensityControl) -> dict:
    """Cross-check the two gain routes; they share no draws (seed offset).

    ``bundle`` is a reference bundle, which the reweighting route reads as
    is; the tilted route simulates as many paths on the same spec and time
    grid from ``bundle.seed + 104729``.  The routes
    agree when their means differ by at most ``se_multiplier`` (from the
    bundle's ``spec.tolerances``) combined standard errors.
    """
    if bundle.control_mode != "randomized":
        raise ValueError("mode agreement needs a reference bundle")
    rw = reweighted_expectation(bundle, nu, sim.total_gain)
    ti = randomized_gain(bundle.spec, nu, bundle.n_paths, bundle.seed + 104729,
                         bundle.n_steps)
    band = (bundle.spec.tolerances["se_multiplier"]
            * math.hypot(rw.se, ti.se))
    diff = rw.mean - ti.mean
    return {
        "nu_id": nu.nu_id,
        "reweight": rw, "tilted": ti,
        "diff": diff, "band": band,
        "ok": bool(abs(diff) <= band),
    }
