"""Intensity tilts of the regime-switch stream.

Switching the reference intensity ``lambda0(db) ds`` to
``nu_s(b) lambda0(db) ds`` (with ``0 < nu_min <= nu <= nu_max``) reweights
path functionals by the exponential martingale

    kappa_T = exp( int_0^T sum_b (1 - nu_s(b)) lambda0(b) ds )
              * prod_{switch events} nu_{T_j}(mark_j),

computed here in log space, exactly against the piecewise-constant regime
path (event times split the integral, nothing is lost to the grid).  The
same intensities can instead be simulated directly by thinning a dominating
stream at rate ``nu_max * lambda0``; both routes estimate the same gains and
the toolkit keeps them as independent code paths for cross-checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sim
from .problem import ProblemSpec
from .sim import PathBundle


def _nearest_index(axis: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Index of the closest node of a sorted 1-d axis, clamped."""
    idx = np.searchsorted(axis, vals)
    idx = np.clip(idx, 1, axis.size - 1)
    left_closer = (vals - axis[idx - 1]) <= (axis[idx] - vals)
    return np.where(left_closer, idx - 1, idx).astype(np.int64)


# ---------------------------------------------------------------------------
# Intensity controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntensityControl:
    """Switch-intensity multiplier nu(t, x, a, b), bounded away from zero.

    Three shapes: a constant, a regime matrix nu(a, b), or a state-feedback
    table piecewise constant on (time step x state cell); the feedback form
    is what the argmax tilt of a value lattice produces.
    """

    nu_id: str
    kind: str                   # "constant" | "matrix" | "feedback"
    nu_min: float
    nu_max: float
    constant: Optional[float] = None
    matrix: Optional[np.ndarray] = None          # (A, A) indexed [a, b]
    time_grid: Optional[np.ndarray] = None       # (K+1,) feedback cells
    axes: Optional[tuple] = None                 # per state coordinate
    table: Optional[np.ndarray] = None           # (K, *shape, A, A)

    def __post_init__(self):
        if not (0.0 < self.nu_min <= self.nu_max):
            raise ValueError("need 0 < nu_min <= nu_max")
        for arr in (self.matrix, self.table):
            if arr is not None:
                lo, hi = float(np.min(arr)), float(np.max(arr))
                if lo < self.nu_min - 1e-12 or hi > self.nu_max + 1e-12:
                    raise ValueError("intensity values leave "
                                     "[nu_min, nu_max]")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value: float) -> "IntensityControl":
        return IntensityControl(nu_id=f"const-{value:g}", kind="constant",
                                nu_min=value, nu_max=value, constant=value)

    @staticmethod
    def from_matrix(matrix, nu_id: str = "matrix") -> "IntensityControl":
        m = np.asarray(matrix, dtype=float)
        return IntensityControl(nu_id=nu_id, kind="matrix",
                                nu_min=float(m.min()), nu_max=float(m.max()),
                                matrix=m)

    @staticmethod
    def argmax_tilt(time_grid, axes, values, strength: float,
                    nu_min: float = 0.05,
                    nu_id: Optional[str] = None) -> "IntensityControl":
        """Push switches toward regimes with strictly larger lattice values.

        ``values`` has shape (K+1, *state_shape, A); the table is built on
        the left time nodes.  nu = strength where the target regime improves
        on the current one, nu_min otherwise.
        """
        values = np.asarray(values, dtype=float)
        n_controls = values.shape[-1]
        k_steps = values.shape[0] - 1
        state_shape = values.shape[1:-1]
        left = values[:-1]                       # (K, *shape, A)
        better = (left[..., None, :] > left[..., :, None] + 1e-12)
        table = np.where(better, float(strength), float(nu_min))
        assert table.shape == (k_steps, *state_shape, n_controls, n_controls)
        return IntensityControl(
            nu_id=nu_id or f"argmax-{strength:g}", kind="feedback",
            nu_min=float(nu_min), nu_max=float(strength),
            time_grid=np.asarray(time_grid, dtype=float),
            axes=tuple(np.asarray(ax, dtype=float) for ax in axes),
            table=table)

    # -- evaluation ----------------------------------------------------------

    def _cells(self, t, x: np.ndarray):
        k = np.searchsorted(self.time_grid, np.atleast_1d(t), side="right") - 1
        k = np.clip(k, 0, self.table.shape[0] - 1)
        if k.size == 1:
            k = np.full(x.shape[0], int(k[0]))
        cells = tuple(_nearest_index(ax, x[:, j])
                      for j, ax in enumerate(self.axes))
        return k, cells

    def rate(self, t, x: np.ndarray, a_idx: np.ndarray,
             b_idx: np.ndarray) -> np.ndarray:
        """nu at (t, x, a, b); vectorized over rows of x."""
        x = np.atleast_2d(x)
        a_idx = np.asarray(a_idx, dtype=np.int64)
        b_idx = np.asarray(b_idx, dtype=np.int64)
        if self.kind == "constant":
            return np.full(x.shape[0], self.constant)
        if self.kind == "matrix":
            return self.matrix[a_idx, b_idx]
        k, cells = self._cells(t, x)
        return self.table[(k, *cells, a_idx, b_idx)]


# ---------------------------------------------------------------------------
# Weight computation
# ---------------------------------------------------------------------------

def doleans_weights(bundle: PathBundle, nu: IntensityControl) -> np.ndarray:
    """kappa_T for every path of a bundle, in log space and exact in the
    regime path.

    The feedback intensity is evaluated with the state frozen at the left
    grid node of each step, matching both the thinning simulator and the
    lattice the tilt was built from.
    """
    time_grid, states, theta = bundle.time_grid, bundle.states, bundle.theta
    start_regimes, t0 = bundle.regimes[:, 0], bundle.t0
    n_paths = bundle.n_paths
    weights = bundle.spec.randomization.lambda0_weights
    total = float(weights.sum())
    horizon = float(time_grid[-1])
    log_k = np.zeros(n_paths)

    # event factor: nu at (left node, pre-switch regime, target mark)
    if theta.total:
        ev_path = theta.path_ids()
        ev_time = theta.times
        ev_mark = np.asarray(theta.marks, dtype=np.int64)
        pre = np.empty(theta.total, dtype=np.int64)
        pre[1:] = ev_mark[:-1]
        counts = theta.counts()
        firsts = theta.indptr[:-1][counts > 0]
        pre[firsts] = np.asarray(start_regimes, dtype=np.int64)[counts > 0]
        step = np.clip(np.searchsorted(time_grid, ev_time, side="left") - 1,
                       0, time_grid.size - 2)
        t_left = time_grid[step]
        x_left = states[ev_path, step, :]
        vals = nu.rate(t_left, x_left, pre, ev_mark)
        if np.any(vals <= 0.0):
            raise ValueError("intensity must stay positive on events")
        log_k += np.bincount(ev_path, weights=np.log(vals),
                             minlength=n_paths)

    # compensator factor
    if nu.kind == "constant":
        log_k += (1.0 - nu.constant) * total * (horizon - t0)
        return np.exp(log_k)
    # sum_b (1 - nu(a, b)) lambda0(b) for every source regime a, once per
    # matrix entry or feedback cell: (A,) or (K, *shape, A)
    deficit = ((1.0 - (nu.matrix if nu.kind == "matrix" else nu.table))
               * weights).sum(axis=-1)
    segs = sim._segments_from_events(theta, start_regimes, t0, horizon)
    n_controls = weights.size
    cell = ()
    for k in range(time_grid.size - 1):
        t_lo, t_hi = float(time_grid[k]), float(time_grid[k + 1])
        occ = sim._occupation_rows(segs, t_lo, t_hi, n_paths, n_controls)
        if nu.kind == "feedback":
            k_idx, cells = nu._cells(t_lo, states[:, k, :])
            cell = (k_idx, *cells)
        for ai in range(n_controls):
            col = occ[:, ai]
            if not np.any(col > 0):
                continue
            log_k += col * deficit[(*cell, ai)]
    return np.exp(log_k)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def gain_payoff(bundle: PathBundle) -> np.ndarray:
    """Running reward plus terminal reward (the randomized gain)."""
    return sim.total_gain(bundle)


def unit_payoff(bundle: PathBundle) -> np.ndarray:
    return np.ones(bundle.n_paths)


def theta_count_payoff(bundle: PathBundle) -> np.ndarray:
    return bundle.theta.counts().astype(float)


def _fsum_mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / values.size


def reweighted_expectation(bundle: PathBundle, nu: IntensityControl,
                           payoff: Callable) -> dict:
    """E^nu[payoff] estimated by tilt weights on a reference bundle.

    The product reduction uses compensated summation; with nu identically 1
    every weight is exactly 1.0 and the estimate coincides bitwise with the
    unweighted sample mean.
    """
    keep = bundle.included()
    if not np.any(keep):
        raise ValueError("no paths")
    kappa = doleans_weights(bundle, nu)[keep]
    y = np.asarray(payoff(bundle), dtype=float)[keep]
    prod = kappa * y
    mean = _fsum_mean(prod)
    se = float(prod.std(ddof=1) / math.sqrt(prod.size)) if prod.size > 1 else 0.0
    return {"mean": mean, "se": se, "n_paths": int(prod.size),
            "nu_id": nu.nu_id, "kappa_mean": _fsum_mean(kappa),
            "kappa_se": float(kappa.std(ddof=1) / math.sqrt(kappa.size))
            if kappa.size > 1 else 0.0}


def simulate_tilted_theta(nu: IntensityControl, spec: ProblemSpec, seed: int,
                          n_paths: int = 1, n_steps: Optional[int] = None,
                          t0: float = 0.0,
                          x0: Optional[np.ndarray] = None) -> PathBundle:
    """Simulate under the tilted intensity by thinning a dominating stream.

    Proposals arrive at rate nu_max * lambda0(grid); each is accepted with
    probability nu/nu_max evaluated at the left grid node (state and time
    frozen there, same convention as the weight computation).  Acceptance
    uniforms use a dedicated substream, so path i remains a pure function of
    (seed, i).
    """
    return sim._simulate_core(spec, n_paths, seed, n_steps=n_steps, t0=t0,
                              x0=x0, control="tilted", tilt=nu)


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

    def to_json(self) -> str:
        return json.dumps({
            "nu_id": self.nu_id, "mode": self.mode, "mean": self.mean,
            "se": self.se, "n_paths": self.n_paths, "seed": self.seed,
            "n_excluded": self.n_excluded}, sort_keys=True)


def _reweighted_gain(bundle: PathBundle,
                     nu: IntensityControl) -> GainEstimate:
    est = reweighted_expectation(bundle, nu, gain_payoff)
    return GainEstimate(nu_id=nu.nu_id, mode="reweight", mean=est["mean"],
                        se=est["se"], n_paths=est["n_paths"],
                        seed=bundle.seed, n_excluded=bundle.n_excluded)


def randomized_gain(spec: ProblemSpec, nu: IntensityControl, n_paths: int,
                    seed: int, mode: str = "reweight",
                    n_steps: Optional[int] = None) -> GainEstimate:
    """Estimate E^nu[int f dt + g(X_T)] by one of the two routes."""
    if mode == "reweight":
        return _reweighted_gain(
            sim.simulate_bundle(spec, n_paths, seed, n_steps=n_steps), nu)
    if mode == "tilted":
        bundle = simulate_tilted_theta(nu, spec, seed, n_paths=n_paths,
                                       n_steps=n_steps)
        keep = bundle.included()
        if not np.any(keep):
            raise ValueError("no paths")
        y = gain_payoff(bundle)[keep]
        mean = _fsum_mean(y)
        se = float(y.std(ddof=1) / math.sqrt(y.size)) if y.size > 1 else 0.0
        return GainEstimate(nu_id=nu.nu_id, mode=mode, mean=mean, se=se,
                            n_paths=int(y.size), seed=seed,
                            n_excluded=bundle.n_excluded)
    raise ValueError(f"unknown mode {mode!r}")


def check_mode_agreement(bundle: PathBundle, nu: IntensityControl,
                         se_multiplier: float = 3.0) -> dict:
    """Cross-check the two gain routes; they share no draws (seed offset).

    ``bundle`` is a reference bundle from time 0, which the reweighting
    route reads as is; the tilted route simulates as many paths on the
    same spec and time grid from ``bundle.seed + 104729``.
    """
    if bundle.control_mode != "randomized" or bundle.t0 != 0.0:
        raise ValueError("mode agreement needs a reference bundle from t = 0")
    rw = _reweighted_gain(bundle, nu)
    ti = randomized_gain(bundle.spec, nu, bundle.n_paths, bundle.seed + 104729,
                         "tilted", bundle.n_steps)
    band = se_multiplier * math.hypot(rw.se, ti.se)
    diff = rw.mean - ti.mean
    return {
        "nu_id": nu.nu_id,
        "reweight": rw, "tilted": ti,
        "diff": diff, "band": band,
        "ok": bool(abs(diff) <= band),
    }
