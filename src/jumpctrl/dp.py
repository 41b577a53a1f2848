"""Dynamic-programming oracle on the same lattice as the penalized solver.

The backward recursion maximizes over the control grid at every node,

    v(t_k, x) = max_a { E[v(t_{k+1}, X') | X = x, control a] + f(t_k,x,a) dt },

through the same backward loop as the penalized route
(``transition.backward_sweep``, with one value column where the ladder
stacks its levels), so discrepancies between the two values can only
come from the control handling, never from the transition machinery.
Ties in the maximum resolve to the lowest control index, and the rollout
policy uses the same rule.  A tie is any control within ``TIE_TOL`` of
the maximum, so summation-order rounding cannot flip the stored argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim, transition
from .problem import ProblemSpec
from .transition import LatticeGrid

TIE_TOL = 1e-12


@dataclass(frozen=True)
class DpField:
    """Value and argmax-control lattice of the classical problem."""

    time_grid: np.ndarray          # (Nt+1,)
    grid: LatticeGrid
    values: np.ndarray             # (Nt+1, *shape)
    argmax: np.ndarray             # (Nt, *shape) control indices
    metadata: dict

    @property
    def n_steps(self) -> int:
        return self.time_grid.size - 1

    def value_at_node(self, k: int, points: np.ndarray) -> np.ndarray:
        vals, _ = transition.multilinear(self.grid.axes, self.values[k],
                                         np.atleast_2d(points))
        return vals

    def value_at_origin(self, spec: ProblemSpec) -> float:
        x0 = spec.initial_augmented(spec.initial_law.mean[None, :])
        return float(self.value_at_node(0, x0)[0])

    def policy_at(self, k: int, points: np.ndarray) -> np.ndarray:
        """Argmax control index at the nearest lattice node."""
        points = np.atleast_2d(points)
        return self.argmax[k][tuple(
            transition.nearest_node(ax, points[:, j])
            for j, ax in enumerate(self.grid.axes))]


def solve_dp_grid(spec: ProblemSpec, n_time_steps: int | None = None,
                  grid: LatticeGrid | None = None) -> DpField:
    """Backward value iteration over the control grid.

    Runs on ``grid``, by default ``transition.default_state_grid(spec)``.
    """
    if n_time_steps is None:
        n_time_steps = spec.default_steps()
    if grid is None:
        grid = transition.default_state_grid(spec)
    p_cnt = int(np.prod(grid.shape))
    values = np.empty((n_time_steps + 1, p_cnt))
    argmax = np.empty((n_time_steps, p_cnt), dtype=np.int64)

    def maximize(k, u):
        # u is (A, P, 1); every control continues from the maximum
        best = u.max(axis=0)
        values[k] = best[:, 0]
        # lowest index among the controls tied with the maximum
        argmax[k] = (u >= best - TIE_TOL).argmax(axis=0)[:, 0]
        return np.broadcast_to(best, u.shape)

    time_grid, terminal, sweep_meta = transition.backward_sweep(
        spec, grid, n_time_steps, 1, maximize)
    values[-1] = terminal
    return DpField(time_grid=time_grid, grid=grid,
                   values=values.reshape(n_time_steps + 1, *grid.shape),
                   argmax=argmax.reshape(n_time_steps, *grid.shape),
                   metadata={"solver": "dp", **sweep_meta,
                             "fingerprint": spec.fingerprint()})


def _operator_settings(fld) -> tuple:
    """What fixes a field's operators besides the kernel checksum, which
    covers the quadrature rule: the time step and the lattice axes."""
    return (fld.metadata.get("dt"),
            tuple(ax.tolist() for ax in fld.grid.axes))


def value_equality_check(dp_field: DpField, ladder, spec: ProblemSpec,
                         tilt_estimate=None) -> dict:
    """Compare the classical value with the randomized-formulation limit.

    ``ladder`` is the report from the penalized level ladder; the check
    passes when the two initial values agree within ``tol_value`` (plus
    ``se_multiplier`` standard errors for regression ladders) and, when a
    tilted gain estimate is supplied, that gain does not beat the
    classical value beyond ``se_multiplier`` standard errors; both
    tolerances come from ``spec.tolerances``.  An AssertionError refuses a
    lattice ladder solved with other operators: kernel code, ``dt``, nodes
    or lattice axes.
    """
    se_mult = spec.tolerances["se_multiplier"]
    if dp_field.metadata["fingerprint"] != spec.fingerprint():
        raise ValueError("spec mismatch")
    if ladder.fingerprint != spec.fingerprint():
        raise ValueError("spec mismatch")
    if ladder.kernel and (
            ladder.kernel != dp_field.metadata["kernel"]
            or _operator_settings(ladder.last_field)
            != _operator_settings(dp_field)):
        raise AssertionError("transition kernels differ between solvers "
                             "(code, dt, nodes or lattice axes)")

    tol = spec.tolerances["tol_value"]
    v_dp = dp_field.value_at_origin(spec)
    diff = abs(v_dp - ladder.value_limit)
    band = tol + se_mult * (ladder.ses[-1] if ladder.ses else 0.0)
    out = {
        "v_dp": v_dp, "v_randomized": ladder.value_limit,
        "diff": diff, "band": band, "value_equal_ok": bool(diff <= band),
    }
    if tilt_estimate is not None:
        # float-level slack keeps zero-variance (deterministic) tilts honest
        slack = se_mult * tilt_estimate.se + 1e-12 * (1.0 + abs(v_dp))
        out["tilt_gain"] = tilt_estimate.mean
        out["tilt_bound_ok"] = bool(tilt_estimate.mean <= v_dp + slack)
        out["ok"] = out["value_equal_ok"] and out["tilt_bound_ok"]
    else:
        out["ok"] = out["value_equal_ok"]
    return out


def policy_rollout(dp_field: DpField, spec: ProblemSpec, n_paths: int,
                   seed: int) -> dict:
    """Simulate the argmax feedback policy and band-check its gain.

    Near-optimality verification on the field's time grid: the rollout
    gain J must not beat the solved value beyond ``se_multiplier``
    standard errors and must reach it up to that noise plus ``tol_value``,
    both read from ``spec.tolerances``.
    """
    se_mult = spec.tolerances["se_multiplier"]

    def policy(k: int, t_k: float, states: np.ndarray) -> np.ndarray:
        return dp_field.policy_at(k, states)

    bundle = sim._simulate_core(spec, n_paths, seed,
                                n_steps=dp_field.n_steps,
                                control="policy", policy=policy)
    keep = bundle.included()
    gains = sim.total_gain(bundle)[keep]
    if gains.size == 0:
        raise ValueError("no paths")
    j_mean = float(gains.mean())
    j_se = float(gains.std(ddof=1) / math.sqrt(gains.size))
    v0 = dp_field.value_at_origin(spec)
    tol = spec.tolerances["tol_value"]
    # float-level slack keeps zero-variance (deterministic) rollouts honest
    slack = 1e-12 * (1.0 + abs(v0))
    ok = (j_mean <= v0 + se_mult * j_se + slack
          and j_mean >= v0 - se_mult * j_se - tol)
    return {
        "j_mean": j_mean, "j_se": j_se, "v0": v0, "ok": bool(ok),
        "n_paths": int(gains.size), "n_excluded": int(bundle.n_excluded),
    }
