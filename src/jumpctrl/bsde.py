"""Penalized backward solvers for the regime-randomized control problem.

The switching constraint is enforced softly: at penalization level ``n`` the
backward step first takes a conditional expectation plus running reward,
then applies the penalty operator

    (T_n u)(a) = u(a) + n * dt * sum_b (u(b) - u(a))^+ * lambda0(b),

which charges the estimated advantage of jumping to a better regime.  Under
``n * dt * lambda0_mass <= 1`` the composed step is monotone, so values
computed on a common time grid increase nodewise in ``n`` and stay below
the dynamic-programming value.  Two independent routes are provided:

* a lattice recursion (:func:`solve_penalized_grid_ladder`), every level
  in one :func:`transition.backward_sweep` through the one-step operators
  that dynamic programming applies too, and
* a regression Monte Carlo recursion on simulated reference paths
  (:func:`solve_penalized_lsmc_ladder`, every level in one backward pass
  over one path bundle), which never touches that kernel.

Both routes apply T_n through one helper, :func:`_advantage`, and on
both the one-level solvers are the ladders' one-level case.  The lattice
route stacks it over every control; the regression route reads it, like
the jump term of the penalized BSDE, only at the regime each path holds.

:func:`minimal_value` solves a ladder of levels on a lattice or on a path
bundle and takes the largest level's value as the limit;
:func:`constraint_gap` quantifies how hard the penalty is working on
lattice fields; and
:func:`check_randomized_dpp` replays an intermediate-horizon optimization
against the solved field.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import girsanov, transition
from .problem import ProblemSpec
from .transition import LatticeGrid

#: total degree of the polynomial state features of the regression route
LSMC_DEGREE = 2
#: ridge added to a rank-deficient regression's normal equations
LSMC_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenalizedField:
    """Lattice solution of one penalization level."""

    level_n: int
    time_grid: np.ndarray          # (Nt+1,)
    grid: LatticeGrid
    values: np.ndarray             # (Nt+1, *shape, A) after penalty
    continuation: np.ndarray       # (Nt, *shape, A) pre-penalty
    metadata: dict

    @property
    def n_steps(self) -> int:
        return self.time_grid.size - 1

    def value_at_node(self, k: int, points: np.ndarray,
                      a_index: int) -> np.ndarray:
        vals, _ = transition.multilinear(self.grid.axes,
                                         self.values[k][..., a_index],
                                         np.atleast_2d(points))
        return vals

    def value_at_origin(self, spec: ProblemSpec) -> float:
        x0 = spec.initial_augmented(spec.initial_law.mean[None, :])
        return float(self.value_at_node(0, x0, spec.randomization.a0_index)[0])

    def snap_time(self, t: float) -> tuple[int, float]:
        """Nearest time node (index, node time)."""
        k = int(np.argmin(np.abs(self.time_grid - t)))
        return k, float(self.time_grid[k])


@dataclass(frozen=True)
class BsdeQuintuple:
    """Regression Monte Carlo solution summary at one level.

    ``y0``/``y0_se`` estimate the value at the initial point, and
    ``constraint_integral`` is each path's integral of the nonnegative
    constraint charge, the terminal compensator K_T divided by the level.
    Nothing else of the pass is kept: no report, suite or check reads a
    per-step mean of the value or the jump integrand, or an estimate of
    the Brownian integrand Z, which would need the bundle to keep its
    Brownian increments (see ``sim``).
    """

    level_n: int
    time_grid: np.ndarray
    y0: float
    y0_se: float
    n_paths: int
    n_excluded: int
    constraint_integral: np.ndarray  # (M,) int sum_b (R)^+ lambda0_b dt
    ridge_events: tuple
    carried_cells: tuple           # (step, regime) cells with no data
    metadata: dict


@dataclass(frozen=True)
class ConstraintReport:
    """How strongly the penalty binds at one level."""

    level_n: int
    phi: float                     # squared mean constraint integral
    k_ratio: float                 # E|K_T|^2 / n^2
    mean_integral: float
    se_integral: float
    n_paths: int


@dataclass(frozen=True)
class LadderReport:
    """Increasing-level summary with its limit."""

    solver: str
    levels: tuple
    values: tuple
    ses: tuple
    monotone_ok: bool
    monotone_max_violation: float
    value_limit: float
    n_time_steps: int
    fingerprint: str
    kernel: str
    per_level: tuple = field(repr=False, default=())

    @property
    def last_field(self):
        """The largest level's field (lattice) or quintuple (regression)."""
        return self.per_level[-1]


# ---------------------------------------------------------------------------
# Lattice route
# ---------------------------------------------------------------------------

def _advantage(u: np.ndarray, own, weights: np.ndarray) -> np.ndarray:
    """``sum_b (u[b] - own)^+ * weights[b]``, summed over ``b`` ascending.

    ``u`` is control-major, ``(A, ...)``, and ``own``, shaped like
    ``u[0]``, is the value of the regime held; the penalty operator of the
    module docstring at that regime is ``own + n * dt * _advantage(u, own,
    w)``, shared by both routes.  Controls of zero weight add nothing, and
    the held regime's own term adds an exact 0.0.
    """
    adv = np.zeros_like(own)
    gap = np.empty_like(own)
    for b in range(u.shape[0]):
        if weights[b] != 0.0:
            np.maximum(np.subtract(u[b], own, out=gap), 0.0, out=gap)
            gap *= weights[b]
            adv += gap
    return adv


def _checked_levels(levels) -> list:
    """The levels as ints; ValueError unless there is one and all are >= 1."""
    levels = [int(n) for n in levels]
    if not levels or min(levels) < 1:
        raise ValueError("penalization level must be >= 1")
    return levels


def default_time_steps(spec: ProblemSpec, max_level: int) -> int:
    """Common grid fine enough for the integrator and the stability bound."""
    mass = spec.randomization.total_mass
    return max(spec.default_steps(),
               int(math.ceil(2.0 * max_level * mass * spec.horizon)))


def solve_penalized_grid(spec: ProblemSpec, level_n: int, n_time_steps: int,
                         grid: LatticeGrid) -> PenalizedField:
    """One level of :func:`solve_penalized_grid_ladder` (see there)."""
    return solve_penalized_grid_ladder(spec, (level_n,), n_time_steps,
                                       grid)[0]


def solve_penalized_grid_ladder(spec: ProblemSpec, levels, n_time_steps: int,
                                grid: LatticeGrid
                                ) -> tuple[PenalizedField, ...]:
    """Backward lattice recursion, every level in one sweep.

    Runs on [0, horizon] with ``n_time_steps`` uniform steps, on ``grid``.
    Returns one :class:`PenalizedField` per level.  The levels share the
    operators as slots of one :func:`transition.backward_sweep`, and each
    level's penalty reads that level alone, so each field is bitwise the
    one-level solve.
    """
    levels = _checked_levels(levels)
    time_grid = spec.time_grid(n_time_steps)   # checks the step count
    dt = spec.horizon / n_time_steps
    level_dt = np.array(levels) * dt
    stability = level_dt * spec.randomization.total_mass
    if stability.max() > 1.0 + 1e-12:
        warnings.warn("penalty step exceeds the monotone stability bound; "
                      "values may lose nodewise comparability",
                      RuntimeWarning)

    weights = spec.randomization.lambda0_weights
    n_controls = spec.control.size
    p_cnt = int(np.prod(grid.shape))
    # level-major: values[l] is level l's (Nt+1, P, A) field
    values = np.empty((len(levels), n_time_steps + 1, p_cnt, n_controls))
    continuation = np.empty((len(levels), n_time_steps, p_cnt, n_controls))

    def penalize(k, u):
        # u is (A, P, L); the stores are (L, P, A) per step
        continuation[:, k] = u.T
        adv = np.stack([_advantage(u, u_a, weights) for u_a in u])
        v = u + level_dt * adv
        values[:, k] = v.T
        return v

    _, terminal, sweep_meta = transition.backward_sweep(
        spec, grid, n_time_steps, len(levels), penalize)
    values[:, -1] = terminal[:, None]
    shape = (*grid.shape, n_controls)
    return tuple(PenalizedField(
        level_n=n, time_grid=time_grid, grid=grid,
        values=values[l].reshape(n_time_steps + 1, *shape),
        continuation=continuation[l].reshape(n_time_steps, *shape),
        metadata={"solver": "grid", "level_n": n,
                  "stability": float(stability[l]),
                  "monotone_safe": bool(stability[l] <= 1.0 + 1e-12),
                  **sweep_meta, "fingerprint": spec.fingerprint()})
        for l, n in enumerate(levels))


# ---------------------------------------------------------------------------
# Regression Monte Carlo route
# ---------------------------------------------------------------------------

def _monomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of the state coordinates up to total degree."""
    n, d = x.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for j in combo:
                col = col * x[:, j]
            cols.append(col)
    return np.column_stack(cols)


def _fit_regime(phi: np.ndarray, y: np.ndarray):
    """Least squares of each row of ``y`` on ``phi``, ``LSMC_RIDGE`` on
    rank loss.

    One SVD (numpy ``lstsq``'s rank cutoff) serves every row, each solved
    on its own.  Returns (rows, features) coefficients and the ridge flag.
    """
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    cutoff = np.finfo(float).eps * max(phi.shape) * s[0]
    if np.count_nonzero(s > cutoff) < phi.shape[1]:
        gram = phi.T @ phi + LSMC_RIDGE * np.eye(phi.shape[1])
        return np.array([np.linalg.solve(gram, phi.T @ y_l)
                         for y_l in y]), True
    return np.array([vt.T @ ((u.T @ y_l) / s) for y_l in y]), False


def solve_penalized_lsmc(spec: ProblemSpec, level_n: int,
                         bundle) -> BsdeQuintuple:
    """One level of :func:`solve_penalized_lsmc_ladder` (see there)."""
    return solve_penalized_lsmc_ladder(spec, (level_n,), bundle)[0]


def solve_penalized_lsmc_ladder(spec: ProblemSpec, levels,
                                bundle) -> tuple[BsdeQuintuple, ...]:
    """Regression Monte Carlo recursion, every level in one backward pass.

    ``bundle`` holds reference-measure paths; reusing one bundle across
    levels keeps ladder comparisons on common random numbers.  Each
    backward step regresses the next-step value, read at the path's
    *current* regime, on the monomials of the state up to total degree
    ``LSMC_DEGREE`` per regime (with ridge ``LSMC_RIDGE`` when a fit
    loses rank), then applies the same penalty operator as the lattice
    route (:func:`_advantage`) at the regime the path holds.  The value at
    step k is penalized at i_k for the step's estimates, and at i_{k-1} as
    step k-1's target; the two differ only on the paths that switch, so
    only those are penalized a second time.
    Evaluating the next value at the current regime (rather than the
    switched one) is what makes both routes estimate the same frozen-regime
    recursion, so their initial values are directly comparable.  The step-0
    standard error covers the Monte Carlo scatter of the step-0 regression
    targets.

    Returns one :class:`BsdeQuintuple` per entry of ``levels``.  Only the
    regression targets depend on the level, so the pass carries the levels
    on a leading axis and does the rest once per step: the features, the
    grouping of paths by regime, the factorization of each (step, regime)
    fit with its rank and ridge decision, and the running reward.  Each
    level's arithmetic reads that level alone, so its
    result does not depend on the other levels; ``ridge_events`` and
    ``carried_cells`` depend on the features only and are shared.

    The bundle is read in place: each step takes its rows from the
    bundle's step-major state and regime buffers, gathering the kept rows
    when paths were excluded.  Working memory is one (L, A, M) stack of
    continuation values and a few (L, M) rows.  A bundle simulated under
    another spec raises ``ValueError``.
    """
    levels = _checked_levels(levels)
    if bundle.spec.fingerprint() != spec.fingerprint():
        raise ValueError("spec mismatch between solver artifacts")
    keep = bundle.included()
    m_used = int(keep.sum())
    if m_used == 0:
        raise ValueError("no paths")
    # the bundle's step-major buffers, as views
    states = bundle.states.transpose(1, 0, 2)
    regimes = bundle.regimes.T
    at_step = _kept_rows_reader(keep)
    n_time_steps, time_grid = bundle.n_steps, bundle.time_grid
    dt = float(time_grid[1] - time_grid[0])
    weights = spec.randomization.lambda0_weights
    n_controls = spec.control.size
    n_levels = len(levels)
    level_dt = np.array(levels) * dt
    regime_dtype = np.min_scalar_type(n_controls - 1)  # small: radix sort

    # regression targets: target[l, i] = v^{n_l}(t_{k+1}, X_{i,k+1}, i_k)
    g_terminal = spec.coefficients.g(at_step(states, n_time_steps))
    target = np.tile(g_terminal, (n_levels, 1))
    tilde = np.empty((n_levels, n_controls, m_used))
    controls = tilde.transpose(1, 0, 2)     # control-major view
    s_int = np.zeros((n_levels, m_used))
    ridge_events, carried, betas_prev = [], [], [None] * n_controls
    rows = np.arange(m_used)

    def at_regime(regime, cols):
        # tilde[l, regime[j], cols[j]] for every level l, as (L, len(cols));
        # the regime path may be one byte wide, so widen before the index
        return np.take(tilde.reshape(n_levels, -1),
                       regime.astype(np.intp) * m_used + cols, axis=1)

    def fit_step(k, i_k, counts, target, betas_prev):
        # fills ``tilde`` at step k and returns each regime's coefficients;
        # the sorted copies die before the fill, the features on return
        t_k = float(time_grid[k])
        x_k = at_step(states, k)
        phi = _monomial_features(x_k, LSMC_DEGREE)
        # rows grouped by regime, in path order within each regime, so
        # every slice is the least-squares problem a boolean mask selects
        order = np.argsort(i_k.astype(regime_dtype), kind="stable")
        bounds = np.cumsum(counts)
        phi_sorted = np.take(phi, order, axis=0)
        target_sorted = np.take(target, order, axis=1)
        betas = [None] * n_controls
        pooled = None
        for a in range(n_controls):
            lo, hi = (bounds[a - 1] if a else 0), bounds[a]
            if hi > lo:
                betas[a], used_ridge = _fit_regime(
                    phi_sorted[lo:hi], target_sorted[:, lo:hi])
                if used_ridge:
                    ridge_events.append((k, a))
            else:
                # no rows in this regime: fill the value column from the
                # previous step's fit (or a pooled fit), but keep the cell
                # out of the advantage estimate - no data, no advantage
                if betas_prev[a] is None and pooled is None:
                    pooled, _ = _fit_regime(phi, target)
                betas[a] = pooled if betas_prev[a] is None else betas_prev[a]
                carried.append((k, a))
        del order, phi_sorted, target_sorted
        for a in range(n_controls):
            f_dt = spec.coefficients.f(t_k, x_k[:, :spec.dim],
                                       float(spec.control.points[a])) * dt
            for l in range(n_levels):
                np.matmul(phi, betas[a][l], out=tilde[l, a])
                tilde[l, a] += f_dt
        return betas

    i_k = at_step(regimes, n_time_steps - 1)
    for k in range(n_time_steps - 1, -1, -1):
        counts = np.bincount(i_k, minlength=n_controls)
        betas = fit_step(k, i_k, counts, target, betas_prev)

        # the penalty at the regime each path holds; a cell with no rows
        # has no advantage estimate
        w_k = weights * (counts > 0)
        own = at_regime(i_k, rows)
        r_pos = _advantage(controls, own, w_k)
        v_own = level_dt[:, None] * r_pos
        v_own += own
        del own
        s_int += dt * r_pos
        del r_pos
        betas_prev = betas
        if k:
            # the next targets read the value at the regime of step k-1,
            # which differs from i_k only on the paths that switch
            i_prev = at_step(regimes, k - 1)
            moved = np.flatnonzero(i_prev != i_k)
            own = at_regime(i_prev[moved], moved)
            # gathered from the contiguous stack: ``np.take`` would copy
            # the whole control-major view first
            adv = _advantage(np.take(tilde, moved, axis=2).transpose(1, 0, 2),
                             own, w_k)
            v_own[:, moved] = level_dt[:, None] * adv + own
            del own, adv
            target, i_k = v_own, i_prev

    # the loop ends at step 0, so ``v_own`` holds the step-0 values and
    # ``target`` the step-0 targets
    y0 = v_own.mean(axis=1)
    y0_se = target.std(axis=1, ddof=1) / math.sqrt(m_used)
    return tuple(BsdeQuintuple(
        level_n=n, time_grid=time_grid, y0=float(y0[l]),
        y0_se=float(y0_se[l]), n_paths=m_used,
        n_excluded=int(bundle.n_excluded), constraint_integral=s_int[l],
        ridge_events=tuple(ridge_events), carried_cells=tuple(carried),
        metadata={"solver": "lsmc", "level_n": n, "dt": dt,
                  "degree": LSMC_DEGREE,
                  "stability": n * dt * spec.randomization.total_mass,
                  "fingerprint": spec.fingerprint(), "seed": bundle.seed,
                  "n_time_steps": n_time_steps})
        for l, n in enumerate(levels))


def _kept_rows_reader(keep: np.ndarray):
    """``at_step(buf, k)``: step k's rows of the kept paths from a
    step-major buffer, contiguous; gathered only when paths are excluded."""
    kept = None if keep.all() else np.flatnonzero(keep)

    def at_step(buf, k):
        return (np.ascontiguousarray(buf[k]) if kept is None
                else np.take(buf[k], kept, axis=0))
    return at_step


# ---------------------------------------------------------------------------
# Constraint diagnostics
# ---------------------------------------------------------------------------

def constraint_gap(fields, bundle) -> tuple[ConstraintReport, ...]:
    """Penalty pressure at each level of a lattice ladder.

    ``phi`` is the squared mean of the pathwise constraint integral
    int sum_b (advantage)^+ lambda0(b) dt; ``k_ratio`` is the second moment
    of the accumulated compensator divided by the squared level.  Both are
    expected to shrink as the level grows.  ``fields`` are lattice fields
    on one lattice (a ladder's levels) and ``bundle`` holds reference paths
    on their time grid, along which each field's pre-penalty advantages are
    read off the lattice; each step interpolates all the fields'
    continuations with one stencil.  Returns one report per field, each
    reading that field alone.
    """
    fields = tuple(fields)
    if not fields or not all(isinstance(f, PenalizedField) for f in fields):
        raise TypeError("fields must be one or more PenalizedField")
    spec = bundle.spec
    axes = fields[0].grid.axes
    for fld in fields:
        if spec.fingerprint() != fld.metadata["fingerprint"]:
            raise ValueError("spec mismatch between solver artifacts")
        if not np.array_equal(bundle.time_grid, fld.time_grid):
            raise ValueError("the bundle's time grid is not the field's")
        if not all(np.array_equal(a, b) for a, b in zip(fld.grid.axes, axes)):
            raise ValueError("the fields do not share one lattice")

    keep = bundle.included()
    m_used = int(keep.sum())
    if m_used == 0:
        raise ValueError("no paths")
    states, regimes = bundle.states.transpose(1, 0, 2), bundle.regimes.T
    at_step = _kept_rows_reader(keep)
    weights = spec.randomization.lambda0_weights
    rows = np.arange(m_used)
    s = np.zeros((len(fields), m_used))
    for k in range(fields[0].n_steps):
        stacked = np.stack([fld.continuation[k] for fld in fields], axis=-1)
        cont_all, _ = transition.multilinear(axes, stacked,
                                             at_step(states, k))
        i_k = at_step(regimes, k)
        for l, fld in enumerate(fields):
            cont = cont_all[..., l]
            own = cont[rows, i_k]
            dt = float(fld.time_grid[1] - fld.time_grid[0])
            s[l] += dt * (np.maximum(cont - own[:, None], 0.0) @ weights)
    return tuple(_constraint_report(fld.level_n, s_l)
                 for fld, s_l in zip(fields, s))


def _constraint_report(level_n: int, s: np.ndarray) -> ConstraintReport:
    """The report of one level from its pathwise constraint integrals."""
    return ConstraintReport(
        level_n=level_n, phi=float(s.mean() ** 2),
        k_ratio=float((s ** 2).mean()), mean_integral=float(s.mean()),
        se_integral=float(s.std(ddof=1) / math.sqrt(s.size)),
        n_paths=s.size)


# ---------------------------------------------------------------------------
# Level ladder
# ---------------------------------------------------------------------------

def minimal_value(spec: ProblemSpec, levels, n_time_steps: int,
                  on) -> LadderReport:
    """Ladder of penalization levels on one common time grid.

    ``on`` is what the ladder runs on: a :class:`LatticeGrid` for the
    lattice route, or a reference path bundle on ``n_time_steps`` steps
    for the regression route (ValueError on another step count).  The
    common grid keeps lattice levels nodewise comparable, so their
    monotonicity in the level is checked exactly; regression levels may
    drop by ``se_multiplier`` (from ``spec.tolerances``) standard errors of
    the difference.  The limit is the largest level's value.
    """
    levels = tuple(int(n) for n in levels)
    if sorted(levels) != list(levels) or len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly increasing")

    values, ses = [], []
    monotone_violation = 0.0
    if isinstance(on, LatticeGrid):
        solver = "grid"
        per_level = solve_penalized_grid_ladder(spec, levels, n_time_steps,
                                                on)
        for fld in per_level:
            values.append(fld.value_at_origin(spec))
            ses.append(0.0)
        for lo, hi in zip(per_level, per_level[1:]):
            monotone_violation = max(monotone_violation,
                                     float((lo.values - hi.values).max()))
    else:
        solver = "lsmc"
        if on.n_steps != n_time_steps:
            raise ValueError(f"the bundle's step count {on.n_steps} is not "
                             f"{n_time_steps!r}")
        per_level = solve_penalized_lsmc_ladder(spec, levels, on)
        se_mult = spec.tolerances["se_multiplier"]
        for quint in per_level:
            values.append(quint.y0)
            ses.append(quint.y0_se)
            if len(values) >= 2:
                drop = values[-2] - values[-1]
                slack = se_mult * math.hypot(ses[-1], ses[-2])
                monotone_violation = max(monotone_violation,
                                         float(drop - slack))

    return LadderReport(
        solver=solver, levels=levels, values=tuple(values), ses=tuple(ses),
        monotone_ok=monotone_violation <= spec.tolerances["tol_monotone"],
        monotone_max_violation=float(monotone_violation),
        value_limit=float(values[-1]),
        n_time_steps=n_time_steps, fingerprint=spec.fingerprint(),
        kernel=per_level[-1].metadata.get("kernel", ""),
        per_level=per_level)


# ---------------------------------------------------------------------------
# Dynamic-programming consistency of the randomized formulation
# ---------------------------------------------------------------------------

def check_randomized_dpp(fld: PenalizedField, spec: ProblemSpec,
                         t_prime: float, n_paths: int, seed: int) -> dict:
    """Restart-at-``t_prime`` consistency of the solved field.

    Simulates the controlled system to an interior time under a small
    family of intensity tilts (reference, and advantage-seeking tilts at
    two strengths built from the field itself), adds the field value at the
    reached point, and compares the best achieved gain with the field's
    initial value.  The two agree within ``se_multiplier`` standard errors
    plus ``tol_value`` (both from ``spec.tolerances``) when the field is
    internally time-consistent.
    """
    k_prime, t_snap = fld.snap_time(t_prime)
    if k_prime < 1 or k_prime > fld.n_steps:
        raise ValueError("t_prime must snap to an interior time node")
    if fld.metadata["fingerprint"] != spec.fingerprint():
        raise ValueError("spec mismatch between solver artifacts")

    level_n = fld.level_n
    cands = [girsanov.IntensityControl.const(1.0)]
    for strength in {max(2.0, level_n / 4.0), float(max(2, level_n))}:
        cands.append(girsanov.IntensityControl.argmax_tilt(
            fld.time_grid, fld.grid.axes, fld.values, strength))
    spec_cut = dataclasses.replace(spec, horizon=t_snap)

    estimates = []
    for i, nu in enumerate(cands):
        bundle = girsanov.simulate_tilted_theta(
            nu, spec_cut, seed + 7919 * i, n_paths, n_steps=k_prime)
        keep = bundle.included()
        x_end = bundle.states[keep, -1, :]
        i_end = bundle.regimes[keep, -1]
        tail = np.empty(x_end.shape[0])
        for a in range(spec.control.size):
            rows = i_end == a
            if np.any(rows):
                tail[rows] = fld.value_at_node(k_prime, x_end[rows], a)
        total = bundle.running_reward[keep] + tail
        estimates.append({
            "nu_id": nu.nu_id, "mean": float(total.mean()),
            "se": float(total.std(ddof=1) / math.sqrt(total.size)),
            "n_paths": int(total.size)})

    best = max(estimates, key=lambda e: e["mean"])
    v0 = fld.value_at_origin(spec)
    diff = best["mean"] - v0
    band = (spec.tolerances["se_multiplier"] * best["se"]
            + spec.tolerances["tol_value"])
    return {
        "t_prime": t_snap, "step_index": k_prime, "v0": v0,
        "best_gain": best["mean"], "best_nu": best["nu_id"],
        "diff": diff, "band": band, "ok": bool(abs(diff) <= band),
        "estimates": estimates,
    }
