"""Path simulation for controlled jump-diffusions.

The integrator is an exponential-Euler scheme: the dissipative linear part
acts through its exact semigroup, while ``b``, ``sigma``, ``gamma`` and the
jump compensator are evaluated at the left grid node.  Within a step the
drift, the compensator and the running reward are integrated exactly against
the regime path (occupation times per control value), so switching the
regime mid-step loses no order: the only frozen quantities are state and
time.  State jumps are applied after the semigroup map of their step, in
event order.

Regime paths come from a marked Poisson stream on the control grid; the same
sweep also supports thinning against a state-feedback intensity (used by the
tilted estimators), per-step feedback policies (used by rollouts), and fixed
regime schedules.  Everything is reproducible: path ``i`` of a bundle is a
pure function of ``(master seed, i)``.

Storage is step-major: the integrator writes an (N+1, M, D) state buffer
and an (N+1, M) regime buffer one contiguous row per step.  A bundle
exposes the two as ``(M, N+1, D)`` and ``(M, N+1)`` transposed views,
never copied, so it holds each path array once.  The regime buffer holds
control indices at the narrowest exact width, ``np.min_scalar_type(A -
1)`` for A controls (one byte, ``uint8``, for every registry grid); a
reader doing index arithmetic on it widens first, and every reader
accepts any integer width.  Consumers that sweep time (regression,
constraint diagnostics) transpose back and read contiguous rows in place.

Paths are integrated in blocks of at most ``SIM_BLOCK_PATHS``: each
block draws its own rows of every stream (``stream.uniform_block``'s
``first_row``), merges its own events, runs the step loop on its rows and
writes them into the bundle's buffers.  So what a simulation allocates
besides the bundle is sized by the block, not by M, and since every
path is a pure function of ``(seed, i)``, the bundle's bytes do not
depend on the block size.  A policy ``policy(k, t, states)`` and a tilt's
``rate`` are called with one block's rows and must return one value per
row.

The Brownian increments are the block's own step buffer: an (N, B, m)
transposed copy of its drawn (or replayed) rows, read one row per step
and freed with the block, so a bundle does not keep them.  Nothing
downstream reads them: the regression ladder reports values, not an
estimate of the Brownian integrand Z.  Drawn increments are recoverable
bit for bit, since row i of the ``STREAM_BROWNIAN`` block is a pure
function of ``(seed, i, N m)``.  An event at t in (t_k, t_{k+1}] belongs
to step k (``event_steps``), so ``regimes[:, k]`` is the regime held from
t_k to the step's first switch.  A block's jump and switch events are
merged into one table ordered by (step, slot, kind, path), where the slot
is an event's rank within its (step, path) group and switches come before
jumps of the same slot; each step then walks its (slot, kind) runs as
contiguous slices, each holding a path at most once.

Every simulation is a ``PathBundle`` from ``_simulate_core``; one path is
a 1-row bundle.  Every bundle starts at t = 0 from the spec's initial law
and steps on ``spec.time_grid(N)``, the grid of the lattice solvers too.
Its replay form is the one deterministic entry
point: ``_simulate_core(spec, M, seed, control="fixed", fixed_theta=...,
start_regimes=..., brownian=..., pi_events=...)`` replays given switch
events, (M, N, m) Brownian increments and jump events instead of drawing
them.  Event tables from outside must increase strictly inside
``(0, horizon]`` on each path, and switch marks must be indices on the
control grid; otherwise it raises ``ValueError``.  So do start regimes
and policy outputs that are not integers in [0, A).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import stream
from .problem import ProblemSpec, eval_terminal, update_running_functional

OVERFLOW_BOUND = 1e12
CSV_SCHEMA = "jumpctrl-paths@1"


# ---------------------------------------------------------------------------
# Event containers
# ---------------------------------------------------------------------------

class CsrEvents:
    """Path-major flattened event storage for a bundle."""

    __slots__ = ("times", "marks", "indptr")

    def __init__(self, times, marks, indptr):
        self.times = np.asarray(times, dtype=float)
        self.marks = np.asarray(marks)
        self.indptr = np.asarray(indptr, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.times.size)

    @property
    def n_paths(self) -> int:
        return int(self.indptr.size - 1)

    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def path_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_paths), self.counts())

    def rows(self, lo: int, hi: int) -> "CsrEvents":
        """Paths [lo, hi) as a table of their own, numbered from 0."""
        first, last = self.indptr[lo], self.indptr[hi]
        return CsrEvents(self.times[first:last], self.marks[first:last],
                         self.indptr[lo:hi + 1] - first)

    @staticmethod
    def stack(parts) -> "CsrEvents":
        """The tables of consecutive path ranges, as one table."""
        counts = np.concatenate([part.counts() for part in parts])
        return CsrEvents(np.concatenate([part.times for part in parts]),
                         np.concatenate([part.marks for part in parts]),
                         np.concatenate([[0], np.cumsum(counts)]))

    @staticmethod
    def from_flat(path_ids, times, marks, n_paths) -> "CsrEvents":
        order = np.lexsort((times, path_ids))
        p, t, m = path_ids[order], times[order], marks[order]
        indptr = np.zeros(n_paths + 1, dtype=np.int64)
        np.add.at(indptr, p + 1, 1)
        return CsrEvents(t, m, np.cumsum(indptr))


@dataclass
class PathBundle:
    """Vectorized collection of simulated paths with shared drivers."""

    spec: ProblemSpec
    seed: int
    time_grid: np.ndarray           # (N+1,) spec.time_grid(N)
    states: np.ndarray              # (M, N+1, total_dim)
    regimes: np.ndarray             # (M, N+1) right-continuous control index,
                                    # dtype np.min_scalar_type(A - 1)
    pi: CsrEvents                   # state-jump events (marks = z values)
    theta: CsrEvents                # regime-switch events (marks = indices)
    running_reward: np.ndarray      # (M,) integral of f along each path
    excluded: np.ndarray            # (M,) bool overflow flags
    control_mode: str               # "randomized" | "tilted" | ...

    @property
    def n_paths(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.time_grid.size - 1)

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())

    def included(self) -> np.ndarray:
        return ~self.excluded

    def terminal_states(self) -> np.ndarray:
        return self.states[:, -1, :]


# ---------------------------------------------------------------------------
# Elementary generators
# ---------------------------------------------------------------------------

def _poisson_block(rate: float, span: float, seed: int, stream_id: int,
                   n_paths: int, first_row: int):
    """Kept events of a homogeneous stream on (0, span]; fixed budget.

    Returns (counts (M,), times (E,), mark_uniforms (E,)) of the M paths
    from ``first_row`` on, the events in (path, time) order.  The uniform
    block is those (M, 2B) rows of the stream: columns [0, B) drive
    inter-arrival times and [B, 2B) drive marks, so each path stays
    positionally pure.  A path keeps a prefix of its B arrivals, so its
    events are the first ``counts[i]`` columns of its row.  The block is
    released on return.
    """
    if rate <= 0.0 or span <= 0.0:
        return np.zeros(n_paths, dtype=np.int64), np.zeros(0), np.zeros(0)
    budget = stream.event_budget(rate, span)
    u = stream.uniform_block(seed, stream_id, n_paths, 2 * budget, first_row)
    times = stream.exponential_from_uniform(u[:, :budget])
    times /= rate
    np.cumsum(times, axis=1, out=times)
    keep = times <= span
    if np.any(keep[:, -1]):
        raise RuntimeError("event budget exceeded; rate too high for the "
                           "configured window")
    return keep.sum(axis=1), times[keep], u[:, budget:][keep]


def _categorical_from_uniform(u: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights) / weights.sum()
    return np.searchsorted(cum, u, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

def event_steps(time_grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The step owning each event: t in (t_k, t_{k+1}] belongs to step k,
    clipped to [0, N-1].  The integrator, the regression ladder and the
    tilt weights all place events by this rule."""
    return np.clip(np.searchsorted(time_grid, times, side="left") - 1,
                   0, time_grid.size - 2)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of nonnegative integer keys, as a radix sort when
    they fit in 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(int(keys.max()))),
                      kind="stable")


def _merge_event_table(time_grid, n_paths: int, pi: Optional[CsrEvents],
                       theta_path, theta_time, theta_mark, theta_accept_u):
    """Merge state-jump events and switch candidates into one sweep table.

    An event's slot is its rank in time within its (step, path) group.
    Events are ordered by (step, slot, kind, path) with switches (kind 1)
    before jumps (kind 0), so every (step, slot, kind) run is one
    contiguous slice that holds each path at most once.  Returns the
    permuted per-event columns plus the runs: ``run_lo``/``run_hi``
    bounds, ``run_kind``, and ``step_runs``, the (N+1,) offsets of each
    step's runs.
    """
    n_steps = time_grid.size - 1
    parts_path, parts_time = [], []
    parts_kind, parts_z, parts_mark, parts_u = [], [], [], []
    if pi is not None and pi.total:
        parts_path.append(pi.path_ids())
        parts_time.append(pi.times)
        parts_kind.append(np.zeros(pi.total, dtype=np.int8))
        parts_z.append(np.asarray(pi.marks, dtype=float))
        parts_mark.append(np.full(pi.total, -1, dtype=np.int64))
        parts_u.append(np.ones(pi.total))
    if theta_time is not None and theta_time.size:
        e = theta_time.size
        parts_path.append(theta_path)
        parts_time.append(theta_time)
        parts_kind.append(np.ones(e, dtype=np.int8))
        parts_z.append(np.zeros(e))
        parts_mark.append(theta_mark.astype(np.int64))
        parts_u.append(theta_accept_u if theta_accept_u is not None
                       else np.zeros(e))
    if not parts_path:
        return None
    path = np.concatenate(parts_path)
    time = np.concatenate(parts_time)
    kind = np.concatenate(parts_kind)

    step = event_steps(time_grid, time)
    # order by (step, path, time): stable sorts by step (a radix sort on a
    # small integer type) and then by group, and a time sort inside the few
    # groups left out of time order (the sources come in (path, time)
    # order, so only groups with events of both do)
    group = step * np.int64(n_paths) + path
    by_group = _stable_order(step)
    by_group = by_group[np.argsort(group[by_group], kind="stable")]
    g_sorted = group[by_group]
    is_start = np.diff(g_sorted, prepend=-1) != 0
    run_id = np.cumsum(is_start) - 1
    t_sorted = time[by_group]
    unsorted = np.flatnonzero(~is_start[1:] & (t_sorted[1:] < t_sorted[:-1]))
    if unsorted.size:
        bad_run = np.zeros(run_id[-1] + 1, dtype=bool)
        bad_run[run_id[unsorted]] = True
        fix = np.flatnonzero(bad_run[run_id])
        by_group[fix] = by_group[fix][np.lexsort((t_sorted[fix],
                                                  g_sorted[fix]))]
    slot = np.arange(run_id.size) - np.flatnonzero(is_start)[run_id]
    # then by (step, slot, kind), switches first; a stable sort keeps the
    # path order within each run
    run_key = step[by_group] * (int(slot.max()) + 1) + slot
    run_key *= 2
    run_key += 1 - kind[by_group]
    by_run = _stable_order(run_key)
    order = by_group[by_run]
    run_key = run_key[by_run]
    run_lo = np.flatnonzero(np.diff(run_key, prepend=-1))
    run_step = step[order[run_lo]]
    return {
        "path": path[order], "time": time[order],
        "z": np.concatenate(parts_z)[order],
        "mark": np.concatenate(parts_mark)[order],
        "u": np.concatenate(parts_u)[order],
        "run_lo": run_lo, "run_hi": np.append(run_lo[1:], order.size),
        "run_kind": kind[order[run_lo]],
        "step_runs": np.searchsorted(run_step, np.arange(n_steps + 1)),
    }


def _check_events(events: CsrEvents, n_paths: int, horizon: float,
                  name: str, n_marks=None) -> None:
    """Reject an outside event table: on each path the times must increase
    strictly inside (0, horizon]; with ``n_marks`` the marks must index a
    grid of that many points."""
    t, marks, starts = events.times, events.marks, events.indptr[:-1]
    if (marks.shape != t.shape or events.n_paths != n_paths
            or events.indptr[-1] != t.size):
        raise ValueError(f"{name} events need one mark per time on "
                         f"{n_paths} paths")
    later = np.ones(t.size, dtype=bool)
    later[starts[starts < t.size]] = False
    if not (np.all((t > 0.0) & (t <= horizon))
            and np.all(np.diff(t)[later[1:]] > 0.0)):
        raise ValueError(f"{name} event times must increase strictly inside "
                         f"(0, horizon] on each path")
    if n_marks is not None and not np.all(
            (marks == np.floor(marks)) & (marks >= 0) & (marks < n_marks)):
        raise ValueError(f"{name} marks must be indices on the control grid")


def _regime_indices(values, n_paths: int, n_controls: int,
                    name: str) -> np.ndarray:
    """``values`` as an (M,) int64 copy; ValueError unless each is an
    integer in [0, n_controls)."""
    arr = np.asarray(values)
    if not (arr.shape == (n_paths,) and arr.dtype.kind in "iuf"
            and np.all((arr == np.floor(arr)) & (arr >= 0)
                       & (arr < n_controls))):
        raise ValueError(f"{name} must be {n_paths} indices on the control "
                         f"grid of {n_controls} points")
    return arr.astype(np.int64)


#: Paths integrated at a time.  Each block draws its own rows of every
#: stream and merges and steps its own events, so the random-number blocks,
#: the event table and the step loop's work arrays are sized by the block,
#: not by the bundle.
SIM_BLOCK_PATHS = 8192


def _simulate_core(spec: ProblemSpec, n_paths: int, seed: int,
                   n_steps: Optional[int] = None,
                   control: str = "randomized",
                   tilt=None,
                   policy: Optional[Callable] = None,
                   fixed_theta: Optional[CsrEvents] = None,
                   start_regimes: Optional[np.ndarray] = None,
                   brownian: Optional[np.ndarray] = None,
                   pi_events: Optional[CsrEvents] = None) -> PathBundle:
    """Shared engine behind every simulation; see the module docstring.

    ``control`` picks the regime path: "randomized" (the reference switch
    stream), "tilted" (thinned against ``tilt``), "policy" (``policy(k, t,
    states)`` per step) or "fixed" (``fixed_theta`` from ``start_regimes``).
    ``brownian`` and ``pi_events``, when given, replace the drawn Brownian
    increments and jump events.  The inputs are checked for the whole
    bundle; the paths are then integrated ``SIM_BLOCK_PATHS`` at a time
    (:func:`_simulate_block`) into the bundle's arrays.
    """
    horizon = spec.horizon
    if n_steps is None:
        n_steps = spec.default_steps()
    time_grid = spec.time_grid(n_steps)
    n_controls = spec.control.size
    if brownian is not None:
        brownian = np.asarray(brownian, dtype=float).reshape(
            n_paths, n_steps, spec.brownian_dim)
    if pi_events is not None:
        _check_events(pi_events, n_paths, horizon, "pi")
    if control == "tilted" and tilt is None:
        raise ValueError("tilted simulation needs an intensity control")
    if control == "fixed":
        if fixed_theta is None:
            raise ValueError("fixed control needs a theta event table")
        _check_events(fixed_theta, n_paths, horizon, "theta",
                      n_marks=n_controls)
    elif control == "policy":
        if policy is None:
            raise ValueError("policy control needs a policy callable")
    elif control not in ("randomized", "tilted"):
        raise ValueError(f"unknown control mode {control!r}")
    if start_regimes is None:
        start = np.full(n_paths, spec.randomization.a0_index, dtype=np.int64)
    else:
        start = _regime_indices(start_regimes, n_paths, n_controls,
                                "start regimes")

    # --- the bundle's arrays: step-major, each step one contiguous row ----
    state_buf = np.zeros((n_steps + 1, n_paths, spec.total_dim))
    regime_buf = np.zeros((n_steps + 1, n_paths),
                          dtype=np.min_scalar_type(n_controls - 1))
    running_reward = np.zeros(n_paths)
    excluded = np.zeros(n_paths, dtype=bool)
    pi_parts, theta_parts = [], []
    # a 0-path call runs one empty block
    for lo in range(0, max(n_paths, 1), SIM_BLOCK_PATHS):
        hi = min(lo + SIM_BLOCK_PATHS, n_paths)
        pi, theta = _simulate_block(
            spec, seed, time_grid, control, tilt, policy, lo, start[lo:hi],
            None if brownian is None else brownian[lo:hi],
            None if pi_events is None else pi_events.rows(lo, hi),
            None if fixed_theta is None else fixed_theta.rows(lo, hi),
            state_buf[:, lo:hi], regime_buf[:, lo:hi],
            running_reward[lo:hi], excluded[lo:hi])
        pi_parts.append(pi)
        theta_parts.append(theta)

    n_exc = int(excluded.sum())
    if n_exc:
        warnings.warn(f"{n_exc} path(s) overflowed and were frozen/excluded",
                      RuntimeWarning)

    return PathBundle(
        spec=spec, seed=seed, time_grid=time_grid,
        states=state_buf.transpose(1, 0, 2), regimes=regime_buf.T,
        pi=pi_events if pi_events is not None else CsrEvents.stack(pi_parts),
        theta=(fixed_theta if control == "fixed"
               else CsrEvents.stack(theta_parts)),
        running_reward=running_reward, excluded=excluded,
        control_mode=control)


def _simulate_block(spec: ProblemSpec, seed: int, time_grid: np.ndarray,
                    control: str, tilt, policy, first_row: int,
                    cur_reg: np.ndarray, brownian, pi, theta,
                    state_buf: np.ndarray, regime_buf: np.ndarray,
                    running_reward: np.ndarray, excluded: np.ndarray):
    """Integrate the paths from ``first_row`` on into their bundle rows.

    ``state_buf`` (N+1, M, D), ``regime_buf`` (N+1, M), ``running_reward``
    and ``excluded`` (M,) are the block's views of the bundle's arrays, and
    ``cur_reg`` its (M,) start regimes.  ``brownian``, ``pi`` and
    ``theta`` are the block's rows of the replay inputs, or None; the
    block draws its own rows of every other stream.  Returns the block's
    (pi, theta) event tables, rows numbered from 0.
    """
    n_paths = cur_reg.size
    n_steps = time_grid.size - 1
    horizon = spec.horizon
    dt = horizon / n_steps
    d, m_brown = spec.dim, spec.brownian_dim
    n_controls = spec.control.size
    a_values = spec.control.points
    coeff = spec.coefficients
    jump = spec.jump_measure

    # --- initial states ----------------------------------------------------
    if spec.initial_law.kind == "point":
        core0 = np.repeat(spec.initial_law.mean[None, :], n_paths, axis=0)
    else:
        normals = stream.normal_block(seed, stream.STREAM_INIT, n_paths, d,
                                      first_row)
        core0 = (spec.initial_law.mean[None, :]
                 + np.sqrt(spec.initial_law.cov_diag)[None, :] * normals)
    state_buf[0] = spec.initial_augmented(core0)

    # --- Brownian increments and events -----------------------------------
    # increments step-major, (N, M, m): one transposed copy of the drawn
    # (or replayed) path-major rows
    brownian_buf = np.empty((n_steps, n_paths, m_brown))
    if brownian is None:
        raw = stream.normal_block(seed, stream.STREAM_BROWNIAN, n_paths,
                                  n_steps * m_brown, first_row)
        np.multiply(raw.reshape(n_paths, n_steps, m_brown).transpose(1, 0, 2),
                    np.sqrt(dt), out=brownian_buf)
        del raw
    else:
        brownian_buf[...] = brownian.transpose(1, 0, 2)

    if pi is None:
        counts, times, mu = _poisson_block(jump.total_rate, horizon, seed,
                                           stream.STREAM_PI, n_paths,
                                           first_row)
        z = jump.sample_marks(mu) if mu.size else np.zeros(0)
        pi = CsrEvents(times, z, np.concatenate([[0], np.cumsum(counts)]))

    theta_accept_u = None
    th_path = th_time = th_mark = None
    if control in ("randomized", "tilted"):
        rate = spec.randomization.total_mass
        if control == "tilted":
            rate *= float(tilt.nu_max)
        counts, th_time, t_mu = _poisson_block(
            rate, horizon, seed, stream.STREAM_THETA, n_paths, first_row)
        th_path = np.repeat(np.arange(n_paths), counts)
        th_mark = _categorical_from_uniform(
            t_mu, spec.randomization.lambda0_weights)
        if control == "randomized":
            theta = CsrEvents(th_time, th_mark,
                              np.concatenate([[0], np.cumsum(counts)]))
        if control == "tilted" and rate > 0.0:
            # acceptance uniforms of the kept proposals, a prefix of each row
            budget = stream.event_budget(rate, horizon)
            theta_accept_u = stream.uniform_block(
                seed, stream.STREAM_ACCEPT, n_paths, budget, first_row)[
                np.arange(budget) < counts[:, None]]
    elif control == "fixed":
        th_path = theta.path_ids()
        th_time = theta.times
        th_mark = np.asarray(theta.marks, dtype=np.int64)

    table = _merge_event_table(time_grid, n_paths, pi, th_path, th_time,
                               th_mark, theta_accept_u)

    acc_p = [np.zeros(0, dtype=np.int64)]
    acc_t, acc_m = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    decay = spec.decay_factor(dt)[None, :]
    rows = np.arange(n_paths)
    # per-step working arrays, allocated once
    occ = np.empty((n_paths, n_controls))
    last_switch = np.empty(n_paths)
    jump_acc = np.empty((n_paths, d))
    drift = np.empty((n_paths, d))
    sig = np.empty((n_paths, d, m_brown))
    if table is None:
        step_runs = np.zeros(n_steps + 1, dtype=np.int64)
    else:
        ev_path, ev_time, ev_z = table["path"], table["time"], table["z"]
        ev_mark, ev_u = table["mark"], table["u"]
        run_lo, run_hi = table["run_lo"], table["run_hi"]
        run_kind, step_runs = table["run_kind"], table["step_runs"]

    for k in range(n_steps):
        t_k = float(time_grid[k])
        t_next = float(time_grid[k + 1])
        x_k = state_buf[k]
        x_left = x_k[:, :d]
        if control == "policy":
            cur_reg = _regime_indices(policy(k, t_k, x_k), n_paths,
                                      n_controls, "policy outputs")
        regime_buf[k] = cur_reg

        occ.fill(0.0)
        last_switch.fill(t_k)
        jump_acc.fill(0.0)

        # one contiguous run per (slot, kind): switch candidates of a slot
        # (acceptance, occupation, regime) before its state jumps
        for r in range(step_runs[k], step_runs[k + 1]):
            lo, hi = run_lo[r], run_hi[r]
            p = ev_path[lo:hi]
            if run_kind[r]:
                et, mk = ev_time[lo:hi], ev_mark[lo:hi]
                if control == "tilted":
                    nu_val = tilt.rate(t_k, x_k[p], cur_reg[p], mk)
                    ok = np.flatnonzero(ev_u[lo:hi] * tilt.nu_max <= nu_val)
                    p, et, mk = p[ok], et[ok], mk[ok]
                    acc_p.append(p)
                    acc_t.append(et)
                    acc_m.append(mk)
                occ[p, cur_reg[p]] += et - last_switch[p]
                cur_reg[p] = mk
                last_switch[p] = et
            elif spec.has_jumps:
                # gamma at the left node, pre-switch regime
                pre, zz = cur_reg[p], ev_z[lo:hi]
                for ai in range(n_controls):
                    grp = np.flatnonzero(pre == ai)
                    if grp.size:
                        pg = p[grp]
                        jump_acc[pg] += coeff.gamma(
                            t_k, x_left[pg], float(a_values[ai]), zz[grp])

        occ[rows, cur_reg] += t_next - last_switch

        # drift, compensator and running reward: exact in the regime path
        drift.fill(0.0)
        for ai in range(n_controls):
            w = occ[:, ai]
            if not np.any(w > 0):
                continue
            a_val = float(a_values[ai])
            drift += coeff.b(t_k, x_left, a_val) * w[:, None]
            running_reward += coeff.f(t_k, x_left, a_val) * w
            if spec.has_jumps:
                drift -= (jump.total_rate * spec.mean_jump(t_k, x_left, a_val)
                          * w[:, None])

        reg_k = regime_buf[k]
        for ai in range(n_controls):
            grp = np.flatnonzero(reg_k == ai)
            if grp.size:
                sig[grp] = coeff.sigma(t_k, x_left[grp], float(a_values[ai]))
        diffusion = np.einsum("pdm,pm->pd", sig, brownian_buf[k])

        x_next = state_buf[k + 1, :, :d]
        np.add(x_left, drift, out=x_next)
        x_next += diffusion
        x_next *= decay
        x_next += jump_acc

        # non-finite or beyond the bound; NaN fails every comparison
        bad = ~(np.abs(x_next) <= OVERFLOW_BOUND).all(axis=1)
        frozen = excluded | bad
        if np.any(frozen):
            np.copyto(x_next, x_left, where=frozen[:, None])
        excluded |= bad

        if spec.aug_dim:
            state_buf[k + 1, :, d] = update_running_functional(
                spec.augmentation, x_k[:, d], x_left[:, 0], x_next[:, 0], dt)
    regime_buf[n_steps] = cur_reg

    if control in ("tilted", "policy"):
        theta = CsrEvents.from_flat(np.concatenate(acc_p),
                                    np.concatenate(acc_t),
                                    np.concatenate(acc_m), n_paths)
    return pi, theta


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def simulate_bundle(spec: ProblemSpec, n_paths: int, seed: int,
                    n_steps: Optional[int] = None) -> PathBundle:
    """Simulate paths under the reference randomized dynamics."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    return _simulate_core(spec, n_paths, seed, n_steps=n_steps,
                          control="randomized")


def terminal_rewards(bundle: PathBundle) -> np.ndarray:
    """g at the terminal (augmented) state, per path."""
    return eval_terminal(bundle.spec, bundle.terminal_states())


def total_gain(bundle: PathBundle) -> np.ndarray:
    """Running reward plus terminal reward, per path."""
    return bundle.running_reward + terminal_rewards(bundle)


# ---------------------------------------------------------------------------
# Columnar export
# ---------------------------------------------------------------------------

#: Rows formatted and written per chunk by ``write_csv_columns``.
CSV_CHUNK_ROWS = 8192


def write_csv_columns(csv_path, header, columns) -> None:
    """RFC-4180 CSV from equal-length 1-d numeric columns, CRLF line ends.

    A float cell is the ``repr`` of the Python float, the shortest text that
    parses back to the same double; an integer cell is the Python int's.
    Rows are formatted and written ``CSV_CHUNK_ROWS`` at a time, so the text
    held in memory does not grow with the file.  Within a chunk each
    distinct value of a column is formatted once (``_chunk_cells``).
    Raises ``ValueError`` unless there is one header name per column, at
    least one column, and every column has the same length.
    """
    columns = [np.asarray(col) for col in columns]
    if not columns:
        raise ValueError("CSV needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, "
                         f"{len(columns)} given")
    n_rows = len(columns[0])
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = [_chunk_cells(col[lo:lo + CSV_CHUNK_ROWS])
                     for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _chunk_cells(col: np.ndarray) -> list:
    """The ``repr`` text of each cell, each distinct value formatted once.

    Values are keyed by their bit pattern, so ``-0.0`` and ``0.0`` keep
    their own text.
    """
    keys, rows = np.unique(col.view(f"u{col.dtype.itemsize}"),
                           return_inverse=True)
    texts = np.array(list(map(repr, keys.view(col.dtype).tolist())),
                     dtype=object)
    return texts[rows].tolist()


def _state_columns(spec: ProblemSpec) -> list:
    """CSV names of the (augmented) state coordinates."""
    cols = [f"x{i}" for i in range(spec.dim)]
    if spec.aug_dim:
        cols.append("running")
    return cols


def write_bundle_csv(bundle: PathBundle, csv_path: str,
                     sidecar_path: Optional[str] = None) -> None:
    """RFC-4180 CSV, one row per (path, grid time); JSON sidecar metadata."""
    spec = bundle.spec
    n_times = bundle.time_grid.size
    rows = bundle.n_paths * n_times
    write_csv_columns(
        csv_path, ["path", "t", *_state_columns(spec), "regime", "excluded"],
        [np.repeat(np.arange(bundle.n_paths), n_times),
         np.tile(bundle.time_grid, bundle.n_paths),
         *bundle.states.reshape(rows, -1).T,
         bundle.regimes.reshape(rows),
         np.repeat(bundle.excluded.astype(np.int64), n_times)])
    if sidecar_path is not None:
        meta = {
            "schema_version": CSV_SCHEMA,
            "family": spec.coefficients.family,
            "fingerprint": spec.fingerprint(),
            "seed": bundle.seed,
            "scheme": "exponential-euler",
            "control_mode": bundle.control_mode,
            "n_paths": bundle.n_paths,
            "n_steps": bundle.n_steps,
            "t0": 0.0,
            "horizon": float(bundle.time_grid[-1]),
            "n_excluded": bundle.n_excluded,
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
