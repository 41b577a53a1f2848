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

Every simulation is a ``PathBundle`` from ``_simulate_core``; one path is
a 1-row bundle.  Its replay form is the one deterministic entry
point: ``_simulate_core(spec, M, seed, control="fixed", fixed_theta=...,
start_regimes=..., brownian=..., pi_events=...)`` replays given switch
events, (M, N, m) Brownian increments and jump events instead of drawing
them.  Event tables from outside must increase strictly inside
``(t0, horizon]`` on each path, and switch marks must be indices on the
control grid; otherwise it raises ``ValueError``.
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
    t0: float
    time_grid: np.ndarray           # (N+1,)
    states: np.ndarray              # (M, N+1, total_dim)
    regimes: np.ndarray             # (M, N+1) right-continuous control index
    brownian_increments: np.ndarray  # (M, N, m)
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

    def theta_segments(self):
        """(path, start, end, regime) flat arrays of the regime path."""
        if self.control_mode == "policy":
            raise ValueError("segments are only defined for event-driven "
                             "regime paths, not per-step policies")
        return _segments_from_events(self.theta, self.regimes[:, 0],
                                     self.t0, float(self.time_grid[-1]))

    def step_occupation(self, k: int) -> np.ndarray:
        """(M, A) time spent in each regime during step k."""
        segs = self.theta_segments()
        return _occupation_rows(segs, float(self.time_grid[k]),
                                float(self.time_grid[k + 1]),
                                self.n_paths, self.spec.control.size)


# ---------------------------------------------------------------------------
# Elementary generators
# ---------------------------------------------------------------------------

def _poisson_block(rate: float, span: float, t0: float, seed: int,
                   stream_id: int, n_paths: int):
    """Times and mark-uniforms for a homogeneous stream; fixed budget.

    Returns (times (M, B), keep (M, B) bool, mark_uniforms (M, B)).  The
    uniform block is (M, 2B): columns [0, B) drive inter-arrival times and
    [B, 2B) drive marks, so each path stays positionally pure.
    """
    if rate <= 0.0 or span <= 0.0:
        empty = np.zeros((n_paths, 0))
        return empty, empty.astype(bool), empty
    budget = stream.event_budget(rate, span)
    u = stream.uniform_block(seed, stream_id, n_paths, 2 * budget)
    inter = stream.exponential_from_uniform(u[:, :budget]) / rate
    times = t0 + np.cumsum(inter, axis=1)
    keep = times <= t0 + span
    if np.any(keep[:, -1]):
        raise RuntimeError("event budget exceeded; rate too high for the "
                           "configured window")
    return times, keep, u[:, budget:]


def _categorical_from_uniform(u: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights) / weights.sum()
    return np.searchsorted(cum, u, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# Regime-path bookkeeping
# ---------------------------------------------------------------------------

class _Segments:
    __slots__ = ("path", "start", "end", "regime")

    def __init__(self, path, start, end, regime):
        self.path, self.start, self.end, self.regime = path, start, end, regime


def _segments_from_events(theta: CsrEvents, start_regimes: np.ndarray,
                          t0: float, horizon: float) -> _Segments:
    """Flat constant-regime segments [(start, end) x regime] per path."""
    m = theta.n_paths
    counts = theta.counts()
    total = theta.total
    n_seg = m + total
    seg_path = np.repeat(np.arange(m), counts + 1)
    start = np.empty(n_seg)
    end = np.empty(n_seg)
    regime = np.empty(n_seg, dtype=np.int64)
    block_start = theta.indptr[:-1] + np.arange(m)
    ev_rows = np.repeat(np.arange(m), counts)
    ev_slots = np.arange(total) + ev_rows + 1
    start[block_start] = t0
    start[ev_slots] = theta.times
    regime[block_start] = start_regimes
    regime[ev_slots] = theta.marks.astype(np.int64)
    end[:-1] = start[1:]
    end[block_start + counts] = horizon
    return _Segments(seg_path, start, end, regime)


def _occupation_rows(segs: _Segments, t_lo: float, t_hi: float,
                     n_paths: int, n_controls: int) -> np.ndarray:
    ov = np.minimum(segs.end, t_hi) - np.maximum(segs.start, t_lo)
    m = ov > 0.0
    flat = np.bincount(segs.path[m] * n_controls + segs.regime[m],
                       weights=ov[m], minlength=n_paths * n_controls)
    return flat.reshape(n_paths, n_controls)


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

def _merge_event_table(time_grid, n_paths: int, pi: Optional[CsrEvents],
                       theta_path, theta_time, theta_mark, theta_accept_u):
    """Merge state-jump events and switch candidates into one sweep table.

    Returns per-event arrays sorted by (step, path, time) plus the slot
    index of each event within its (step, path) group and contiguous
    per-step ranges.
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
    z = np.concatenate(parts_z)
    mark = np.concatenate(parts_mark)
    u = np.concatenate(parts_u)

    step = np.clip(np.searchsorted(time_grid, time, side="left") - 1,
                   0, n_steps - 1)
    order = np.lexsort((time, path, step))
    path, time, kind, z, mark, u, step = (
        arr[order] for arr in (path, time, kind, z, mark, u, step))
    group = step.astype(np.int64) * np.int64(n_paths) + path
    first = np.searchsorted(group, group, side="left")
    slot = np.arange(group.size) - first
    starts = np.searchsorted(step, np.arange(n_steps), side="left")
    ends = np.searchsorted(step, np.arange(n_steps), side="right")
    return {
        "path": path, "time": time, "kind": kind, "z": z, "mark": mark,
        "u": u, "slot": slot, "starts": starts, "ends": ends,
    }


def _check_events(events: CsrEvents, n_paths: int, t0: float,
                  horizon: float, name: str, n_marks=None) -> None:
    """Reject an outside event table: on each path the times must increase
    strictly inside (t0, horizon]; with ``n_marks`` the marks must index a
    grid of that many points."""
    t, marks, starts = events.times, events.marks, events.indptr[:-1]
    if (marks.shape != t.shape or events.n_paths != n_paths
            or events.indptr[-1] != t.size):
        raise ValueError(f"{name} events need one mark per time on "
                         f"{n_paths} paths")
    later = np.ones(t.size, dtype=bool)
    later[starts[starts < t.size]] = False
    if not (np.all((t > t0) & (t <= horizon))
            and np.all(np.diff(t)[later[1:]] > 0.0)):
        raise ValueError(f"{name} event times must increase strictly inside "
                         f"(t0, horizon] on each path")
    if n_marks is not None and not np.all(
            (marks == np.floor(marks)) & (marks >= 0) & (marks < n_marks)):
        raise ValueError(f"{name} marks must be indices on the control grid")


def _simulate_core(spec: ProblemSpec, n_paths: int, seed: int,
                   n_steps: Optional[int] = None, t0: float = 0.0,
                   x0: Optional[np.ndarray] = None,
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
    increments and jump events.
    """
    horizon = spec.horizon
    if n_steps is None:
        n_steps = spec.default_steps(t0)
    span = horizon - t0
    if span <= 0:
        raise ValueError("t0 must lie strictly before the horizon")
    time_grid = t0 + span * np.arange(n_steps + 1) / n_steps
    dt = span / n_steps
    d, m_brown = spec.dim, spec.brownian_dim
    n_controls = spec.control.size
    a_values = spec.control.points
    coeff = spec.coefficients
    jump = spec.jump_measure

    # --- initial states ----------------------------------------------------
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(1, d)
        core0 = np.repeat(x0, n_paths, axis=0)
    elif spec.initial_law.kind == "point":
        core0 = np.repeat(spec.initial_law.mean[None, :], n_paths, axis=0)
    else:
        normals = stream.normal_block(seed, stream.STREAM_INIT, n_paths, d)
        core0 = (spec.initial_law.mean[None, :]
                 + np.sqrt(spec.initial_law.cov_diag)[None, :] * normals)

    # --- drivers -----------------------------------------------------------
    if brownian is None:
        raw = stream.normal_block(seed, stream.STREAM_BROWNIAN, n_paths,
                                  n_steps * m_brown)
        brownian = raw.reshape(n_paths, n_steps, m_brown) * np.sqrt(dt)
    else:
        brownian = np.asarray(brownian, dtype=float).reshape(
            n_paths, n_steps, m_brown)

    if pi_events is not None:
        _check_events(pi_events, n_paths, t0, horizon, "pi")
    else:
        times, keep, mu = _poisson_block(jump.total_rate, span, t0, seed,
                                         stream.STREAM_PI, n_paths)
        z = jump.sample_marks(mu[keep]) if keep.size else np.zeros(0)
        pi_events = CsrEvents(
            times[keep], z,
            np.concatenate([[0], np.cumsum(keep.sum(axis=1))]))

    rate0 = spec.randomization.total_mass
    theta_accept_u = None
    th_path = th_time = th_mark = None
    if control == "randomized":
        t_times, t_keep, t_mu = _poisson_block(
            rate0, span, t0, seed, stream.STREAM_THETA, n_paths)
        th_path = np.repeat(np.arange(n_paths), t_keep.sum(axis=1))
        th_time = t_times[t_keep]
        th_mark = _categorical_from_uniform(
            t_mu[t_keep], spec.randomization.lambda0_weights)
    elif control == "tilted":
        if tilt is None:
            raise ValueError("tilted simulation needs an intensity control")
        nu_max = float(tilt.nu_max)
        t_times, t_keep, t_mu = _poisson_block(
            nu_max * rate0, span, t0, seed, stream.STREAM_THETA, n_paths)
        th_path = np.repeat(np.arange(n_paths), t_keep.sum(axis=1))
        th_time = t_times[t_keep]
        th_mark = _categorical_from_uniform(
            t_mu[t_keep], spec.randomization.lambda0_weights)
        budget = t_times.shape[1]
        u_acc = stream.uniform_block(seed, stream.STREAM_ACCEPT, n_paths,
                                     budget) if budget else np.zeros((n_paths, 0))
        theta_accept_u = u_acc[t_keep]
    elif control == "fixed":
        if fixed_theta is None:
            raise ValueError("fixed control needs a theta event table")
        _check_events(fixed_theta, n_paths, t0, horizon, "theta",
                      n_marks=n_controls)
        th_path = fixed_theta.path_ids()
        th_time = fixed_theta.times
        th_mark = np.asarray(fixed_theta.marks, dtype=np.int64)
    elif control == "policy":
        if policy is None:
            raise ValueError("policy control needs a policy callable")
    else:
        raise ValueError(f"unknown control mode {control!r}")

    table = _merge_event_table(time_grid, n_paths, pi_events, th_path,
                               th_time, th_mark, theta_accept_u)

    # --- state arrays ------------------------------------------------------
    total_dim = spec.total_dim
    states = np.zeros((n_paths, n_steps + 1, total_dim))
    states[:, 0, :] = spec.initial_augmented(core0)
    regimes = np.zeros((n_paths, n_steps + 1), dtype=np.int64)
    if start_regimes is None:
        cur_reg = np.full(n_paths, spec.randomization.a0_index,
                          dtype=np.int64)
    else:
        cur_reg = np.asarray(start_regimes, dtype=np.int64).copy()
    excluded = np.zeros(n_paths, dtype=bool)
    running_reward = np.zeros(n_paths)
    acc_p = [np.zeros(0, dtype=np.int64)]
    acc_t, acc_m = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]

    decay = spec.decay_factor(dt)[None, :]
    has_jumps = jump.total_rate > 0.0 and coeff.gamma is not None
    if has_jumps:
        z_nodes, z_weights = jump.gauss_nodes(32)
    rows = np.arange(n_paths)

    for k in range(n_steps):
        t_k = float(time_grid[k])
        t_next = float(time_grid[k + 1])
        x_left = states[:, k, :d]
        if control == "policy":
            cur_reg = np.asarray(policy(k, t_k, states[:, k, :]),
                                 dtype=np.int64)
        regimes[:, k] = cur_reg

        occ = np.zeros((n_paths, n_controls))
        last_switch = np.full(n_paths, t_k)
        jump_acc = np.zeros((n_paths, d))

        if table is not None and table["starts"][k] < table["ends"][k]:
            lo, hi = table["starts"][k], table["ends"][k]
            sl_path = table["path"][lo:hi]
            sl_time = table["time"][lo:hi]
            sl_kind = table["kind"][lo:hi]
            sl_z = table["z"][lo:hi]
            sl_mark = table["mark"][lo:hi]
            sl_u = table["u"][lo:hi]
            sl_slot = table["slot"][lo:hi]
            for s in range(int(sl_slot.max()) + 1):
                at = sl_slot == s
                if not np.any(at):
                    break
                p = sl_path[at]
                tt = sl_time[at]
                kd = sl_kind[at]
                mk_at = sl_mark[at]
                z_at = sl_z[at]
                u_at = sl_u[at]
                # switch candidates first: acceptance, occupation, regime
                th = kd == 1
                if np.any(th):
                    pt, et, mk = p[th], tt[th], mk_at[th]
                    if control == "tilted":
                        nu_val = tilt.rate(t_k, states[pt, k, :],
                                           cur_reg[pt], mk)
                        ok = u_at[th] * tilt.nu_max <= nu_val
                    else:
                        ok = np.ones(pt.size, dtype=bool)
                    pa, ta, ma = pt[ok], et[ok], mk[ok]
                    occ[pa, cur_reg[pa]] += ta - last_switch[pa]
                    cur_reg[pa] = ma
                    last_switch[pa] = ta
                    if pa.size:
                        acc_p.append(pa)
                        acc_t.append(ta)
                        acc_m.append(ma)
                # state jumps: gamma at the left node, pre-switch regime
                pj = kd == 0
                if np.any(pj) and has_jumps:
                    pp, zz = p[pj], z_at[pj]
                    pre = cur_reg[pp]
                    for ai in range(n_controls):
                        grp = pre == ai
                        if not np.any(grp):
                            continue
                        gz = coeff.gamma(t_k, x_left[pp[grp]],
                                         float(a_values[ai]), zz[grp])
                        jump_acc[pp[grp]] += gz

        occ[rows, cur_reg] += t_next - last_switch

        # drift, compensator and running reward: exact in the regime path
        drift = np.zeros((n_paths, d))
        for ai in range(n_controls):
            w = occ[:, ai]
            if not np.any(w > 0):
                continue
            a_val = float(a_values[ai])
            drift += coeff.b(t_k, x_left, a_val) * w[:, None]
            running_reward += coeff.f(t_k, x_left, a_val) * w
            if has_jumps:
                comp = np.zeros((n_paths, d))
                for zi, zw in zip(z_nodes, z_weights):
                    comp += zw * coeff.gamma(t_k, x_left, a_val,
                                             np.full(n_paths, zi))
                drift -= jump.total_rate * comp * w[:, None]

        sig = np.empty((n_paths, d, m_brown))
        reg_k = regimes[:, k]
        for ai in range(n_controls):
            grp = reg_k == ai
            if not np.any(grp):
                continue
            sig[grp] = coeff.sigma(t_k, x_left[grp], float(a_values[ai]))
        diffusion = np.einsum("pdm,pm->pd", sig, brownian[:, k, :])

        x_next = decay * (x_left + drift + diffusion) + jump_acc

        bad = ~np.isfinite(x_next).all(axis=1)
        bad |= np.abs(x_next).max(axis=1) > OVERFLOW_BOUND
        frozen = excluded | bad
        if np.any(frozen):
            x_next[frozen] = x_left[frozen]
        excluded |= bad

        states[:, k + 1, :d] = x_next
        if spec.aug_dim:
            states[:, k + 1, d] = update_running_functional(
                spec.augmentation, states[:, k, d], x_left[:, 0],
                x_next[:, 0], dt)
    regimes[:, n_steps] = cur_reg

    if control == "fixed":
        theta_csr = fixed_theta
    elif control == "randomized":
        theta_csr = CsrEvents.from_flat(th_path, th_time, th_mark, n_paths)
    else:
        theta_csr = CsrEvents.from_flat(np.concatenate(acc_p),
                                        np.concatenate(acc_t),
                                        np.concatenate(acc_m), n_paths)

    n_exc = int(excluded.sum())
    if n_exc:
        warnings.warn(f"{n_exc} path(s) overflowed and were frozen/excluded",
                      RuntimeWarning)

    return PathBundle(
        spec=spec, seed=seed, t0=t0, time_grid=time_grid, states=states,
        regimes=regimes, brownian_increments=brownian, pi=pi_events,
        theta=theta_csr, running_reward=running_reward, excluded=excluded,
        control_mode=control)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def simulate_bundle(spec: ProblemSpec, n_paths: int, seed: int,
                    n_steps: Optional[int] = None, t0: float = 0.0,
                    x0: Optional[np.ndarray] = None) -> PathBundle:
    """Simulate paths under the reference randomized dynamics."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    return _simulate_core(spec, n_paths, seed, n_steps=n_steps, t0=t0,
                          x0=x0, control="randomized")


def terminal_rewards(bundle: PathBundle) -> np.ndarray:
    """g at the terminal (augmented) state, per path."""
    return eval_terminal(bundle.spec, bundle.terminal_states())


def total_gain(bundle: PathBundle) -> np.ndarray:
    """Running reward plus terminal reward, per path."""
    return bundle.running_reward + terminal_rewards(bundle)


def empirical_moment_check(bundle: PathBundle, p: float = 2.0) -> dict:
    """Compare sup-over-grid moments against the declared constant.

    Informational when no constant is declared: the report then carries the
    observed ratio and ``pass: None``.
    """
    keep = bundle.included()
    if bundle.n_paths == 0 or not np.any(keep):
        raise ValueError("no paths")
    core = bundle.states[keep][:, :, :bundle.spec.dim]
    sup = np.linalg.norm(core, axis=2).max(axis=1)
    observed = float(np.mean(sup ** p))
    x0 = float(np.linalg.norm(bundle.spec.initial_law.mean))
    base = 1.0 + x0 ** p
    cp = bundle.spec.regularity.moment_cp
    ratio = observed / (base * cp) if cp else observed / base
    return {
        "p": p,
        "observed": observed,
        "bound": None if cp is None else cp * base,
        "ratio": ratio,
        "pass": None if cp is None else bool(ratio <= 1.0),
        "n_paths": int(keep.sum()),
    }


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
    held in memory does not grow with the file.
    """
    n_rows = len(columns[0])
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = [map(repr, col[lo:lo + CSV_CHUNK_ROWS].tolist())
                     for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
            "t0": bundle.t0,
            "horizon": float(bundle.time_grid[-1]),
            "n_excluded": bundle.n_excluded,
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
