"""Shared one-step transition operator for the backward solvers.

Both the penalized backward recursion and the dynamic-programming iteration
advance values through this module: the same lattice geometry, the same
quadrature nodes, the same interpolation.  For one control,
:func:`assemble_operator` builds the one-step expectation as a sparse
P x P matrix over the lattice's C-order nodes (the Markov-chain
approximation of Kushner & Dupuis): row p holds, for every reachable
outcome from node p, the outcome weight times its multilinear corner
weights.  :func:`backward_sweep` is the one backward loop: it assembles
the operators of a solve once, applies them at every step to a stack of
value columns (one per penalization level, or one for dynamic
programming) and leaves the per-step maximum or penalty to its caller.
``kernel_checksum`` hashes the bytecode and literals of the kernel
functions and the quadrature constants; solver artifacts record it so
cross-checks can assert that no second kernel crept in.

The conditional expectation over one step combines a Gauss-Hermite rule for
the Brownian factor with a truncated-Poisson enumeration of jump outcomes
(per-jump marks from the atom list or a small Gauss rule).  Every jump in a
step displaces by gamma evaluated at the step's left node, and the drift
carries the compensator ``ProblemSpec.mean_jump``, exactly as the path
integrator does.  The Brownian rule has ``HERMITE_NODES`` nodes per
factor; every registry family has one factor.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import types
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import COMPENSATOR_NODES, ProblemSpec, update_running_functional

#: per-jump quadrature nodes for continuous mark laws, by jump count
_NODES_BY_COUNT = {1: 8, 2: 4, 3: 3, 4: 2}
MAX_JUMPS_PER_STEP = 4
#: Gauss-Hermite nodes per Brownian factor
HERMITE_NODES = 8
#: paths of the pilot bundle that sizes the default lattice
PILOT_PATHS = 256
#: half-width of the default lattice, in pilot standard deviations
PILOT_SD = 5.0


# ---------------------------------------------------------------------------
# Lattice geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeGrid:
    """Uniform product lattice over the (possibly augmented) state."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        for ax in axes:
            if ax.ndim != 1 or ax.size < 2 or np.any(np.diff(ax) <= 0):
                raise ValueError("each axis must be an increasing 1-d grid")
        object.__setattr__(self, "axes", axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        """(P, D) array of all lattice points, C-order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def bounds(self) -> list:
        return [(float(ax[0]), float(ax[-1])) for ax in self.axes]


def default_node_count(spec: ProblemSpec) -> int:
    """Per-axis node count: dense in 1-d, moderate for product lattices."""
    return 201 if spec.total_dim == 1 else 45


def default_state_grid(spec: ProblemSpec, n_nodes: int | None = None,
                       seed: int = 0) -> LatticeGrid:
    """Lattice bounds from a pilot bundle under the reference dynamics.

    Bounds are the running envelope of the pilot mean plus/minus
    ``PILOT_SD`` marginal standard deviations, padded by
    ``max(0.5, 0.05 |x0|)`` so degenerate (deterministic) families still get
    a usable axis.  Deterministic in (spec, seed).
    """
    if n_nodes is None:
        n_nodes = default_node_count(spec)
    from . import sim  # local import: sim does not depend on this module

    pilot_seed = (seed * 0x9E3779B9 + 0x7F4A7C15) & 0x7FFFFFFFFFFFFFFF
    bundle = sim.simulate_bundle(spec, PILOT_PATHS, seed=pilot_seed,
                                 n_steps=max(16, spec.default_steps() // 4))
    states = bundle.states[bundle.included()]
    mean = states.mean(axis=0)                    # (N+1, D)
    sd = states.std(axis=0)
    lo = (mean - PILOT_SD * sd).min(axis=0)
    hi = (mean + PILOT_SD * sd).max(axis=0)
    x0 = np.abs(spec.initial_augmented(
        spec.initial_law.mean[None, :]))[0]
    pad = np.maximum(0.5, 0.05 * x0)
    axes = tuple(np.linspace(lo[j] - pad[j], hi[j] + pad[j], n_nodes)
                 for j in range(states.shape[2]))
    return LatticeGrid(axes=axes)


def nearest_node(axis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the node of an increasing 1-d ``axis`` nearest each ``x``.

    A point halfway between two nodes goes to the lower one, and a point
    outside the axis goes to its end node.  Feedback tables (the DP
    argmax policy, the argmax tilt) read their cells through this rule.
    """
    i = np.clip(np.searchsorted(axis, x), 1, axis.size - 1)
    return i - ((x - axis[i - 1]) <= (axis[i] - x))


# ---------------------------------------------------------------------------
# Interpolation (clamped multilinear)
# ---------------------------------------------------------------------------

def _stencil(axes: tuple, points: np.ndarray):
    """Corner indices and weights of clamped multilinear interpolation.

    Returns ``(corners, outside)``: one ``(index tuple, weights)`` pair per
    corner of the enclosing cell, and the mask of points outside the box.
    Clamping to the lattice box keeps the weights nonnegative and summing
    to one, so every interpolated value is a convex combination of stored
    values.
    """
    points = np.atleast_2d(points)
    n, d = points.shape
    if d != len(axes):
        raise ValueError("point dimension does not match the lattice")
    outside = np.zeros(n, dtype=bool)
    idx = []
    frac = []
    for j, ax in enumerate(axes):
        x = points[:, j]
        outside |= (x < ax[0]) | (x > ax[-1])
        xc = np.clip(x, ax[0], ax[-1])
        i = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, ax.size - 2)
        idx.append(i)
        frac.append((xc - ax[i]) / (ax[i + 1] - ax[i]))
    corners = []
    for corner in itertools.product((0, 1), repeat=d):
        w = np.ones(n)
        loc = []
        for j, c in enumerate(corner):
            w = w * (frac[j] if c else 1.0 - frac[j])
            loc.append(idx[j] + c)
        corners.append((tuple(loc), w))
    return corners, outside


def multilinear(axes: tuple, values: np.ndarray, points: np.ndarray,
                count_in: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Clamped multilinear interpolation; returns (values, n_clamped).

    Clamping to the lattice box keeps the operator monotone: the output is
    a convex combination of stored values with nonnegative weights.  The
    clamp count covers all points, or only those flagged by ``count_in``
    (so callers can ignore the box's own boundary layer).  Axes of
    ``values`` beyond the lattice's (say, one per control) are carried
    through: the output has shape ``(n_points, *values.shape[d:])`` and
    every trailing slice shares one stencil.
    """
    corners, outside = _stencil(axes, points)
    if count_in is not None:
        outside = outside & count_in
    trailing = values.shape[len(axes):]
    out = np.zeros((outside.size, *trailing))
    for loc, w in corners:
        out += w.reshape(-1, *(1,) * len(trailing)) * values[loc]
    return out, int(np.count_nonzero(outside))


# ---------------------------------------------------------------------------
# One-step outcome enumeration
# ---------------------------------------------------------------------------

def _poisson_pmf(rate_dt: float, k_max: int) -> np.ndarray:
    """Poisson(rate_dt) probabilities of 0..k_max jumps, not renormalized."""
    if rate_dt <= 0:
        p = np.zeros(k_max + 1)
        p[0] = 1.0
        return p
    ks = np.arange(k_max + 1)
    return np.exp(ks * math.log(rate_dt) - rate_dt - np.array(
        [math.lgamma(k + 1) for k in ks]))


def _poisson_truncated(rate_dt: float, k_max: int) -> np.ndarray:
    """Poisson(rate_dt) pmf truncated at k_max and renormalized."""
    p = _poisson_pmf(rate_dt, k_max)
    return p / p.sum()


def truncated_jump_mass(spec: ProblemSpec, dt: float) -> float:
    """Poisson mass of more than ``MAX_JUMPS_PER_STEP`` jumps in one step.

    The one-step kernel drops this mass and renormalizes the rest, so a
    solve over N steps misplaces about N times this much probability.
    """
    if not spec.has_jumps:
        return 0.0
    pk = _poisson_pmf(spec.jump_measure.total_rate * dt, MAX_JUMPS_PER_STEP)
    return max(0.0, 1.0 - math.fsum(pk))


def _jump_outcomes(spec: ProblemSpec, dt: float):
    """[(probability, marks tuple)] outcomes of the step's jump factor."""
    jump = spec.jump_measure
    if not spec.has_jumps:
        return [(1.0, ())]
    pk = _poisson_truncated(jump.total_rate * dt, MAX_JUMPS_PER_STEP)
    atoms = jump.atoms()
    outcomes = [(float(pk[0]), ())]
    for k in range(1, MAX_JUMPS_PER_STEP + 1):
        if atoms is not None:
            z_nodes, z_weights = atoms
        else:
            z_nodes, z_weights = jump.gauss_nodes(_NODES_BY_COUNT[k])
        for combo in itertools.product(range(len(z_nodes)), repeat=k):
            w = float(pk[k]) * float(np.prod([z_weights[c] for c in combo]))
            outcomes.append((w, tuple(float(z_nodes[c]) for c in combo)))
    return outcomes


def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return x, w / w.sum()


def one_step_points(spec: ProblemSpec, t: float, dt: float, a_index: int,
                    x_nodes: np.ndarray):
    """Reachable points and weights of one backward step from lattice nodes.

    ``x_nodes`` is (P, D) with D = core + augmentation; returns a list of
    (weight, points (P, D)) outcomes whose weights sum to 1.
    """
    x_nodes = np.atleast_2d(x_nodes)
    p_cnt, d_tot = x_nodes.shape
    d = spec.dim
    a_val = float(spec.control.points[a_index])
    coeff = spec.coefficients
    core = x_nodes[:, :d]
    decay = spec.decay_factor(dt)[None, :]

    drift = coeff.b(t, core, a_val) * dt
    if spec.has_jumps:
        drift = drift - (spec.jump_measure.total_rate * dt
                         * spec.mean_jump(t, core, a_val))

    sig = np.asarray(coeff.sigma(t, core, a_val))    # (P, d, m)
    sig_norm = float(np.max(np.abs(sig))) if sig.size else 0.0

    def finish(base_core, marks):
        out_core = base_core
        for z in marks:
            out_core = out_core + coeff.gamma(t, core, a_val,
                                              np.full(p_cnt, z))
        if d_tot > d:
            aug = update_running_functional(
                spec.augmentation, x_nodes[:, d], core[:, 0],
                out_core[:, 0], dt)
            return np.concatenate([out_core, aug[:, None]], axis=1)
        return out_core

    outcomes = []
    if sig_norm > 0.0:
        h_nodes, h_weights = _hermite_nodes(HERMITE_NODES)
    else:
        h_nodes, h_weights = np.zeros(1), np.ones(1)
    jumps = _jump_outcomes(spec, dt)
    m_brown = spec.brownian_dim
    for h_combo in itertools.product(range(h_nodes.size), repeat=m_brown):
        xi = np.array([h_nodes[c] for c in h_combo])
        wh = float(np.prod([h_weights[c] for c in h_combo]))
        shock = np.einsum("pdm,m->pd", sig, xi) * math.sqrt(dt)
        base = decay * (core + drift + shock)
        for wj, marks in jumps:
            outcomes.append((wh * wj, finish(base, marks)))
    return outcomes


def assemble_operator(spec: ProblemSpec, t: float, dt: float, a_index: int,
                      grid: LatticeGrid):
    """One-step expectation of one control as a sparse matrix.

    Returns ``(matrix, clamp_rows)``.  ``matrix`` is a P x P CSR matrix over
    the lattice's C-order nodes, so ``matrix @ v.ravel()`` is
    E[ v(X') | X = node, regime a ]: row p holds, for every outcome of
    :func:`one_step_points` from node p, the outcome weight times its
    multilinear corner weights.  ``clamp_rows[p]`` is the probability that
    a transition from node p left the lattice box and was clamped back.
    """
    from scipy import sparse
    nodes = grid.nodes()
    p_cnt = nodes.shape[0]
    cols, vals = [], []
    clamp_rows = np.zeros(p_cnt)
    for w, pts in one_step_points(spec, t, dt, a_index, nodes):
        corners, outside = _stencil(grid.axes, pts)
        clamp_rows += w * outside
        for loc, cw in corners:
            cols.append(np.ravel_multi_index(loc, grid.shape))
            vals.append(w * cw)
    rows = np.tile(np.arange(p_cnt), len(cols))
    matrix = sparse.coo_array(
        (np.concatenate(vals), (rows, np.concatenate(cols))),
        shape=(p_cnt, p_cnt)).tocsr()
    return matrix, clamp_rows


def expect_next(spec: ProblemSpec, t: float, dt: float, a_index: int,
                grid: LatticeGrid, next_values: np.ndarray,
                clamp_mask: np.ndarray | None = None) -> tuple[np.ndarray,
                                                               float]:
    """E[ v(t+dt, X') | X = lattice nodes, regime a ], flat over the nodes.

    One application of :func:`assemble_operator`; the second return sums
    its clamped transition mass over all nodes, or over the flat subset
    ``clamp_mask`` (typically the interior).
    """
    matrix, clamp_rows = assemble_operator(spec, t, dt, a_index, grid)
    if clamp_mask is not None:
        clamp_rows = clamp_rows[clamp_mask]
    return matrix @ np.ravel(next_values), float(clamp_rows.sum())


def interior_mask(grid: LatticeGrid) -> np.ndarray:
    """Flat mask of lattice nodes not on the outermost layer."""
    mask = np.ones(grid.shape, dtype=bool)
    for j in range(grid.ndim):
        sl = [slice(None)] * grid.ndim
        sl[j] = np.array([0, grid.shape[j] - 1])
        mask[tuple(sl)] = False
    return mask.ravel()


def _code_bytes(obj) -> bytes:
    """Bytecode and literals of a code object, nested code included.

    Literals go by value and frozensets sorted; nested code goes by its
    own bytes, not its ``repr``, which holds a memory address.
    """
    if isinstance(obj, types.CodeType):
        return obj.co_code + _code_bytes(obj.co_consts)
    if isinstance(obj, frozenset):
        return b"frozenset" + _code_bytes(tuple(sorted(obj, key=repr)))
    if isinstance(obj, tuple):
        return b"(" + b",".join(map(_code_bytes, obj)) + b")"
    return f"{type(obj).__name__}:{obj!r}".encode()


def kernel_checksum() -> str:
    """Hash of the kernel path shared by the backward solvers: each
    kernel function's bytecode and literals, and the quadrature constants."""
    blobs = [repr((HERMITE_NODES, MAX_JUMPS_PER_STEP, COMPENSATOR_NODES,
                   sorted(_NODES_BY_COUNT.items()))).encode()]
    for fn in (_stencil, multilinear, _poisson_pmf, _poisson_truncated,
               _jump_outcomes, _hermite_nodes, ProblemSpec.mean_jump,
               one_step_points, assemble_operator, expect_next):
        blobs.append(_code_bytes(fn.__code__))
    return hashlib.sha256(b"\0".join(blobs)).hexdigest()[:16]


def backward_sweep(spec: ProblemSpec, grid: LatticeGrid, n_time_steps: int,
                   n_stack: int, aggregate):
    """The one backward lattice loop, shared by DP and the penalized ladder.

    Starts an (A, P, S) stack ``v`` at the terminal reward for every
    control a, lattice node p and slot s.  At each step k, last first, it
    hands the continuation ``u[a] = M_a @ v[a] + f(t_k, core, a) * dt`` to
    ``aggregate(k, u)``, which stores what its solver keeps (``u`` is one
    reused buffer) and returns the stack at t_k.  The ladder puts one
    level in each slot; DP uses S = 1.  The operators are assembled once
    (no registry family's coefficients depend on t, as the tests check).

    Returns ``(time_grid, terminal, metadata)``.  The metadata holds
    ``dt``, the clamped fraction of interior transition mass, the Poisson
    mass truncated per step and the kernel checksum, which also covers
    the quadrature rule.  Warns when clamping touched 1% or more of that
    mass, or when the Poisson mass dropped over all steps exceeds
    ``tol_value``.
    """
    time_grid = spec.time_grid(n_time_steps)
    dt = spec.horizon / n_time_steps
    nodes = grid.nodes()
    core = nodes[:, :spec.dim]
    interior = interior_mask(grid)
    controls = [float(a) for a in spec.control.points]

    ops = [assemble_operator(spec, 0.0, dt, a, grid)
           for a in range(len(controls))]
    step_clamp = math.fsum(float(c[interior].sum()) for _, c in ops)
    terminal = spec.coefficients.g(nodes)
    v = np.broadcast_to(terminal[None, :, None],
                        (len(controls), terminal.size, n_stack))
    u = np.empty(v.shape)
    clamp_mass = 0.0
    for k in range(n_time_steps - 1, -1, -1):
        t_k = time_grid[k]
        clamp_mass += step_clamp
        for a, (matrix, _) in enumerate(ops):
            u[a] = (matrix @ v[a]
                    + (spec.coefficients.f(t_k, core, controls[a])
                       * dt)[:, None])
        v = aggregate(k, u)

    n_lookups = n_time_steps * len(controls) * int(interior.sum())
    clamp_fraction = clamp_mass / max(n_lookups, 1)
    if clamp_fraction >= 0.01:
        warnings.warn(f"state grid missed {100 * clamp_fraction:.2f}% "
                      f"of one-step transition mass "
                      f"({clamp_mass:.0f} clamped lookups); "
                      "widen the grid", RuntimeWarning)
    truncated = truncated_jump_mass(spec, dt)
    dropped = n_time_steps * truncated
    tol = spec.tolerances["tol_value"]
    if dropped > tol:
        warnings.warn(f"the one-step kernel drops {truncated:.3g} of the "
                      f"Poisson mass per step beyond {MAX_JUMPS_PER_STEP}"
                      f" jumps, {dropped:.3g} over {n_time_steps} steps "
                      f"(tol_value {tol:g}); refine the time grid",
                      RuntimeWarning)
    metadata = {"dt": dt, "clamp_fraction": clamp_fraction,
                "truncated_jump_mass": truncated, "kernel": kernel_checksum()}
    return time_grid, terminal, metadata
