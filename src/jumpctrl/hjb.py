"""Pointwise residuals of the nonlocal value equation on solved fields.

The residual operator evaluates

    r = v_t + <Ax, Dv> + max_a H(t, x, a, Dv, D^2v, v(t, .))

at interior lattice nodes, where H collects the diffusion, drift, running
reward and compensated-jump terms of the controlled generator.  The
candidates are solved lattice fields, differenced on their own lattice
with second-order stencils (one-sided next to the excluded boundary band,
so no stencil ever reads a clamp-polluted edge node).  The lattice scheme
is monotone and consistent, so its fields converge to the viscosity
solution (Barles & Souganidis, 1991), and a small interior residual on
smooth regions is a consistency certificate for solver output; it is not
a viscosity-solution proof.  Closed-form surfaces are test oracles: a
test passes their exact derivatives to :func:`residual_surface`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import transition
from .problem import ProblemSpec
from .transition import LatticeGrid

#: Gauss nodes of the mark law in the nonlocal (jump) term
QUAD_NODES_NONLOCAL = 32
#: share of one-step displacement mass the clamp-reach band must contain
BAND_COVERAGE = 0.999
#: nodes per axis that the second-order space stencils need
MIN_AXIS_NODES = 5
#: share of the lattice's interior nodes a passing certificate must cover
MIN_CERTIFIED_SHARE = 0.5


# ---------------------------------------------------------------------------
# Result type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HjbResidualField:
    """Residual surface of a candidate value function.

    ``residual`` is NaN and ``argmax`` is -1 on the excluded boundary band;
    every interior entry is finite.
    """

    time_grid: np.ndarray          # (K,) left time nodes
    grid: LatticeGrid
    residual: np.ndarray           # (K, *shape)
    argmax: np.ndarray             # (K, *shape) control indices
    terminal_error: float          # max |v(T, .) - g| over all nodes
    excluded: np.ndarray           # (*shape,) bool, True on the band
    metadata: dict

    def interior_max(self) -> float:
        return float(np.abs(self.residual[:, ~self.excluded]).max())


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def _hamiltonian_nodes(spec: ProblemSpec, t: float, x: np.ndarray,
                       grad: np.ndarray, hess: np.ndarray,
                       value_accessor) -> np.ndarray:
    """Supremand per node and control as an (N, A) matrix.

    ``x`` is (N, D) augmented points; ``grad``/``hess`` match.  The jump
    integral runs against the intensity measure (rate times mark law) on
    ``QUAD_NODES_NONLOCAL`` mark nodes, with the first-order compensation
    term subtracted inside the integrand.
    """
    d = spec.dim
    n = x.shape[0]
    x_core = x[:, :d]
    out = np.empty((n, spec.control.size))
    jm = spec.jump_measure
    if spec.has_jumps:
        if value_accessor is None:
            raise ValueError("a value accessor is required when the "
                             "problem jumps")
        z, w = jm.gauss_nodes(QUAD_NODES_NONLOCAL)
        v_here = value_accessor(x)
    for j, a_val in enumerate(spec.control.points):
        b = spec.coefficients.b(t, x_core, a_val)
        sig = spec.coefficients.sigma(t, x_core, a_val)
        f = spec.coefficients.f(t, x_core, a_val)
        diff = 0.5 * np.einsum("nim,njm,nij->n", sig, sig, hess[:, :d, :d])
        ham = diff + np.einsum("ni,ni->n", b, grad[:, :d]) + f
        if spec.has_jumps:
            q = z.size
            x_rep = np.repeat(x, q, axis=0)
            z_rep = np.tile(z, n)
            gam = spec.coefficients.gamma(t, x_rep[:, :d], a_val, z_rep)
            shifted = x_rep.copy()
            shifted[:, :d] += gam
            integrand = (value_accessor(shifted).reshape(n, q)
                         - v_here[:, None]
                         - np.einsum("nqi,ni->nq",
                                     gam.reshape(n, q, d), grad[:, :d]))
            ham = ham + jm.total_rate * integrand @ w
        out[:, j] = ham
    return out


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

def _axis_step(axis: np.ndarray) -> float:
    steps = np.diff(axis)
    if axis.size < MIN_AXIS_NODES:
        raise ValueError(f"stencils need at least {MIN_AXIS_NODES} nodes "
                         f"per axis")
    if steps.max() - steps.min() > 1e-9 * steps.mean():
        raise ValueError("stencils need uniformly spaced axes")
    return float(steps.mean())


def _d1(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order first derivative, one-sided on the first interior layer.

    Boundary rows are left NaN; no stencil reads a boundary node, so edge
    values polluted by lattice clamping cannot leak into the interior.
    """
    v = np.moveaxis(vals, axis, 0)
    out = np.full_like(v, np.nan)
    out[2:-2] = (v[3:-1] - v[1:-3]) / (2.0 * h)
    out[1] = (-3.0 * v[1] + 4.0 * v[2] - v[3]) / (2.0 * h)
    out[-2] = (3.0 * v[-2] - 4.0 * v[-3] + v[-4]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    v = np.moveaxis(vals, axis, 0)
    out = np.full_like(v, np.nan)
    out[2:-2] = (v[3:-1] - 2.0 * v[2:-2] + v[1:-3]) / (h * h)
    out[1] = (2.0 * v[1] - 5.0 * v[2] + 4.0 * v[3] - v[4]) / (h * h)
    out[-2] = (2.0 * v[-2] - 5.0 * v[-3] + 4.0 * v[-4] - v[-5]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """d/dt at left nodes 0..K-1 of a (K+1, ...) stack, second order."""
    if values.shape[0] < 3:
        raise ValueError("the HJB residual needs at least 2 time steps")
    out = np.empty_like(values[:-1])
    out[1:] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    return out


def _stencil_derivatives(values: np.ndarray, grid: LatticeGrid,
                         dt: float):
    """(v_t, grad, hess) arrays from nodal values (K+1, *shape)."""
    ndim = grid.ndim
    steps = [_axis_step(ax) for ax in grid.axes]
    v_t = _time_derivative(values, dt)
    inner = values[:-1]
    k = inner.shape[0]
    grad = np.empty((k, *grid.shape, ndim))
    hess = np.empty((k, *grid.shape, ndim, ndim))
    first = [_d1(inner, 1 + i, steps[i]) for i in range(ndim)]
    for i in range(ndim):
        grad[..., i] = first[i]
        hess[..., i, i] = _d2(inner, 1 + i, steps[i])
        for j in range(i + 1, ndim):
            # composed one-sided-aware operators keep mixed terms O(h^2)
            mixed = _d1(first[i], 1 + j, steps[j])
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    return v_t, grad, hess


# ---------------------------------------------------------------------------
# Residual field
# ---------------------------------------------------------------------------

def unavailable_reason(spec: ProblemSpec) -> str | None:
    """Why :func:`hjb_residual` has no equation for ``spec``, or None."""
    if spec.augmentation == "running-supremum":
        return ("running-supremum augmentation has no smooth generator; "
                "residuals unavailable")
    if spec.augmentation != "none" and spec.dim != 1:
        return "augmented residuals support scalar core state only"
    return None


def hjb_residual(spec: ProblemSpec, field) -> HjbResidualField:
    """Residual surface of a solved lattice field (a ``DpField`` or a
    ``PenalizedField``).

    The field is differenced on its own lattice and time grid with the
    second-order stencils above; the regime axis of a penalized field is
    reduced by max, which is the surface the classical equation describes.
    The jump term reads the field by clamped multilinear interpolation,
    and ``metadata['shift_clamps']`` counts the shifted points it clamped.
    """
    if not all(hasattr(field, key) for key in ("time_grid", "grid",
                                                 "values")):
        raise TypeError("candidate must be a solved lattice field")
    grid = field.grid
    values = field.values
    if values.ndim == grid.ndim + 2:
        values = values.max(axis=-1)
    dt = float(field.time_grid[1] - field.time_grid[0])
    v_t, grad, hess = _stencil_derivatives(values, grid, dt)
    return residual_surface(
        spec, field.time_grid, grid, values[-1], v_t, grad, hess,
        lambda k, points: transition.multilinear(grid.axes, values[k],
                                                 points))


def residual_surface(spec: ProblemSpec, time_grid: np.ndarray,
                     grid: LatticeGrid, terminal: np.ndarray,
                     v_t: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                     value_at) -> HjbResidualField:
    """Residual of the value equation from given derivatives.

    ``v_t`` is (K, *shape), ``grad`` (K, *shape, ndim) and ``hess``
    (K, *shape, ndim, ndim) at the left time nodes of ``time_grid``;
    ``terminal`` holds the candidate at T on the nodes.  The jump term
    reads the candidate through ``value_at(k, points)``, which returns the
    values at time node k and how many points it clamped, as
    :func:`transition.multilinear` does.  The terminal mismatch
    max |v(T,.) - g| is reported separately because the interior operator
    says nothing about the boundary condition.
    """
    reason = unavailable_reason(spec)
    if reason is not None:
        raise ValueError(reason)
    time_grid = np.asarray(time_grid, dtype=float)
    dt = float(time_grid[1] - time_grid[0])
    aug = 0 if spec.augmentation == "none" else 1

    nodes = grid.nodes()
    n_nodes = nodes.shape[0]
    ndim = grid.ndim
    d = spec.dim
    k_steps = time_grid.size - 1
    shape = grid.shape
    lam = np.asarray(spec.a_eigenvalues, dtype=float)

    n_clamps = 0
    residual = np.full((k_steps, *shape), np.nan)
    argmax = np.full((k_steps, *shape), -1, dtype=np.int64)
    keep = transition.interior_mask(grid)
    excluded = (~keep).reshape(shape)

    grad_flat = grad.reshape(k_steps, n_nodes, ndim)
    hess_flat = hess.reshape(k_steps, n_nodes, ndim, ndim)
    vt_flat = v_t.reshape(k_steps, n_nodes)
    xk = nodes[keep]

    for k in range(k_steps):
        t = float(time_grid[k])

        def accessor(points: np.ndarray, k=k) -> np.ndarray:
            nonlocal n_clamps
            vals, clamped = value_at(k, points)
            n_clamps += clamped
            return vals

        gk = grad_flat[k][keep]
        hk = hess_flat[k][keep]
        ham = _hamiltonian_nodes(spec, t, xk, gk, hk, accessor)
        lin_k = np.einsum("ni,i,ni->n", xk[:, :d], lam, gk[:, :d])
        if aug:
            # the running-integral coordinate drifts at the core state
            lin_k = lin_k + xk[:, 0] * gk[:, d]
        r_flat = np.full(n_nodes, np.nan)
        a_flat = np.full(n_nodes, -1, dtype=np.int64)
        r_flat[keep] = vt_flat[k][keep] + lin_k + ham.max(axis=1)
        a_flat[keep] = ham.argmax(axis=1)     # lowest index wins
        residual[k] = r_flat.reshape(shape)
        argmax[k] = a_flat.reshape(shape)

    g_nodes = spec.coefficients.g(nodes).reshape(shape)
    terminal_error = float(np.abs(terminal - g_nodes).max())

    metadata = {
        "dt": dt,
        "h": tuple(float(np.diff(ax).mean()) for ax in grid.axes),
        "shift_clamps": int(n_clamps), "n_quad": QUAD_NODES_NONLOCAL,
        "fingerprint": spec.fingerprint(),
        "excluded_count": int(excluded.sum()),
    }
    return HjbResidualField(
        time_grid=time_grid[:-1], grid=grid,
        residual=residual, argmax=argmax, terminal_error=terminal_error,
        excluded=excluded, metadata=metadata)


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

def _certificate_band(spec: ProblemSpec, grid: LatticeGrid,
                      dt: float) -> tuple[int, ...]:
    """Per-axis width, in nodes, of the clamp-reach band.

    Values solved on a truncated lattice are polluted next to the edges:
    whatever one-step transition mass would leave the grid is clamped back,
    so the surface itself (not just the stencil) is wrong there.  The band
    is the smallest per-axis radius containing ``BAND_COVERAGE`` of
    one-step displacement mass launched from the edge nodes, maxed over
    controls, plus the flagged boundary node.  The kernel's coefficients
    do not depend on time (``transition.backward_sweep`` assembles its
    operators once, at t = 0), so t = 0 is the one time probed.
    """
    spans = [(ax[0], 0.5 * (ax[0] + ax[-1]), ax[-1]) for ax in grid.axes]
    bands = []
    for i, ax in enumerate(grid.axes):
        h = float(np.diff(ax).mean())
        radius = 0.0
        others = [spans[j] for j in range(grid.ndim) if j != i]
        for edge in (ax[0], ax[-1]):
            # displacement along one axis can depend on the others, so
            # probe every corner/mid combination of the remaining axes
            for combo in itertools.product(*others) if others else [()]:
                src = np.empty(grid.ndim)
                src[i] = edge
                src[[j for j in range(grid.ndim) if j != i]] = combo
                for a in range(spec.control.size):
                    sets = transition.one_step_points(spec, 0.0, dt, a,
                                                      src[None, :])
                    disp = np.array([abs(p[0, i] - src[i])
                                     for _, p in sets])
                    wts = np.array([w for w, _ in sets])
                    order = np.argsort(disp)
                    cum = np.cumsum(wts[order])
                    covered = np.searchsorted(cum, BAND_COVERAGE) + 1
                    radius = max(radius,
                                 float(disp[order][:covered].max()))
        bands.append(1 + int(np.ceil(radius / h - 1e-9)))
    return tuple(bands)


def residual_certificate(field, spec: ProblemSpec) -> dict:
    """Interior residual and terminal mismatch of a solved field.

    Consistency certificate on smooth regions, not a viscosity proof: it
    differences the solved surface and checks that the equation residual is
    small away from the lattice truncation.  The maximum is taken outside
    the clamp-reach band, where the solver output is polluted by edge
    clamping no matter how the derivatives are formed; the reported count
    of certified nodes makes the exclusion visible.  The certificate holds
    when that maximum is at most ``tol_hjb``, the terminal mismatch at most
    ``tol_value`` (both read from ``spec.tolerances``) and the certified
    nodes are at least ``MIN_CERTIFIED_SHARE`` of the interior ones; a
    ``reason`` names the shortfall.  A field solved under a different
    problem is evaluated anyway and fails with an order-one residual.
    """
    tol_hjb = spec.tolerances["tol_hjb"]
    tol_value = spec.tolerances["tol_value"]
    fingerprint = getattr(field, "metadata", {}).get("fingerprint")
    if fingerprint is not None and fingerprint != spec.fingerprint():
        warnings.warn("certifying a field solved under a different "
                      "problem; expect order-one residuals", RuntimeWarning)
    rf = hjb_residual(spec, field)
    bands = _certificate_band(spec, rf.grid, rf.metadata["dt"])
    certified = np.ones(rf.grid.shape, dtype=bool)
    for i, width in enumerate(bands):
        if 2 * width >= rf.grid.shape[i]:
            raise ValueError("grid too small for the clamp-reach band")
        sl = [slice(None)] * rf.grid.ndim
        sl[i] = slice(0, width)
        certified[tuple(sl)] = False
        sl[i] = slice(rf.grid.shape[i] - width, None)
        certified[tuple(sl)] = False
    interior_max = float(np.abs(rf.residual[:, certified]).max())
    n_certified = int(certified.sum())
    n_interior = int(transition.interior_mask(rf.grid).sum())
    covered = n_certified >= MIN_CERTIFIED_SHARE * n_interior
    report = {
        "interior_max_abs_residual": interior_max,
        "terminal_max_error": rf.terminal_error,
        "tol_hjb": float(tol_hjb), "tol_value": float(tol_value),
        "band_nodes": bands,
        "n_certified": n_certified,
        "flagged_band_max": rf.interior_max(),
        "shift_clamps": rf.metadata["shift_clamps"],
        "ok": bool(covered and interior_max <= tol_hjb
                   and rf.terminal_error <= tol_value),
        "residual_field": rf,
    }
    if not covered:
        report["reason"] = (f"certified {n_certified} of {n_interior} "
                            f"interior nodes")
    return report
