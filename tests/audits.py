"""Audits of the paper's standing hypotheses on the registry families.

The package's coefficients declare constants (``regularity.lipschitz_l``,
``regularity.moment_cp``) that the results rest on.  These helpers check
them empirically, with randomized difference quotients and sample moments;
no command runs them, so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from jumpctrl import sim
from jumpctrl.problem import ProblemSpec


def spot_check_lipschitz(spec: ProblemSpec, n_samples: int = 10_000,
                         seed: int = 0) -> dict:
    """Randomized difference-quotient audit of the declared constants.

    Samples (t, x, x', a, z) and reports the largest observed quotient for
    b, sigma (Frobenius), and gamma (normalized by rho_envelope).  Passes
    iff the maximum stays within lipschitz_slack * L.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 913]))
    t = rng.random(n_samples) * spec.horizon
    center = spec.initial_law.mean
    x = center + 2.0 * rng.standard_normal((n_samples, spec.dim))
    xp = center + 2.0 * rng.standard_normal((n_samples, spec.dim))
    gap = np.linalg.norm(x - xp, axis=1)
    keep = gap > 1e-9
    a_idx = rng.integers(0, spec.control.size, n_samples)

    c = spec.coefficients
    worst = {"b": 0.0, "sigma": 0.0, "gamma": 0.0}
    for ai in range(spec.control.size):
        sel = keep & (a_idx == ai)
        if not np.any(sel):
            continue
        a = float(spec.control.points[ai])
        for name, fn in (("b", c.b), ("sigma", c.sigma)):
            d1 = np.asarray(fn(0.0, x[sel], a), dtype=float)
            d2 = np.asarray(fn(0.0, xp[sel], a), dtype=float)
            # time enters no registry family; quotient in x only
            diff = np.sqrt(((d1 - d2) ** 2).reshape(d1.shape[0], -1).sum(1))
            worst[name] = max(worst[name], float(np.max(diff / gap[sel])))
        if c.gamma is not None and spec.jump_measure.total_rate > 0:
            z = spec.jump_measure.sample_marks(rng.random(int(sel.sum())))
            g1 = c.gamma(0.0, x[sel], a, z)
            g2 = c.gamma(0.0, xp[sel], a, z)
            diff = np.linalg.norm(g1 - g2, axis=1)
            rho = max(spec.jump_measure.rho_envelope, 1e-300)
            worst["gamma"] = max(worst["gamma"],
                                 float(np.max(diff / (rho * gap[sel]))))

    max_q = max(worst.values())
    slack = spec.tolerances["lipschitz_slack"]
    return {
        "max_quotient": max_q,
        "per_coefficient": worst,
        "bound": slack * spec.regularity.lipschitz_l,
        "pass": bool(max_q <= slack * spec.regularity.lipschitz_l),
    }


#: order of the sup-over-grid moment that ``empirical_moment_check`` bounds
MOMENT_ORDER = 2.0


def empirical_moment_check(bundle: sim.PathBundle) -> dict:
    """Compare the ``MOMENT_ORDER`` sup-over-grid moment against the
    declared constant.

    Informational when no constant is declared: the report then carries the
    observed ratio and ``pass: None``.
    """
    keep = bundle.included()
    if bundle.n_paths == 0 or not np.any(keep):
        raise ValueError("no paths")
    core = bundle.states[keep][:, :, :bundle.spec.dim]
    sup = np.linalg.norm(core, axis=2).max(axis=1)
    observed = float(np.mean(sup ** MOMENT_ORDER))
    x0 = float(np.linalg.norm(bundle.spec.initial_law.mean))
    base = 1.0 + x0 ** MOMENT_ORDER
    cp = bundle.spec.regularity.moment_cp
    ratio = observed / (base * cp) if cp else observed / base
    return {
        "p": MOMENT_ORDER,
        "observed": observed,
        "bound": None if cp is None else cp * base,
        "ratio": ratio,
        "pass": None if cp is None else bool(ratio <= 1.0),
        "n_paths": int(keep.sum()),
    }
