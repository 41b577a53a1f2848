"""Audits of the paper's standing hypotheses on the registry families.

The paper's results rest on Lipschitz and growth bounds on the
coefficients and on a moment bound of the state.  No command takes those
constants, so they live with the tests: ``oracles.HYPOTHESES`` declares
them per family.  These helpers check them empirically, with randomized
difference quotients and sample moments.
"""

from __future__ import annotations

import numpy as np

from jumpctrl import sim
from jumpctrl.problem import ProblemSpec

#: spot-check quotients may exceed the declared Lipschitz constant by 5%
LIPSCHITZ_SLACK = 1.05


def spot_check_lipschitz(spec: ProblemSpec, declared: dict,
                         n_samples: int = 10_000, seed: int = 0) -> dict:
    """Randomized difference-quotient audit of the declared constants.

    Samples (t, x, x', a, z) and reports the largest observed quotient for
    b, sigma (Frobenius), and gamma (normalized by
    ``declared["rho_envelope"]``).  Passes iff the maximum stays within
    ``LIPSCHITZ_SLACK * declared["lipschitz_l"]``.
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
            rho = max(declared["rho_envelope"], 1e-300)
            worst["gamma"] = max(worst["gamma"],
                                 float(np.max(diff / (rho * gap[sel]))))

    max_q = max(worst.values())
    bound = LIPSCHITZ_SLACK * declared["lipschitz_l"]
    return {
        "max_quotient": max_q,
        "per_coefficient": worst,
        "bound": bound,
        "pass": bool(max_q <= bound),
    }


#: order of the sup-over-grid moment that ``empirical_moment_check`` bounds
MOMENT_ORDER = 2.0


def empirical_moment_check(bundle: sim.PathBundle,
                           moment_cp: float | None = None) -> dict:
    """Compare the ``MOMENT_ORDER`` sup-over-grid moment against the
    declared constant ``moment_cp``.

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
    ratio = (observed / (base * moment_cp) if moment_cp
             else observed / base)
    return {
        "p": MOMENT_ORDER,
        "observed": observed,
        "bound": None if moment_cp is None else moment_cp * base,
        "ratio": ratio,
        "pass": None if moment_cp is None else bool(ratio <= 1.0),
        "n_paths": int(keep.sum()),
    }
