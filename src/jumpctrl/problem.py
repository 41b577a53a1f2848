"""Problem definitions: coefficient families, jump measures, control grids.

A problem couples a linear dissipative part (diagonal matrix with
nonpositive eigenvalues), Lipschitz coefficients ``b, sigma, gamma``, running
and terminal rewards ``f, g``, a finite control grid, and the randomization
data (switch intensity weights and an initial regime) used by the
intensity-randomization machinery in the other modules.

Coefficient families live in a closed registry; a config JSON selects a
family and may override its documented defaults, and any key the loader
does not read is an error.  All validation happens at load time so the
numerical modules can assume a well-formed problem.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CONFIG_SCHEMA_VERSION = 1
#: Steps per unit of horizon of the default time grid (``default_steps``);
#: a command's ``--steps`` sets a run's count
STEPS_PER_UNIT_TIME = 64
#: Gauss nodes of the mark law in the jump compensator (``mean_jump``)
COMPENSATOR_NODES = 32

#: Documented default tolerances.  Every check reads them from
#: ``spec.tolerances`` (the config's ``tolerances`` block over these
#: defaults); no function takes a tolerance argument.
DEFAULT_TOLERANCES = {
    "tol_value": 2e-2,        # value-equality band between solver routes
    "tol_monotone": 1e-6,     # nodewise slack for the penalization ladder
    "tol_hjb": 5e-2,          # interior residual band for field certificates
    "se_multiplier": 3.0,     # Monte Carlo bands are +- se_multiplier * SE
}

#: The keys of each config block, by its dotted path.  The loader reads
#: these and rejects any other; a family's ``parameters`` and a mark law's
#: ``jump.mark_parameters`` are checked against ``FAMILIES`` and
#: ``MARK_PARAMETERS``.
CONFIG_KEYS = {
    "": ("schema_version", "family", "parameters", "a_eigenvalues",
         "control_points", "a0_index", "lambda0_weights", "jump",
         "initial_law", "augmentation", "tolerances"),
    "jump": ("total_rate", "mark_sampler_id", "mark_parameters"),
    "initial_law": ("kind", "mean", "cov_diag"),
    "tolerances": tuple(DEFAULT_TOLERANCES),
}


class ConfigError(ValueError):
    """Raised when a problem config fails validation."""


def _checked(block, where: str, allowed, required) -> dict:
    """``block``, the config object at dotted path ``where``, once it holds
    every ``required`` key and no key outside ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"config key {where!r} must be a JSON object")
    dotted = (lambda key: f"{where}.{key}") if where else str
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown config key {dotted(key)!r}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing config key {dotted(key)!r}")
    return block


def _number(value, key: str) -> float:
    """``value``, read at config key ``key``, as a float; ConfigError unless
    it is a finite JSON number (not a boolean)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(
            f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, key: str) -> np.ndarray:
    """``value``, read at config key ``key``, as a float array; ConfigError
    unless it is a JSON list of finite numbers."""
    if not isinstance(value, (list, tuple)) or not all(
            not isinstance(v, bool) and isinstance(v, (int, float))
            and math.isfinite(v) for v in value):
        raise ConfigError(f"config key {key!r} must be a list of finite "
                          f"numbers, got {value!r}")
    return np.array(value, dtype=float)


def _integer(value, key: str) -> int:
    """``value``, read at config key ``key``; ConfigError unless it is a
    JSON integer (not a boolean, not a number with a fraction part)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"config key {key!r} must be an integer, got {value!r}")
    return value


def _name(value, key: str) -> str:
    """``value``, read at config key ``key``; ConfigError unless it is a
    JSON string."""
    if not isinstance(value, str):
        raise ConfigError(
            f"config key {key!r} must be a name (a JSON string), "
            f"got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Component types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlGrid:
    """Finite set of admissible control values."""

    points: np.ndarray          # (A,) float control values

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ConfigError("control grid must be a nonempty 1-d list")
        if np.unique(pts).size != pts.size:
            raise ConfigError("control grid points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.size)


#: The parameters each mark law reads, all required
MARK_PARAMETERS = {
    "two-point": ("values", "probs"),
    "uniform-interval": ("low", "high"),
    "exponential": ("scale",),
}


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite-activity jump measure: total rate times a mark law."""

    total_rate: float
    mark_sampler_id: str
    mark_parameters: dict

    def __post_init__(self):
        if self.total_rate < 0.0:
            raise ConfigError("jump total_rate must be nonnegative")
        names = MARK_PARAMETERS.get(self.mark_sampler_id)
        if names is None:
            raise ConfigError(
                f"unknown mark sampler {self.mark_sampler_id!r}")
        object.__setattr__(self, "mark_parameters", dict(_checked(
            self.mark_parameters, "jump.mark_parameters", names, names)))
        # a two-point law's parameters are lists, the others' numbers
        read = _numbers if self.mark_sampler_id == "two-point" else _number
        for name in names:
            read(self.mark_parameters[name], f"jump.mark_parameters.{name}")
        if self.mark_sampler_id == "two-point":
            values, probs = self.atoms()
            if values.size != 2 or probs.size != 2:
                raise ConfigError("two-point law needs exactly two atoms")
            if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
                raise ConfigError("two-point probabilities must sum to 1")

    @property
    def second_moment(self) -> float:
        """total_rate * E[z^2], by the 64-node rule of the mark law."""
        z, w = self.gauss_nodes(64)
        return self.total_rate * float(np.sum(w * z * z))

    # -- mark law access ----------------------------------------------------

    def atoms(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(values, probabilities) for purely atomic mark laws, else None."""
        if self.mark_sampler_id == "two-point":
            p = self.mark_parameters
            return (np.asarray(p["values"], dtype=float),
                    np.asarray(p["probs"], dtype=float))
        return None

    def gauss_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes/weights (weights sum to 1) for the mark law."""
        atoms = self.atoms()
        if atoms is not None:
            return atoms
        if self.mark_sampler_id == "uniform-interval":
            lo = float(self.mark_parameters["low"])
            hi = float(self.mark_parameters["high"])
            x, w = np.polynomial.legendre.leggauss(n)
            return lo + (hi - lo) * 0.5 * (x + 1.0), w / w.sum()
        # exponential
        scale = float(self.mark_parameters["scale"])
        x, w = np.polynomial.laguerre.laggauss(n)
        return scale * x, w / w.sum()

    def sample_marks(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to mark values (inverse CDF, no rejection)."""
        if self.mark_sampler_id == "two-point":
            values, probs = self.atoms()
            return values[(u >= probs[0]).astype(np.int64)]
        if self.mark_sampler_id == "uniform-interval":
            lo = float(self.mark_parameters["low"])
            hi = float(self.mark_parameters["high"])
            return lo + (hi - lo) * u
        scale = float(self.mark_parameters["scale"])
        return -scale * np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))


@dataclass(frozen=True)
class RandomizationSpec:
    """Reference switch intensity on the control grid plus initial regime."""

    lambda0_weights: np.ndarray   # (A,) strictly positive
    a0_index: int

    def __post_init__(self):
        w = np.asarray(self.lambda0_weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ConfigError("lambda0_weights must be a nonempty 1-d list")
        if np.any(w <= 0.0):
            raise ConfigError("lambda0 lacks full support")
        object.__setattr__(self, "lambda0_weights", w)
        if not 0 <= self.a0_index < w.size:
            raise ConfigError("a0_index outside the control grid")

    @property
    def total_mass(self) -> float:
        return float(self.lambda0_weights.sum())


@dataclass(frozen=True)
class InitialLaw:
    """Point mass or diagonal Gaussian initial state law."""

    kind: str                   # "point" | "gaussian"
    mean: np.ndarray            # (d,)
    cov_diag: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("point", "gaussian"):
            raise ConfigError(f"unknown initial law kind {self.kind!r}")
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if self.kind == "point" and self.cov_diag is not None:
            raise ConfigError("config key 'initial_law.cov_diag' belongs to "
                              "a gaussian initial law only")
        if self.kind == "gaussian":
            if self.cov_diag is None:
                raise ConfigError("gaussian initial law needs cov_diag")
            cd = np.asarray(self.cov_diag, dtype=float)
            if cd.shape != mean.shape or np.any(cd < 0):
                raise ConfigError("cov_diag must match mean and be >= 0")
            object.__setattr__(self, "cov_diag", cd)


AUGMENTATIONS = ("none", "running-integral", "running-supremum")


@dataclass(frozen=True)
class CoefficientSet:
    """Vectorized coefficient callables for one registry family.

    Conventions: ``x`` is ``(P, d)`` core state, ``a`` a scalar control
    value, ``z`` a ``(P,)`` mark vector; ``b -> (P, d)``,
    ``sigma -> (P, d, m)``, ``gamma -> (P, d)``, ``f -> (P,)``; the terminal
    map ``g`` takes the full ``(P, d + aug)`` state.  Families with a known
    solution expose it through :func:`closed_form`, which reads the final
    spec so grid/coefficient overrides are honored.
    """

    family: str
    parameters: dict
    b: Callable
    sigma: Callable
    gamma: Callable
    f: Callable
    g: Callable


@dataclass(frozen=True)
class ProblemSpec:
    """Fully validated problem instance."""

    dim: int
    brownian_dim: int
    a_eigenvalues: np.ndarray
    horizon: float
    coefficients: CoefficientSet
    jump_measure: JumpMeasureSpec
    control: ControlGrid
    randomization: RandomizationSpec
    initial_law: InitialLaw
    augmentation: str = "none"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        eigs = np.asarray(self.a_eigenvalues, dtype=float)
        if eigs.shape != (self.dim,):
            raise ConfigError("a_eigenvalues must have one entry per dim")
        if np.any(eigs > 0.0):
            raise ConfigError("spectrum not dissipative")
        object.__setattr__(self, "a_eigenvalues", eigs)
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be positive")
        if self.augmentation not in AUGMENTATIONS:
            raise ConfigError(f"unknown augmentation {self.augmentation!r}")
        if (self.augmentation != "none"
                and self.coefficients.family != "lookback-integral"):
            raise ConfigError(
                "augmentation not supported for family "
                f"{self.coefficients.family!r}")
        if self.randomization.lambda0_weights.size != self.control.size:
            raise ConfigError("lambda0_weights must match the control grid")
        if self.initial_law.mean.shape != (self.dim,):
            raise ConfigError("initial law dimension mismatch")

    # -- derived geometry ----------------------------------------------------

    @property
    def aug_dim(self) -> int:
        return 0 if self.augmentation == "none" else 1

    @property
    def total_dim(self) -> int:
        return self.dim + self.aug_dim

    def decay_factor(self, dt: float) -> np.ndarray:
        """exp(dt * A) on the diagonal; contraction since eigenvalues <= 0."""
        return np.exp(dt * self.a_eigenvalues)

    @property
    def has_jumps(self) -> bool:
        """Whether the state jumps: a positive rate and a jump map."""
        return (self.jump_measure.total_rate > 0.0
                and self.coefficients.gamma is not None)

    def default_steps(self) -> int:
        return max(1, int(math.ceil(STEPS_PER_UNIT_TIME * self.horizon)))

    def time_grid(self, n_steps: int) -> np.ndarray:
        """The one time grid of paths, lattice sweeps and residuals:
        ``n_steps`` uniform steps from t = 0 to the horizon.  Raises
        ``ValueError`` unless ``n_steps`` is an integer >= 1."""
        if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
            raise ValueError(f"the step count must be an integer >= 1, "
                             f"got {n_steps!r}")
        return self.horizon * np.arange(n_steps + 1) / n_steps

    def mean_jump(self, t: float, x: np.ndarray, a: float) -> np.ndarray:
        """(P, d) sum_z w_z gamma(t, x, a, z) on ``COMPENSATOR_NODES`` mark
        nodes: the jump compensator per unit of ``total_rate``."""
        n = x.shape[0]
        z_nodes, z_weights = self.jump_measure.gauss_nodes(COMPENSATOR_NODES)
        comp = np.zeros((n, self.dim))
        for zi, zw in zip(z_nodes, z_weights):
            comp += zw * self.coefficients.gamma(t, x, a, np.full(n, zi))
        return comp

    def initial_augmented(self, x0: np.ndarray) -> np.ndarray:
        """Append the initial value of the running functional, if any."""
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        if self.augmentation == "none":
            return x0
        if self.augmentation == "running-integral":
            z0 = np.zeros((x0.shape[0], 1))
        else:
            z0 = x0[:, :1].copy()
        return np.hstack([x0, z0])

    def fingerprint(self) -> str:
        """Stable hash of everything that defines the problem instance."""
        payload = {
            "family": self.coefficients.family,
            "parameters": {k: self.coefficients.parameters[k]
                           for k in sorted(self.coefficients.parameters)},
            "dim": self.dim,
            "brownian_dim": self.brownian_dim,
            "eigs": self.a_eigenvalues.tolist(),
            "horizon": self.horizon,
            "control": self.control.points.tolist(),
            "lambda0": self.randomization.lambda0_weights.tolist(),
            "a0_index": self.randomization.a0_index,
            "jump": [self.jump_measure.total_rate,
                     self.jump_measure.mark_sampler_id,
                     {k: self.jump_measure.mark_parameters[k]
                      for k in sorted(self.jump_measure.mark_parameters)}],
            "init": [self.initial_law.kind, self.initial_law.mean.tolist(),
                     None if self.initial_law.cov_diag is None
                     else self.initial_law.cov_diag.tolist()],
            "augmentation": self.augmentation,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def update_running_functional(kind: str, z: np.ndarray, x_left: np.ndarray,
                              x_right: np.ndarray, dt: float) -> np.ndarray:
    """One-step update of the running augmentation coordinate.

    Shared by the path integrator and the one-step transition kernel so the
    two never disagree.  Trapezoid for the integral; pointwise max for the
    supremum (the supremum over the step is approximated at grid nodes).
    """
    if kind == "running-integral":
        return z + 0.5 * (x_left + x_right) * dt
    if kind == "running-supremum":
        return np.maximum(z, x_right)
    raise ValueError(f"unknown augmentation {kind!r}")


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------

def _const_sigma(value: float, d: int, m: int) -> Callable:
    base = np.full((d, m), value, dtype=float)

    def sigma(t, x, a):
        return np.broadcast_to(base, (x.shape[0], d, m))

    return sigma


def _zero_vec(d: int) -> Callable:
    def fn(t, x, a):
        return np.zeros((x.shape[0], d))
    return fn


def _zero_scalar(t, x, a):
    return np.zeros(x.shape[0])


def _no_jumps() -> JumpMeasureSpec:
    return JumpMeasureSpec(
        total_rate=0.0, mark_sampler_id="two-point",
        mark_parameters={"values": [1.0, -1.0], "probs": [0.5, 0.5]})


def _family_uncontrolled_decay(p: dict) -> dict:
    """dX = -X dt, reward g(x) = x; the control enters nothing.

    Closed form: v(t, x) = exp(-(T-t)) * x for horizon T, identical across
    the control grid and across penalization levels.
    """
    return {
        "dim": 1, "brownian_dim": 1, "a_eigenvalues": [-1.0],
        "control_points": [-1.0, 1.0], "a0_index": 0,
        "x0": [1.0],
        "jump": _no_jumps(),
        "b": _zero_vec(1), "sigma": _const_sigma(0.0, 1, 1),
        "gamma": None, "f": _zero_scalar,
        "g": lambda x: x[:, 0].copy(),
    }


def _family_bang_drift(p: dict) -> dict:
    """dX = a dt + sigma dW with a in {-1,0,1}, reward g(x) = x.

    Closed form: v(t, x) = x + (T - t), attained by the maximal drift.
    """
    def b(t, x, a):
        return np.full((x.shape[0], 1), a)

    return {
        "dim": 1, "brownian_dim": 1, "a_eigenvalues": [0.0],
        "control_points": [-1.0, 0.0, 1.0], "a0_index": 2,
        "x0": [0.0],
        "jump": _no_jumps(),
        "b": b, "sigma": _const_sigma(p["sigma"], 1, 1),
        "gamma": None, "f": _zero_scalar,
        "g": lambda x: x[:, 0].copy(),
    }


def _family_jump_reward(p: dict) -> dict:
    """Pure-jump control: dX = a dJ (compensated), f = a, g = -x^2.

    With M = rate * E[z^2], any control keeps X a square-integrable
    martingale with d/dt E[X^2] = a^2 M, so
    v(t, x) = -x^2 + max_a (a - a^2 M) (T - t); the argmax is unique for
    the default marks (M = 1/2, argmax a = 1, value rate 1/2).
    """
    def gamma(t, x, a, z):
        out = np.zeros((x.shape[0], 1))
        out[:, 0] = a * z
        return out

    return {
        "dim": 1, "brownian_dim": 1, "a_eigenvalues": [0.0],
        "control_points": [-1.0, 0.0, 1.0], "a0_index": 2,
        "x0": [0.0],
        "jump": JumpMeasureSpec(
            total_rate=p["rate"], mark_sampler_id="two-point",
            mark_parameters={"values": [p["z_hi"], p["z_lo"]],
                             "probs": [p["p_hi"], 1 - p["p_hi"]]}),
        "b": _zero_vec(1), "sigma": _const_sigma(p["sigma"], 1, 1),
        "gamma": gamma,
        "f": lambda t, x, a: np.full(x.shape[0], a),
        "g": lambda x: -x[:, 0] ** 2,
    }


def _family_ou_switch(p: dict) -> dict:
    """Mean reversion toward the active control: dX = r (a - X) dt + s dW,
    f = g = -x^2.  No closed form; checked by route cross-consistency.
    """
    rev = p["reversion"]

    def b(t, x, a):
        return rev * (a - x)

    def neg_sq(t, x, a):
        return -x[:, 0] ** 2

    return {
        "dim": 1, "brownian_dim": 1, "a_eigenvalues": [0.0],
        "control_points": [-1.0, 0.0, 1.0], "a0_index": 1,
        "x0": [0.5],
        "jump": _no_jumps(),
        "b": b, "sigma": _const_sigma(p["sigma"], 1, 1),
        "gamma": None, "f": neg_sq,
        "g": lambda x: -x[:, 0] ** 2,
    }


def _family_lookback_integral(p: dict) -> dict:
    """dX = a dt + sigma dW rewarded through a running functional of X.

    Default augmentation is the running integral, g = that coordinate;
    closed form v(t, x, z) = z + x (T - t) + max_a a (T - t)^2 / 2.  The
    running-supremum variant is mechanical only (no closed form claimed).
    """
    def b(t, x, a):
        return np.full((x.shape[0], 1), a)

    return {
        "dim": 1, "brownian_dim": 1, "a_eigenvalues": [0.0],
        "control_points": [-1.0, 1.0], "a0_index": 1,
        "x0": [0.0],
        "augmentation": "running-integral",
        "jump": _no_jumps(),
        "b": b, "sigma": _const_sigma(p["sigma"], 1, 1),
        "gamma": None, "f": _zero_scalar,
        "g": lambda x: x[:, 1].copy(),
    }


#: The family registry: each family's builder, and its parameters with their
#: defaults.  A config's ``parameters`` block may set these and no other,
#: and the builder reads them as floats.
FAMILIES = {
    "uncontrolled-decay": (_family_uncontrolled_decay, {"horizon": 1.0}),
    "bang-drift": (_family_bang_drift, {"horizon": 1.0, "sigma": 0.2}),
    "jump-reward": (_family_jump_reward, {
        "horizon": 1.0, "sigma": 0.0, "rate": 2.0,
        "z_hi": 0.5, "z_lo": -0.5, "p_hi": 0.5}),
    "ou-switch": (_family_ou_switch, {
        "horizon": 1.0, "sigma": 0.3, "reversion": 1.0}),
    "lookback-integral": (_family_lookback_integral,
                          {"horizon": 1.0, "sigma": 0.2}),
}


# ---------------------------------------------------------------------------
# Loading and evaluation
# ---------------------------------------------------------------------------

def load_problem(source) -> ProblemSpec:
    """Build a validated ProblemSpec from a config dict or JSON file path.

    Only ``schema_version`` and ``family`` are required; everything else
    falls back to the family's documented defaults.  Raises ConfigError on
    malformed documents (unknown family, positive eigenvalue, nonpositive
    lambda0 weight, a key outside ``CONFIG_KEYS``, ...).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        cfg = source
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object or a JSON file path")

    _checked(cfg, "", CONFIG_KEYS[""], ("schema_version", "family"))
    if _integer(cfg["schema_version"],
                "schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {cfg['schema_version']!r}")
    family = _name(cfg["family"], "family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")

    def read(key, parse, default):
        # the top-level ``key`` parsed, or ``default`` when it is absent
        return parse(cfg[key], key) if key in cfg else default

    build, defaults = FAMILIES[family]
    params = dict(_checked(cfg.get("parameters", {}), "parameters",
                           defaults, ()))
    values = {k: _number(params[k], f"parameters.{k}") if k in params
              else float(v) for k, v in defaults.items()}
    built = build(values)

    points = read("control_points", _numbers, built["control_points"])
    grid = ControlGrid(points=np.asarray(points, dtype=float))

    if "a0_index" in cfg:
        a0 = _integer(cfg["a0_index"], "a0_index")
    elif "control_points" in cfg:
        a0 = 0  # family default index may not exist on a custom grid
    else:
        a0 = built["a0_index"]

    weights = read("lambda0_weights", _numbers,
                   np.full(grid.size, 1.0 / grid.size))
    randomization = RandomizationSpec(lambda0_weights=weights, a0_index=a0)

    jump = built["jump"]
    if "jump" in cfg:
        j = _checked(cfg["jump"], "jump", CONFIG_KEYS["jump"],
                     CONFIG_KEYS["jump"])
        jump = JumpMeasureSpec(
            total_rate=_number(j["total_rate"], "jump.total_rate"),
            mark_sampler_id=_name(j["mark_sampler_id"],
                                  "jump.mark_sampler_id"),
            mark_parameters=j["mark_parameters"])

    if "initial_law" in cfg:
        il = _checked(cfg["initial_law"], "initial_law",
                      CONFIG_KEYS["initial_law"], ("kind", "mean"))
        law = InitialLaw(kind=_name(il["kind"], "initial_law.kind"),
                         mean=_numbers(il["mean"], "initial_law.mean"),
                         cov_diag=(_numbers(il["cov_diag"],
                                            "initial_law.cov_diag")
                                   if "cov_diag" in il else None))
    else:
        law = InitialLaw(kind="point", mean=built["x0"])

    coeffs = CoefficientSet(
        family=family, parameters=params,
        b=built["b"], sigma=built["sigma"],
        gamma=built["gamma"], f=built["f"], g=built["g"])

    tolerances = dict(DEFAULT_TOLERANCES)
    given = _checked(cfg.get("tolerances", {}), "tolerances",
                     CONFIG_KEYS["tolerances"], ())
    for key, value in given.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value < 0):
            raise ConfigError(f"tolerance {key!r} must be a finite number "
                              f">= 0, got {value!r}")
        tolerances[key] = value

    return ProblemSpec(
        dim=built["dim"],
        brownian_dim=built["brownian_dim"],
        a_eigenvalues=read("a_eigenvalues", _numbers,
                           built["a_eigenvalues"]),
        horizon=values["horizon"],
        coefficients=coeffs,
        jump_measure=jump,
        control=grid,
        randomization=randomization,
        initial_law=law,
        augmentation=read("augmentation", _name,
                          built.get("augmentation", "none")),
        tolerances=tolerances,
    )


def eval_terminal(spec: ProblemSpec, x_aug: np.ndarray) -> np.ndarray:
    """Terminal reward on the (possibly augmented) state, vectorized."""
    x_aug = np.atleast_2d(np.asarray(x_aug, dtype=float))
    if x_aug.shape[1] != spec.total_dim:
        raise ValueError(
            f"terminal state must have {spec.total_dim} coordinates")
    return spec.coefficients.g(x_aug)


# ---------------------------------------------------------------------------
# Closed forms (families that admit one), computed from the final spec so
# control-grid or eigenvalue overrides are honored.
# ---------------------------------------------------------------------------

def _lin_growth(lam: float, tau) -> float:
    """int_0^tau exp(lam s) ds with the lam -> 0 limit handled."""
    if abs(lam) < 1e-14:
        return tau
    return math.expm1(lam * tau) / lam


def closed_form(spec: ProblemSpec) -> Optional[dict]:
    """Exact value function of the relaxed control problem, when known.

    Returns ``{"value": value(t, x)}``, or None when the family (or an
    override) has no claimed solution.  ``x`` is the state; for the
    lookback family it may carry the running integral after the core
    state, and a core state alone stands for the integral's start, 0.
    The surfaces are test and benchmark oracles, for example of the
    initial value ``value(0, x0)``; no command certifies one.
    """
    fam = spec.coefficients.family
    T = spec.horizon
    lam = float(spec.a_eigenvalues[0]) if spec.dim == 1 else None

    if fam == "uncontrolled-decay" and spec.dim == 1:
        return {"value": lambda t, x: math.exp(lam * (T - t)) * x[0]}

    if fam == "bang-drift" and spec.dim == 1:
        amax = float(np.max(spec.control.points))
        return {"value": lambda t, x: (math.exp(lam * (T - t)) * x[0]
                                       + amax * _lin_growth(lam, T - t))}

    if fam == "jump-reward" and spec.dim == 1 and abs(lam) < 1e-14:
        m2 = spec.jump_measure.second_moment
        sig = float(spec.coefficients.parameters.get(
            "sigma", FAMILIES[fam][1]["sigma"]))
        run = max(float(a) - float(a) ** 2 * m2
                  for a in spec.control.points) - sig ** 2
        return {"value": lambda t, x: -x[0] ** 2 + run * (T - t)}

    if (fam == "lookback-integral" and spec.dim == 1
            and abs(lam) < 1e-14
            and spec.augmentation == "running-integral"):
        amax = float(np.max(spec.control.points))
        return {"value": lambda t, x: ((x[1] if len(x) > 1 else 0.0)
                                       + x[0] * (T - t)
                                       + 0.5 * amax * (T - t) ** 2)}

    return None
