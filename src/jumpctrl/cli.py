"""Batch front-end: load a config, drive the solvers, emit artifacts.

Four subcommands over one problem config::

    jumpctrl simulate CONFIG --paths N [--steps K] [--seed S] --out DIR
    jumpctrl solve    CONFIG --method {penalized-grid,penalized-lsmc,dp}
                      [--ladder 1,2,4,8,16] [--steps K] [--nodes N]
                      [--paths N] [--seed S] --out DIR
    jumpctrl verify   CONFIG [--suite NAME] [--levels 1,2,4,8,16]
                      [--steps K] [--nodes N] [--paths N] [--field FIELD.csv]
                      [--seed S] [--out DIR]
    jumpctrl plot     INPUT.csv --kind {value-ladder,residual-heatmap,path-fan}
                      --out FILE.svg

Every run writes a manifest listing its outputs and per-check verdicts
(tri-state: pass / fail / skipped).  Exit codes: 0 everything passed,
1 an invariant check failed, 2 usage or validation error.  All numeric
outputs are a pure function of (config, seed, grid overrides); reruns
reproduce CSV artifacts byte for byte.  Tolerances come from the config's
``tolerances`` block, never from the commands.

The command runs BLAS on one thread: its matrices are a few columns wide,
and an idle multi-threaded pool only spins next to it.  A caller who sets
any of ``BLAS_THREAD_VARS`` keeps that choice; every artifact is the same
at any thread count.  Importing the package itself leaves BLAS alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The thread-count variables that numpy's BLAS builds read when they load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# set before the first numpy import of a jumpctrl process, which is below
if not any(name in os.environ for name in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from . import (__version__, bsde, dp, girsanov, hjb,  # noqa: E402
               problem, sim, svgplot, transition)

#: The five checks a ValueReport must always carry, even when skipped.
VERDICT_KEYS = ("monotonicity", "constraint-decay", "dpp",
                "value-equality", "hjb-certificate")
SUITES = ("martingale", "monotone", "constraint", "dpp",
          "value-equality", "hjb")
FIELD_SCHEMA = "jumpctrl-dpfield@1"
#: Penalization levels of ``solve --ladder`` and ``verify --levels``
DEFAULT_LEVELS = (1, 2, 4, 8, 16)


def _verdict(flag) -> str:
    if flag is None:
        return "skipped"
    return "pass" if flag else "fail"


def _jsonable(obj):
    """Recursively coerce report payloads into JSON-encodable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_json(payload, path: Path) -> None:
    """Write a dict or dataclass as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path: Path, t0: float, command: str,
                    config: str | None, seed: int, overrides: dict,
                    verdicts: dict, outputs: list) -> None:
    """Write the provenance record of a command started at ``t0``
    (``time.perf_counter``) to ``path``, in its ``out_dir``; ``threads``
    holds the BLAS thread variables (``None`` if unset)."""
    _write_json({"command": command, "config": config, "seed": seed,
                 "overrides": overrides, "out_dir": str(path.parent),
                 "tool_version": __version__,
                 "threads": {name: os.environ.get(name)
                             for name in BLAS_THREAD_VARS},
                 "wall_clock_s": round(time.perf_counter() - t0, 3),
                 "verdicts": verdicts, "outputs": outputs}, path)


@dataclass
class ValueReport:
    """Classical and randomized initial values side by side."""

    problem_id: str
    family: str
    fingerprint: str
    v0_dp: float | None
    levels: list
    level_values: list
    level_ses: list
    value_limit: float | None
    tilt: dict | None
    verdicts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in VERDICT_KEYS:
            self.verdicts.setdefault(key, "skipped")


def _problem_id(spec) -> str:
    return f"{spec.coefficients.family}:{spec.fingerprint()[:12]}"


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _write_lattice_csv(path, spec, time_grid, grid, names, columns,
                       per_node: int = 1) -> None:
    """Rows time-major over C-order nodes, ``per_node`` rows per node:
    ``t``, the node's coordinates, then the named ``columns``."""
    nodes = np.repeat(grid.nodes(), per_node, axis=0)
    sim.write_csv_columns(
        path, ["t", *sim._state_columns(spec), *names],
        [np.repeat(time_grid, nodes.shape[0]),
         *np.tile(nodes, (time_grid.size, 1)).T, *columns])


def write_ladder_csv(report, path: Path) -> None:
    sim.write_csv_columns(path, ["level", "value", "se"],
                          [np.asarray(report.levels, dtype=np.int64),
                           np.asarray(report.values, dtype=float),
                           np.asarray(report.ses, dtype=float)])


def write_dp_field_csv(fld, spec, csv_path: Path,
                       sidecar_path: Path) -> None:
    """Value/argmax lattice as CSV plus a JSON sidecar with the axes.

    Rows run time-major, nodes in C order, so the pair round-trips through
    ``load_dp_field`` without any searching.
    """
    n_nodes = int(np.prod(fld.grid.shape))
    _write_lattice_csv(csv_path, spec, fld.time_grid, fld.grid,
                       ["value", "argmax"],
                       [fld.values.reshape(-1),
                        np.concatenate([fld.argmax[:fld.n_steps].reshape(-1),
                                        np.full(n_nodes, -1)])])
    meta = {
        "schema": FIELD_SCHEMA,
        "family": spec.coefficients.family,
        "fingerprint": fld.metadata["fingerprint"],
        "kernel": fld.metadata["kernel"],
        "axes": [ax.tolist() for ax in fld.grid.axes],
        "time_grid": fld.time_grid.tolist(),
    }
    _write_json(meta, sidecar_path)


def load_dp_field(csv_path) -> dp.DpField:
    """Rebuild a value lattice from its CSV + sidecar pair.

    Raises ValueError with a reason on any corruption: missing sidecar,
    malformed JSON, wrong row count, unparseable cells, or a row whose
    ``t`` and coordinate cells are not exactly the sidecar's time grid and
    C-order nodes at that position (the writer's ``repr`` cells round-trip,
    so exact equality is the test).
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        if meta.get("schema") != FIELD_SCHEMA:
            raise ValueError(f"sidecar schema is not {FIELD_SCHEMA!r}")
        grid = transition.LatticeGrid(
            axes=tuple(np.asarray(ax, dtype=float) for ax in meta["axes"]))
        time_grid = np.asarray(meta["time_grid"], dtype=float)
        if time_grid.size < 2:
            raise ValueError(f"the sidecar's time grid has {time_grid.size} "
                             f"nodes, fewer than 2")
        n_nodes = int(np.prod(grid.shape))
        n_rows = time_grid.size * n_nodes
        values = np.empty(n_rows)
        argmax = np.empty(n_rows, dtype=np.int64)
        coords = np.empty((n_rows, 1 + len(grid.axes)))
        with open(csv_path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            coord_cols = [c for c in reader.fieldnames
                          if c not in ("value", "argmax")]
            if len(coord_cols) != coords.shape[1]:
                raise ValueError(f"expected {coords.shape[1]} time and "
                                 f"coordinate columns, found "
                                 f"{len(coord_cols)}")
            count = 0
            for row in reader:
                if count == n_rows:
                    raise ValueError(f"expected {n_rows} rows, found more")
                coords[count] = [float(row[c]) for c in coord_cols]
                values[count] = float(row["value"])
                argmax[count] = int(row["argmax"])
                count += 1
        if count != n_rows:
            raise ValueError(f"expected {n_rows} rows, found {count}")
        expected = np.column_stack((np.repeat(time_grid, n_nodes),
                                    np.tile(grid.nodes(),
                                            (time_grid.size, 1))))
        bad = np.flatnonzero(np.any(coords != expected, axis=1))
        if bad.size:
            raise ValueError(f"data row {bad[0] + 1} is not at the sidecar's "
                             f"t and node {expected[bad[0]].tolist()}")
        values = values.reshape(time_grid.size, *grid.shape)
        argmax = argmax.reshape(time_grid.size, *grid.shape)[:-1]
        metadata = {"solver": "dp-from-csv",
                    "fingerprint": meta["fingerprint"],
                    "kernel": meta["kernel"],
                    "dt": float(time_grid[1] - time_grid[0])}
        return dp.DpField(time_grid=time_grid, grid=grid, values=values,
                          argmax=argmax, metadata=metadata)
    except (OSError, KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable field artifact {csv_path}: "
                         f"{exc}") from exc


def write_penalized_field_csv(fld, spec, path: Path) -> None:
    n_controls = spec.control.size
    _write_lattice_csv(path, spec, fld.time_grid, fld.grid,
                       ["regime", "value"],
                       [np.tile(np.arange(n_controls),
                                fld.values.size // n_controls),
                        fld.values.reshape(-1)], per_node=n_controls)


def write_residual_csv(res, spec, path: Path) -> None:
    """Residual surface as heat-map rows; band nodes carry 'nan'."""
    _write_lattice_csv(path, spec, res.time_grid, res.grid,
                       ["residual", "argmax"],
                       [res.residual.reshape(-1), res.argmax.reshape(-1)])


def _check_sizes(args, min_steps: int, min_paths: int) -> None:
    """Reject sizes too small for the command's checks, before any output.

    The HJB certificate's second-order time derivative needs three time
    nodes, its space stencils need ``hjb.MIN_AXIS_NODES`` nodes per axis,
    and every Monte Carlo standard error needs two paths.
    """
    if args.steps is not None and args.steps < min_steps:
        raise ValueError(f"--steps must be at least {min_steps}, "
                         f"got {args.steps}")
    nodes = getattr(args, "nodes", None)
    if nodes is not None and nodes < hjb.MIN_AXIS_NODES:
        raise ValueError(f"--nodes must be at least {hjb.MIN_AXIS_NODES}, "
                         f"got {nodes}")
    if args.paths < min_paths:
        raise ValueError(f"--paths must be at least {min_paths}, "
                         f"got {args.paths}")


def _ensure_out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------

class _Workbench:
    """Lazily built artifacts shared by ``solve`` and the verify suites.

    Everything is keyed off one (config, seed, overrides) triple so a
    command never mixes fields from different lattices or seeds, and
    ``solve`` and ``verify`` build each artifact the same way.
    """

    def __init__(self, spec, levels, steps, nodes, paths, seed):
        self.spec = spec
        self.levels = tuple(levels)
        self.steps = (steps if steps is not None
                      else bsde.default_time_steps(spec, max(self.levels)))
        self.nodes = nodes
        self.paths = paths
        self.seed = seed
        self._cache = {}

    def grid(self):
        if "grid" not in self._cache:
            self._cache["grid"] = transition.default_state_grid(
                self.spec, self.nodes)
        return self._cache["grid"]

    def ladder(self):
        if "ladder" not in self._cache:
            self._cache["ladder"] = bsde.minimal_value(
                self.spec, self.levels, self.steps, self.grid())
        return self._cache["ladder"]

    def lsmc_ladder(self):
        # its own bundle, dropped on return: the cached one would stay
        # alive through the DP solve and the certificate
        return bsde.minimal_value(
            self.spec, self.levels, self.steps,
            sim.simulate_bundle(self.spec, self.paths, self.seed,
                                n_steps=self.steps))

    def penalized(self, level: int):
        return self.ladder().per_level[self.levels.index(level)]

    def dp_field(self):
        if "dp" not in self._cache:
            self._cache["dp"] = dp.solve_dp_grid(
                self.spec, n_time_steps=self.steps, grid=self.grid())
        return self._cache["dp"]

    def bundle(self):
        if "bundle" not in self._cache:
            self._cache["bundle"] = sim.simulate_bundle(
                self.spec, self.paths, self.seed, n_steps=self.steps)
        return self._cache["bundle"]

    def argmax_tilt(self):
        fld = self.penalized(max(self.levels))
        strength = float(max(2, max(self.levels)))
        return girsanov.IntensityControl.argmax_tilt(
            fld.time_grid, fld.grid.axes, fld.values, strength)

    def tilted_value_equality(self):
        """The value-equality check with the argmax tilt's simulated gain
        as its bound: ``(tilt, gain estimate, check)``."""
        nu = self.argmax_tilt()
        est = girsanov.randomized_gain(self.spec, nu, n_paths=self.paths,
                                       seed=self.seed, n_steps=self.steps)
        eq = dp.value_equality_check(self.dp_field(), self.ladder(),
                                     self.spec, tilt_estimate=est)
        return nu, est, eq


def _suite_martingale(wb: _Workbench):
    """Tilt weights must average to one on a reference bundle, and the
    reweighted and tilted-simulation gain routes must agree."""
    se_mult = wb.spec.tolerances["se_multiplier"]
    bundle = wb.bundle()
    nus = [girsanov.IntensityControl.const(c) for c in (0.5, 1.0, 2.0)]
    nus.append(wb.argmax_tilt())
    weights = []
    ok = True
    for nu in nus:
        est = girsanov.reweighted_expectation(bundle, nu,
                                              girsanov.unit_payoff)
        good = bool(abs(est.mean - 1.0) <= se_mult * est.se + 1e-12)
        weights.append({"nu_id": nu.nu_id, "kappa_mean": est.mean,
                        "kappa_se": est.se, "ok": good})
        ok = ok and good
    agree = girsanov.check_mode_agreement(
        bundle, girsanov.IntensityControl.const(2.0))
    ok = ok and agree["ok"]
    return ok, {"weights": weights, "mode_agreement": agree}


def _suite_monotone(wb: _Workbench):
    rep = wb.ladder()
    detail = {"levels": list(rep.levels), "values": list(rep.values),
              "max_violation": rep.monotone_max_violation,
              "tol_monotone": wb.spec.tolerances["tol_monotone"]}
    return rep.monotone_ok, detail


def _suite_constraint(wb: _Workbench):
    """Penalty pressure must relax as the level grows."""
    lo_n, hi_n = min(wb.levels), max(wb.levels)
    lo, hi = bsde.constraint_gap((wb.penalized(lo_n), wb.penalized(hi_n)),
                                 wb.bundle())
    # phi is a squared mean, so its MC noise comes from the mean's se
    noise = (2.0 * abs(lo.mean_integral) * lo.se_integral
             + 2.0 * abs(hi.mean_integral) * hi.se_integral
             + lo.se_integral ** 2 + hi.se_integral ** 2)
    phi_ok = bool(hi.phi <= lo.phi + noise + 1e-12)
    k_ok = bool(hi.k_ratio <= 0.5 * lo.k_ratio + 1e-12)
    detail = {"level_lo": lo_n, "level_hi": hi_n,
              "phi_lo": lo.phi, "phi_hi": hi.phi, "phi_ok": phi_ok,
              "k_lo": lo.k_ratio, "k_hi": hi.k_ratio, "k_ok": k_ok}
    return phi_ok and k_ok, detail


def _suite_dpp(wb: _Workbench):
    fld = wb.penalized(max(wb.levels))
    res = bsde.check_randomized_dpp(fld, wb.spec,
                                    t_prime=wb.spec.horizon / 2.0,
                                    n_paths=wb.paths, seed=wb.seed)
    return res["ok"], res


def _suite_value_equality(wb: _Workbench):
    nu, est, eq = wb.tilted_value_equality()
    return eq["ok"], {**eq, "tilt_nu": nu.nu_id, "tilt_se": est.se}


def _suite_hjb(wb: _Workbench, field_path):
    """The residual certificate of the run's DP field, or of the field
    at ``field_path``; a loaded field that cannot be read or certified is
    skipped with the reason."""
    reason = hjb.unavailable_reason(wb.spec)
    if reason is not None:
        return None, {"reason": reason}
    if field_path is None:
        fld = wb.dp_field()
        cert = hjb.residual_certificate(fld, wb.spec)
    else:
        try:
            fld = load_dp_field(field_path)
            cert = hjb.residual_certificate(fld, wb.spec)
        except ValueError as exc:
            return None, {"reason": str(exc)}
    detail = {k: v for k, v in cert.items() if k != "residual_field"}
    if field_path is not None:
        # the loaded field was solved on its own time grid
        detail["truncated_jump_mass"] = transition.truncated_jump_mass(
            wb.spec, fld.metadata["dt"])
    return cert["ok"], detail


_SUITE_FNS = {
    "martingale": _suite_martingale,
    "monotone": _suite_monotone,
    "constraint": _suite_constraint,
    "dpp": _suite_dpp,
    "value-equality": _suite_value_equality,
}

#: The suites that read the ladder and the DP field but never the
#: reference bundle.  When a selection also holds a suite that reads the
#: bundle, these run in a forked worker while the parent simulates it.
WORKER_SUITES = ("dpp", "value-equality")
#: prctl(2) option that signals a child when its parent dies (Linux)
_PR_SET_PDEATHSIG = 1


def _run_suite(wb: _Workbench, name: str, field_path):
    if name == "hjb":
        return _suite_hjb(wb, field_path)
    return _SUITE_FNS[name](wb)


def _rewarn(message, category, filename: str, lineno: int) -> None:
    """Issue a warning recorded in the worker as if it were raised here at
    its origin: through this process's filters and the once-per-location
    registry of the module it came from."""
    import warnings
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(
            message, category, filename, lineno, module.__name__,
            vars(module).setdefault("__warningregistry__", {}))


class _Worker:
    """The suites ``names`` running in a forked child of this process.

    The child runs them in order until one raises, and pickles back
    through a pipe, per suite run, every warning it raised (unfiltered)
    and its ``(ok, detail)`` or exception.  ``outcome(name)`` waits for the
    child the first time it is called, then replays that suite's warnings
    here and returns its result or raises its exception, so the parent
    reports every suite in suite order as an in-process run would.
    ``close()`` kills a child whose results were never read, and reaps it.
    The modules of this path are imported where used, so the module's own
    imports stay the ones every command needs.
    """

    def __init__(self, wb: _Workbench, names):
        self.names = tuple(names)
        # the child inherits unwritten buffers and must not write them too
        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            self._serve(wb, write_fd, parent)
        os.close(write_fd)
        self._pipe = os.fdopen(read_fd, "rb")
        self._results = None

    def _serve(self, wb: _Workbench, fd: int, parent: int) -> None:
        """The child's whole life; never returns.  It leaves through
        ``os._exit``, so no buffered output or exit hook of the parent
        process runs twice."""
        import ctypes
        import pickle
        import signal
        import warnings
        code = 1
        try:
            if sys.platform.startswith("linux"):
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
                prctl.restype = ctypes.c_int
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:      # the parent died before prctl
                return
            results = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for name in self.names:
                    try:
                        outcome = _run_suite(wb, name, None)
                    except Exception as exc:
                        outcome = exc
                    results.append((name, [(w.message, w.category,
                                            w.filename, w.lineno)
                                           for w in caught], outcome))
                    del caught[:]
                    if isinstance(outcome, Exception):
                        break
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(results, fh)
            code = 0
        finally:
            os._exit(code)

    def outcome(self, name: str):
        import pickle
        if self._results is None:
            with self._pipe:
                data = self._pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            # the worker exits 0 only once the whole pickle is written
            if status != 0:
                raise ChildProcessError(
                    f"the worker running the {', '.join(self.names)} "
                    f"suites ended without a result (exit code "
                    f"{os.waitstatus_to_exitcode(status)})")
            self._results = {suite: (caught, outcome) for
                             suite, caught, outcome in pickle.loads(data)}
        caught, outcome = self._results[name]
        for warning in caught:
            _rewarn(*warning)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def close(self) -> None:
        import signal
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    _check_sizes(args, min_steps=1, min_paths=1)
    spec = problem.load_problem(args.config)
    bundle = sim.simulate_bundle(spec, args.paths, args.seed,
                                 n_steps=args.steps)
    out = _ensure_out_dir(args.out)
    sim.write_bundle_csv(bundle, str(out / "paths.csv"),
                         str(out / "paths.json"))
    _write_manifest(out / "manifest.json", t0, "simulate", args.config,
                    args.seed, {"paths": args.paths, "steps": args.steps},
                    {}, ["paths.csv", "paths.json", "manifest.json"])
    print(f"wrote {bundle.n_paths} paths x {bundle.n_steps} steps "
          f"({bundle.n_excluded} excluded) to {out}")
    return 0


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    _check_sizes(args, min_steps=2, min_paths=2)
    spec = problem.load_problem(args.config)
    out = _ensure_out_dir(args.out)
    # dp keeps the config's step count; a ladder sizes its time grid to
    # its largest level
    steps = (spec.default_steps() if args.steps is None
             and args.method == "dp" else args.steps)
    wb = _Workbench(spec, levels=args.ladder, steps=steps, nodes=args.nodes,
                    paths=args.paths, seed=args.seed)
    outputs = ["value_report.json", "manifest.json",
               "dp_field.csv", "dp_field.json"]
    verdicts: dict = {}
    details: dict = {}
    ladder = tilt = None
    if args.method != "dp":
        ladder = (wb.ladder() if args.method == "penalized-grid"
                  else wb.lsmc_ladder())
        write_ladder_csv(ladder, out / "ladder.csv")
        outputs.append("ladder.csv")
        verdicts["monotonicity"] = _verdict(ladder.monotone_ok)
        details["monotonicity"] = {
            "max_violation": ladder.monotone_max_violation,
            "tol_monotone": spec.tolerances["tol_monotone"]}

    # classical value on the ladder's time grid and lattice keeps the
    # report apples-to-apples
    fld = wb.dp_field()
    write_dp_field_csv(fld, spec, out / "dp_field.csv", out / "dp_field.json")
    certified = fld
    if args.method == "penalized-grid":
        certified = ladder.last_field
        write_penalized_field_csv(certified, spec,
                                  out / "penalized_field.csv")
        outputs.append("penalized_field.csv")
        nu, est, eq = wb.tilted_value_equality()
        tilt = {"nu_id": nu.nu_id, "mean": est.mean, "se": est.se}
    elif args.method == "penalized-lsmc":
        eq = dp.value_equality_check(fld, ladder, spec)
        # the fallbacks depend on the features only: same at every level
        quint = ladder.last_field
        details["lsmc"] = {
            "ridge_events": len(quint.ridge_events),
            "carried_cells": len(quint.carried_cells),
            "n_paths": quint.n_paths, "n_excluded": quint.n_excluded}
    if ladder is not None:
        verdicts["value-equality"] = _verdict(eq["ok"])
        details["value-equality"] = eq
        details["constraint-decay"] = details["dpp"] = {
            "reason": "not computed by solve; run jumpctrl verify"}

    reason = hjb.unavailable_reason(spec)
    if reason is None:
        cert = hjb.residual_certificate(certified, spec)
        verdicts["hjb-certificate"] = _verdict(cert["ok"])
        details["hjb-certificate"] = {
            k: v for k, v in cert.items() if k != "residual_field"}
        write_residual_csv(cert["residual_field"], spec,
                           out / "residual.csv")
        outputs.append("residual.csv")
    else:
        details["hjb-certificate"] = {"reason": reason}
    details["truncated_jump_mass"] = fld.metadata["truncated_jump_mass"]
    report = ValueReport(
        problem_id=_problem_id(spec),
        family=spec.coefficients.family,
        fingerprint=spec.fingerprint(),
        v0_dp=fld.value_at_origin(spec),
        levels=list(ladder.levels) if ladder else [],
        level_values=list(ladder.values) if ladder else [],
        level_ses=list(ladder.ses) if ladder else [],
        value_limit=ladder.value_limit if ladder else None, tilt=tilt,
        verdicts=verdicts, details=details)
    _write_json(report, out / "value_report.json")
    _write_manifest(out / "manifest.json", t0, "solve", args.config,
                    args.seed,
                    {"method": args.method, "ladder": list(args.ladder),
                     "steps": args.steps, "nodes": args.nodes,
                     "paths": args.paths},
                    report.verdicts, sorted(outputs))

    v0 = "-" if report.v0_dp is None else repr(float(report.v0_dp))
    lim = ("-" if report.value_limit is None
           else repr(float(report.value_limit)))
    print(f"{report.problem_id} [{args.method}] v0_dp={v0} "
          f"randomized_limit={lim}")
    for key in VERDICT_KEYS:
        print(f"  {key:<18} {report.verdicts[key]}")
    return 1 if "fail" in report.verdicts.values() else 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    _check_sizes(args, min_steps=2, min_paths=2)
    if args.suite in ("all", "constraint") and len(args.levels) < 2:
        raise ValueError("the constraint suite compares two levels; "
                         "--levels needs at least 2")
    spec = problem.load_problem(args.config)
    wb = _Workbench(spec, levels=args.levels, steps=args.steps,
                    nodes=args.nodes, paths=args.paths, seed=args.seed)
    chosen = SUITES if args.suite == "all" else (args.suite,)
    in_worker = [name for name in chosen if name in WORKER_SUITES]
    worker = None
    if in_worker and len(in_worker) < len(chosen):
        # what both lanes read, built once before they part
        wb.grid()
        wb.ladder()
        wb.dp_field()
        if hasattr(os, "fork"):
            worker = _Worker(wb, in_worker)
    verdicts: dict = {}
    details: dict = {}
    try:
        for name in chosen:
            if worker is not None and name in worker.names:
                ok, detail = worker.outcome(name)
            else:
                ok, detail = _run_suite(wb, name, args.field)
            verdicts[name] = _verdict(ok)
            details[name] = detail
            note = ""
            if verdicts[name] == "skipped" and "reason" in detail:
                note = f"  ({detail['reason']})"
            print(f"{name:<16} {verdicts[name]}{note}")
    finally:
        if worker is not None:
            worker.close()
    details["truncated_jump_mass"] = transition.truncated_jump_mass(
        spec, spec.horizon / wb.steps)

    out = _ensure_out_dir(args.out)
    _write_json({
        "problem_id": _problem_id(spec),
        "family": spec.coefficients.family,
        "fingerprint": spec.fingerprint(),
        "seed": args.seed, "n_paths": args.paths,
        "tolerances": spec.tolerances,
        "verdicts": verdicts, "details": details,
    }, out / "verify_report.json")
    _write_manifest(out / "manifest.json", t0, "verify", args.config,
                    args.seed,
                    {"suite": args.suite, "levels": list(args.levels),
                     "steps": args.steps, "nodes": args.nodes,
                     "paths": args.paths, "field": args.field},
                    verdicts, ["verify_report.json", "manifest.json"])
    return 1 if "fail" in verdicts.values() else 0


_PLOT_COLUMNS = {
    "value-ladder": ("level", "value"),
    "residual-heatmap": ("t", "x0", "residual"),
    "path-fan": ("path", "t", "x0"),
}
_PLOT_FNS = {
    "value-ladder": svgplot.render_value_ladder,
    "residual-heatmap": svgplot.render_residual_heatmap,
    "path-fan": svgplot.render_path_fan,
}


def cmd_plot(args) -> int:
    t0 = time.perf_counter()
    with open(args.input, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise problem.ConfigError(f"empty CSV: {args.input} has no data rows")
    missing = [c for c in _PLOT_COLUMNS[args.kind] if c not in rows[0]]
    if missing:
        raise problem.ConfigError(
            f"{args.input} lacks required columns {missing} "
            f"for kind {args.kind!r}")
    svg = _PLOT_FNS[args.kind](rows)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    _write_manifest(out.with_name(out.name + ".manifest.json"), t0,
                    "plot", None, 0, {"input": args.input, "kind": args.kind},
                    {}, [out.name, out.name + ".manifest.json"])
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _level_list(text: str) -> tuple:
    """Penalization levels: integers >= 1 in strictly increasing order."""
    try:
        vals = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one level")
    if vals[0] < 1 or any(a >= b for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError(
            f"expected levels >= 1 in strictly increasing order, "
            f"got {text!r}")
    return vals


def _add_common(sub, with_nodes: bool = True) -> None:
    sub.add_argument("--steps", type=int, default=None,
                     help="time steps (default: from the config)")
    if with_nodes:
        sub.add_argument("--nodes", type=int, default=None,
                         help="state nodes per axis (default: from the "
                              "config)")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpctrl",
        description="Solvers and invariant checks for controlled "
                    "jump-diffusions with randomized regimes.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="simulate reference paths to CSV")
    p_sim.add_argument("config")
    p_sim.add_argument("--paths", type=int, default=1000)
    _add_common(p_sim, with_nodes=False)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_solve = sub.add_parser("solve",
                             help="solve for the value and write a report")
    p_solve.add_argument("config")
    p_solve.add_argument("--method", required=True,
                         choices=("penalized-grid", "penalized-lsmc", "dp"))
    p_solve.add_argument("--ladder", type=_level_list,
                         default=DEFAULT_LEVELS,
                         help="penalization levels, e.g. 1,2,4,8")
    p_solve.add_argument("--paths", type=int, default=20_000,
                         help="Monte Carlo paths (regression/tilt bound)")
    _add_common(p_solve)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("config")
    p_ver.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_ver.add_argument("--levels", type=_level_list,
                       default=DEFAULT_LEVELS)
    p_ver.add_argument("--paths", type=int, default=20_000)
    _add_common(p_ver)
    p_ver.add_argument("--field", default=None,
                       help="certify this solved field CSV instead of "
                            "resolving one (hjb suite)")
    p_ver.add_argument("--out", default=".")
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="render a CSV artifact to SVG 1.1")
    p_plot.add_argument("input")
    p_plot.add_argument("--kind", required=True,
                        choices=("value-ladder", "residual-heatmap",
                                 "path-fan"))
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
