"""Traced in-process run of one jumpctrl command.

    python3 perfbench/tracer.py SPANS.json CLI-ARGS...

Replaces the public functions of the jumpctrl modules (module attributes)
with timing wrappers, then calls ``jumpctrl.cli.main(CLI-ARGS)`` once.
Every call between or within modules resolves through module globals, so
each wrapped function records one span per call: name, start, end and the
span that was open when it began.  Spans are kept in memory in flat arrays
and written, together with the command's arguments, a per-function
summary and the counters read from arguments and return values, when the
command returns.  The exit code is the command's.

The wrappers are instrumentation from outside the package: nothing in
``src/`` knows about them.  One visible side effect is expected:
``transition.kernel_checksum`` hashes the bytecode of the kernel functions
it finds in its module globals, so the ``kernel`` string differs from an
untraced run.  The benchmark allows exactly that difference.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def accumulate(counters: dict, key: str, value) -> None:
    """Add ``value`` to a counter; one named ``*.max`` keeps the maximum."""
    if key.endswith(".max"):
        counters[key] = max(counters.get(key, value), value)
    else:
        counters[key] = counters.get(key, 0) + value


# Counter hooks: (args, kwargs, result) -> {counter: increment}.
def _draws(args, kwargs, result):
    return {"stream.draws": (_arg(args, kwargs, 2, "n_rows")
                             * _arg(args, kwargs, 3, "n_cols"))}


def _paths(args, kwargs, result):
    return {"sim.paths": result.n_paths,
            "sim.path_steps": result.n_paths * result.n_steps,
            "sim.excluded": result.n_excluded}


def _points(args, kwargs, result):
    pts = _arg(args, kwargs, 2, "points")
    return {"transition.multilinear.points":
            pts.shape[0] if pts.ndim == 2 else 1}


def _clamp(args, kwargs, result):
    return {"transition.clamp_fraction.max":
            result.metadata["clamp_fraction"]}


def _lsmc(args, kwargs, result):
    return {"bsde.lsmc.ridge_events": len(result.ridge_events),
            "bsde.lsmc.carried_cells": len(result.carried_cells)}


def _weights(args, kwargs, result):
    return {"girsanov.doleans_weights.paths":
            _arg(args, kwargs, 0, "bundle").n_paths}


def _certified(args, kwargs, result):
    return {"hjb.n_certified": result["n_certified"]}


def _csv_bytes(counter, pos, name):
    def hook(args, kwargs, result):
        return {counter: os.path.getsize(_arg(args, kwargs, pos, name))}
    return hook


_SIM_CSV = "sim.write_csv"
_CLI_CSV = "cli.write_csv"

#: (module, function, layer, counter hook).  The layer is where a
#: function's self time is charged: its module, except for the CSV
#: writers, which are layers of their own so that ``<module>.self_s``
#: compares between commands that write files and ones that do not.
#: ``sim._simulate_core`` is the one path integrator behind
#: ``simulate_bundle``, tilted simulation and policy rollouts.
WRAPPED = (
    ("problem", "load_problem", "problem", None),
    ("stream", "uniform_block", "stream", _draws),
    ("stream", "normal_block", "stream", None),
    ("sim", "_simulate_core", "sim", _paths),
    ("sim", "write_bundle_csv", _SIM_CSV,
     _csv_bytes(_SIM_CSV + ".bytes", 1, "csv_path")),
    ("transition", "default_state_grid", "transition", None),
    ("transition", "expect_next", "transition", None),
    ("transition", "one_step_points", "transition", None),
    ("transition", "multilinear", "transition", _points),
    ("bsde", "minimal_value", "bsde", None),
    ("bsde", "solve_penalized_grid", "bsde", _clamp),
    ("bsde", "solve_penalized_lsmc", "bsde", _lsmc),
    ("bsde", "constraint_gap", "bsde", None),
    ("bsde", "check_randomized_dpp", "bsde", None),
    ("dp", "solve_dp_grid", "dp", _clamp),
    ("dp", "value_equality_check", "dp", None),
    ("dp", "policy_rollout", "dp", None),
    ("girsanov", "doleans_weights", "girsanov", _weights),
    ("girsanov", "reweighted_expectation", "girsanov", None),
    ("girsanov", "randomized_gain", "girsanov", None),
    ("girsanov", "check_mode_agreement", "girsanov", None),
    ("hjb", "residual_certificate", "hjb", _certified),
    ("hjb", "hjb_residual", "hjb", None),
    ("cli", "main", "cli", None),
    ("cli", "cmd_simulate", "cli", None),
    ("cli", "cmd_solve", "cli", None),
    ("cli", "cmd_verify", "cli", None),
    ("cli", "write_ladder_csv", _CLI_CSV,
     _csv_bytes(_CLI_CSV + ".bytes", 1, "path")),
    ("cli", "write_dp_field_csv", _CLI_CSV,
     _csv_bytes(_CLI_CSV + ".bytes", 2, "csv_path")),
    ("cli", "write_penalized_field_csv", _CLI_CSV,
     _csv_bytes(_CLI_CSV + ".bytes", 2, "path")),
    ("cli", "write_residual_csv", _CLI_CSV,
     _csv_bytes(_CLI_CSV + ".bytes", 2, "path")),
)

LAYERS = {f"{mod}.{fn}": layer for mod, fn, layer, _ in WRAPPED}


class Tracer:
    """Span recorder: flat arrays, one entry per wrapped call."""

    def __init__(self):
        self.names: list = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict = {}
        self._stack = [-1]

    def wrap(self, fn, name: str, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans_name, spans_parent = self.name, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    accumulate(counters, key, inc)
            return result

        return traced

    def install(self) -> None:
        for mod_name, fn_name, _, hook in WRAPPED:
            mod = importlib.import_module(f"jumpctrl.{mod_name}")
            setattr(mod, fn_name, self.wrap(getattr(mod, fn_name),
                                            f"{mod_name}.{fn_name}", hook))

    def summary(self) -> dict:
        """Per-function calls, total and self seconds."""
        selfs = self_times(self.parent, self.start, self.end)
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for n in self.names}
        for i, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out

    def dump(self, path: str, argv: list, exit_code: int) -> None:
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        payload = {
            "command": argv,
            "exit_code": exit_code,
            "wall_s": sum(self.end[i] - self.start[i] for i in roots),
            "summary": self.summary(),
            "counters": self.counters,
            "spans": {"names": self.names, "name": self.name.tolist(),
                      "parent": self.parent.tolist(),
                      "start": self.start.tolist(),
                      "end": self.end.tolist()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(parent, start, end) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; their durations are exactly the part of the
    parent's interval they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from jumpctrl import cli
    code = cli.main(cli_args)
    tracer.dump(out_path, cli_args, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
