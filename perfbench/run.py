"""jumpctrl benchmark: two workloads through the real CLI.

    python3 perfbench/run.py --workload {montecarlo,verify} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; paths resolve against the checkout that holds this
file, and the package is imported from its ``src/`` directory.  The loop
is closed with one client: each ``jumpctrl`` command starts only after the
previous one has exited, so at most one runs at a time.  Every command
gets ``--seed N`` and a generated default config for ``bang-drift`` or
``jump-reward``; nothing else about the inputs varies.

``--trace 0`` samples the workload's commands for ``--seconds`` (see
``Runner.sample``) and reports the end-to-end metrics.  ``--trace 1``
runs every command once untraced and then traced (``tracer.py``) and
reports the per-layer metrics.  Every command's outputs are checked (see
``check_outputs``); a failed command is counted, never retried.  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``; metric names and units come from
``BENCHMARK.json``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

FAMILIES = ("bang-drift", "jump-reward")
#: Timed set-up probes per family, after one discarded warm-up probe that
#: compiles the package's bytecode and pulls numpy/scipy into the page cache.
SETUP_SAMPLES = 4
#: A run must end within 180 s; commands still running at this point of the
#: run are killed and counted as failed.
RUN_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SUITES = ("martingale", "monotone", "constraint", "dpp", "value-equality",
          "hjb")


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, run once per family."""

    key: str                # metric stem: "<key>_s" is its wall
    args: tuple             # subcommand, then flags after the config path
    must_pass: tuple = ()   # verdicts the command computes

    def argv(self, config: Path, seed: int, out_dir: Path) -> list:
        return [self.args[0], str(config), *self.args[1:],
                "--seed", str(seed), "--out", str(out_dir)]


_LADDER_CHECKS = ("monotonicity", "value-equality", "hjb-certificate")
WORKLOADS = {
    "montecarlo": (
        Command("solve_lsmc", ("solve", "--method", "penalized-lsmc",
                               "--paths", "50000"), _LADDER_CHECKS),
        Command("simulate", ("simulate", "--paths", "5000")),
    ),
    "verify": (
        Command("verify", ("verify", "--suite", "all"), SUITES),
    ),
}


@dataclass
class Result:
    """One finished command: resources from ``wait4`` and check outcome."""

    command: Command
    family: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    snapshot: dict = field(repr=False)
    trace: dict | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, log: Path, timeout: float):
    """Run one child to completion; (exit code, wall s, cpu s, max RSS MB).

    Resources come from ``os.wait4`` on that child alone.  RUSAGE_CHILDREN
    would give the largest RSS of any child so far, not this one's.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Runner:
    """Runs commands under one deadline and keeps the first outputs."""

    def __init__(self, seed: int, configs: dict, probes: dict | None = None):
        self.seed = seed
        self.configs = configs
        self.probes = probes or {}
        self.reference: dict = {}
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def run(self, cmd: Command, family: str, traced: bool) -> Result:
        out_dir = WORK / f"{family}-{cmd.key}"
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = cmd.argv(self.configs[family], self.seed, out_dir)
        spans = WORK / f"spans-{family}-{cmd.key}.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                    *cli_args]
        else:
            argv = [sys.executable, "-m", "jumpctrl.cli", *cli_args]
        log = WORK / f"{family}-{cmd.key}.log"
        code, wall, cpu, rss = run_child(argv, log,
                                         max(1.0, self.remaining()))
        snap = snapshot(out_dir) if out_dir.is_dir() else {}
        problems = check_outputs(cmd, code, snap, self.probes[family])
        key = (family, cmd.key)
        if key in self.reference:
            problems += [f"{name} differs from the first same-seed run"
                         for name in differences(self.reference[key], snap)]
        else:
            self.reference[key] = snap
        trace = None
        if traced:
            try:
                trace = json.loads(spans.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                problems.append("tracer wrote no spans")
        if problems:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"FAILED {family} {' '.join(cmd.args)}: "
                  f"{'; '.join(problems)}\n{tail}", file=sys.stderr)
        return Result(cmd, family, wall, cpu, rss, problems, snap, trace)

    def sample(self, workload: str, seconds: float) -> list:
        """Untraced samples of the workload's commands within ``seconds``.

        The first round runs every command once.  After it, the next
        command is the one with the fewest samples among those that, at
        their latest wall time, would end within ``seconds`` of the first
        start; sampling stops when none fits.
        """
        order = [(cmd, family) for family in FAMILIES
                 for cmd in WORKLOADS[workload]]
        t0 = time.monotonic()
        results = [self.run(cmd, family, traced=False)
                   for cmd, family in order]
        latest = {key: r.wall_s for key, r in zip(order, results)}
        count = dict.fromkeys(order, 1)
        while True:
            spent = time.monotonic() - t0
            fits = [key for key in order
                    if spent + latest[key] <= seconds
                    and self.remaining() >= 1.5 * latest[key]]
            if not fits:
                return results
            key = min(fits, key=count.get)
            results.append(self.run(*key, traced=False))
            latest[key] = results[-1].wall_s
            count[key] += 1


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _sha256_rows(path: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return {"sha256": digest.hexdigest(), "rows": lines - 1}


def snapshot(out_dir: Path) -> dict:
    """CSV artifacts by sha256 and data-row count; JSON files parsed."""
    snap = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            snap[path.name] = _sha256_rows(path)
        elif path.suffix == ".json":
            try:
                snap[path.name] = json.loads(path.read_text("utf-8"))
            except ValueError:
                snap[path.name] = None
    return snap


def _reported_values(snap: dict) -> list:
    """(label, value, standard error) of every initial value reported."""
    out = []
    report = snap.get("value_report.json")
    if report:
        out.append(("v0_dp", report.get("v0_dp"), 0.0))
        if report.get("value_limit") is not None:
            ses = report.get("level_ses") or [0.0]
            out.append(("value_limit", report["value_limit"], ses[-1]))
    verify = snap.get("verify_report.json")
    if verify:
        eq = verify.get("details", {}).get("value-equality", {})
        out.append(("v_dp", eq.get("v_dp"), 0.0))
        out.append(("v_randomized", eq.get("v_randomized"), 0.0))
    return out


def check_outputs(cmd: Command, exit_code: int, snap: dict,
                  probe: dict) -> list:
    """Every reason this command's run counts as failed (empty: passed).

    Fails on a nonzero exit, a missing listed output, any verdict other
    than ``pass`` among those the command computed, a reported initial
    value farther from the closed form than ``tol_value`` (plus
    ``se_multiplier`` standard errors for Monte Carlo values), and a
    ``paths.csv`` whose row count disagrees with its sidecar.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    manifest = snap.get("manifest.json")
    if not manifest:
        return problems + ["no manifest.json"]
    missing = [name for name in manifest.get("outputs", [])
               if name not in snap]
    if missing:
        problems.append(f"missing outputs {missing}")
    verdicts = manifest.get("verdicts", {})
    for name in cmd.must_pass:
        if verdicts.get(name) != "pass":
            problems.append(f"verdict {name}={verdicts.get(name)}")
    for name, verdict in verdicts.items():
        if name not in cmd.must_pass and verdict not in ("pass", "skipped"):
            problems.append(f"verdict {name}={verdict}")
    expected = probe["expected_v0"]
    for label, value, se in _reported_values(snap):
        band = probe["tol_value"] + probe["se_multiplier"] * se
        if (expected is None or not isinstance(value, (int, float))
                or not abs(value - expected) <= band):
            problems.append(f"{label}={value} misses closed form "
                            f"{expected} by more than {band:.4g}")
    sidecar = snap.get("paths.json")
    if sidecar is not None:
        rows = snap.get("paths.csv", {}).get("rows")
        want = sidecar["n_paths"] * (sidecar["n_steps"] + 1)
        if rows != want or sidecar["n_paths"] != manifest["overrides"][
                "paths"]:
            problems.append(f"paths.csv has {rows} rows, expected {want}")
    return problems


def _drop_key(obj, key: str):
    if isinstance(obj, dict):
        return {k: _drop_key(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_drop_key(v, key) for v in obj]
    return obj


def differences(ref: dict, snap: dict) -> list:
    """Artifacts that differ between two runs of one command and seed.

    CSV files compare by sha256; JSON files by content, ignoring the
    manifest's ``wall_clock_s`` and every ``kernel`` field.  The kernel
    checksum hashes the bytecode of the kernel functions, which the traced
    run replaces with wrappers; it is the one difference tracing may make.
    """
    def comparable(name, obj):
        if not name.endswith(".json"):
            return obj
        obj = _drop_key(obj, "kernel")
        if name == "manifest.json" and isinstance(obj, dict):
            obj.pop("wall_clock_s", None)
        return json.dumps(obj, sort_keys=True)

    return [name for name in sorted(set(ref) | set(snap))
            if comparable(name, ref.get(name))
            != comparable(name, snap.get(name))]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def per_command(results: list, value) -> dict:
    """Median of ``value(result)`` over each (family, command)'s samples."""
    groups: dict = {}
    for r in results:
        groups.setdefault((r.family, r.command.key), []).append(value(r))
    return {key: statistics.median(v) for key, v in groups.items()}


def workload_metrics(results: list, setup: list) -> dict:
    """End-to-end metrics: per-command medians over samples, summed.

    Taking each command's median before summing keeps a stall that hits
    one sample of one command out of the workload's total.
    """
    return {
        "wall_s": sum(per_command(results, lambda r: r.wall_s).values()),
        "cpu_s": sum(per_command(results, lambda r: r.cpu_s).values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(per_command(results, lambda r: r.rss_mb).values()),
    }


def command_walls(results: list) -> dict:
    """Median wall of each command of the workload, summed over families."""
    walls: dict = {}
    for (_, key), wall in per_command(results, lambda r: r.wall_s).items():
        walls[f"{key}_s"] = walls.get(f"{key}_s", 0.0) + wall
    return walls


def merge_traces(traces: list) -> tuple:
    """Sum per-function summaries and counters over traced commands."""
    summary: dict = {}
    counters: dict = {}
    for trace in traces:
        for name, row in trace["summary"].items():
            acc = summary.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
        for key, value in trace["counters"].items():
            tracer.accumulate(counters, key, value)
    return summary, counters


def layer_metrics(summary: dict, counters: dict, layers: dict,
                  wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from merged traced summaries.

    ``<layer>.self_s`` sums the self time of the layer's wrapped functions;
    ``layers`` maps each function to its layer (``tracer.LAYERS``).
    ``wall_s`` is the traced commands' time inside ``cli.main``;
    ``overhead_s`` is traced minus untraced wall of the same commands.
    """
    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    layer_self: dict = {}
    for name, r in summary.items():
        layer = layers[name]
        layer_self[layer] = layer_self.get(layer, 0.0) + r["self_s"]
    paths = counters.get("sim.paths", 0)
    m = {f"{layer}.self_s": layer_self.get(layer, 0.0)
         for layer in ("problem", "stream", "sim", "transition", "bsde",
                       "dp", "girsanov", "hjb", "cli")}
    m.update({
        "stream.calls": row("stream.uniform_block")["calls"],
        "stream.draws": counters.get("stream.draws", 0),
        "sim.simulate.calls": row("sim._simulate_core")["calls"],
        "sim.path_steps": counters.get("sim.path_steps", 0),
        "sim.excluded_ratio": (counters.get("sim.excluded", 0) / paths
                               if paths else 0.0),
        "sim.write_csv.s": layer_self.get("sim.write_csv", 0.0),
        "sim.write_csv.bytes": counters.get("sim.write_csv.bytes", 0),
        "transition.clamp_fraction":
            counters.get("transition.clamp_fraction.max", 0.0),
        "transition.multilinear.points":
            counters.get("transition.multilinear.points", 0),
        "bsde.lsmc.ridge_events": counters.get("bsde.lsmc.ridge_events", 0),
        "bsde.lsmc.carried_cells":
            counters.get("bsde.lsmc.carried_cells", 0),
        "girsanov.doleans_weights.paths":
            counters.get("girsanov.doleans_weights.paths", 0),
        "hjb.n_certified": counters.get("hjb.n_certified", 0),
        "cli.write_csv.s": layer_self.get("cli.write_csv", 0.0),
        "cli.write_csv.bytes": counters.get("cli.write_csv.bytes", 0),
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
    })
    for name in ("transition.expect_next", "transition.one_step_points",
                 "transition.multilinear", "transition.default_state_grid",
                 "bsde.solve_penalized_grid", "dp.solve_dp_grid",
                 "bsde.solve_penalized_lsmc", "girsanov.doleans_weights",
                 "hjb.residual_certificate"):
        m[f"{name}.calls"] = row(name)["calls"]
    for name in ("transition.expect_next", "bsde.solve_penalized_grid",
                 "dp.solve_dp_grid", "bsde.solve_penalized_lsmc",
                 "bsde.constraint_gap", "bsde.check_randomized_dpp",
                 "girsanov.randomized_gain"):
        m[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("transition.one_step_points", "transition.multilinear",
                 "transition.default_state_grid", "girsanov.doleans_weights",
                 "hjb.residual_certificate", "problem.load_problem"):
        m[f"{name}.s"] = row(name)["total_s"]
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def write_configs() -> dict:
    configs = {}
    for family in FAMILIES:
        path = WORK / f"{family}.json"
        path.write_text(json.dumps({"schema_version": 1, "family": family}),
                        encoding="utf-8")
        configs[family] = path
    return configs


def probe(config: Path, timeout: float, conditions: bool = False):
    """(probe JSON, wall s) of one fresh-interpreter set-up probe."""
    out = WORK / f"probe-{config.stem}.out"
    argv = [sys.executable, str(BENCH / "probe.py"), str(config)]
    if conditions:
        argv.append("--conditions")
    code, wall, _, _ = run_child(argv, out, max(1.0, timeout))
    text = out.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        raise RuntimeError(f"set-up probe failed for {config.name}:\n{text}")
    return json.loads(text.strip().splitlines()[-1]), wall


def measure_setup(configs: dict, samples: int, remaining) -> tuple:
    """Warm-up probe per family (discarded), then ``samples`` timed each."""
    probes, conditions, walls = {}, {}, []
    for family, config in configs.items():
        probes[family], _ = probe(config, remaining(), conditions=True)
        conditions = probes[family].pop("conditions")
    for _ in range(samples):
        for config in configs.values():
            walls.append(probe(config, remaining())[1])
    return probes, conditions, walls


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def emit(values: dict, units: dict, extra: dict, results: list,
         conditions: dict) -> None:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    for name in sorted(values):
        print(f"{name:<40} {values[name]:>16.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name:<40} {value:>16.6g} {unit}  (not gated)")
    print("conditions " + json.dumps(conditions, sort_keys=True))
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in sorted(values)}}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "jumpctrl" / "cli.py").is_file():
        print(f"error: no jumpctrl sources under {SRC}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    units = declared_metrics()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    configs = write_configs()

    runner = Runner(args.seed, configs)
    conditions = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }
    runner.probes, versions, setup = measure_setup(
        configs, SETUP_SAMPLES if args.trace == 0 else 0, runner.remaining)
    conditions.update(versions)
    conditions["loadavg_before"] = os.getloadavg()

    if args.trace == 0:
        results = runner.sample(args.workload, args.seconds)
        values = workload_metrics(results, setup)
        extra = {k: (v, "s") for k, v in command_walls(results).items()}
        extra["fail_ratio"] = (
            sum(1 for r in results if r.problems) / len(results), "ratio")
        extra["samples"] = (len(results), "count")
        declared = units["end_to_end"]
    else:
        # each command untraced then traced, back to back, so that slow
        # drifts of the host's speed cancel in trace.overhead_s
        pairs = [(runner.run(cmd, family, traced=False),
                  runner.run(cmd, family, traced=True))
                 for family in FAMILIES for cmd in WORKLOADS[args.workload]]
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        results = plain + traced
        summary, counters = merge_traces(
            [r.trace for r in traced if r.trace is not None])
        overhead = (sum(r.wall_s for r in traced)
                    - sum(r.wall_s for r in plain))
        values = layer_metrics(
            summary, counters, tracer.LAYERS,
            sum(r.trace["wall_s"] for r in traced if r.trace), overhead)
        extra = {"cli.self_share": (values["cli.self_s"]
                                    / max(values["trace.wall_s"], 1e-9),
                                    "ratio")}
        declared = units["per_layer"]
    conditions["loadavg_after"] = os.getloadavg()
    emit(values, declared, extra, results, conditions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
