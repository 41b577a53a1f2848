"""The benchmark's hooks name real package functions and values.

``perfbench/tracer.py`` wraps package functions by module and name, and
its counter hooks read some arguments by position with the parameter name
as the keyword fallback.  ``perfbench/probe.py`` reads each config's
closed-form initial value, which the benchmark's correctness gate checks
every reported value against.  A rename, a reordered signature or a
broken closed form in the package would otherwise surface only when the
benchmark runs.  The benchmark files are loaded as modules and never
modified.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load(TRACER)


class _Anything:
    """Stands in for any argument a hook reads: a count, a point array, a
    bundle or a file path."""

    shape, ndim, n_paths = (1, 1), 2, 1

    def __mul__(self, other):
        return 1

    def __fspath__(self):
        return str(TRACER)


def _hook_reads(hook, monkeypatch):
    """The (position, parameter name) pairs a counter hook reads from a
    call's arguments."""
    reads = []

    def arg(args, kwargs, pos, name):
        reads.append((pos, name))
        return _Anything()

    monkeypatch.setattr(tracer, "_arg", arg)
    if "_arg" in hook.__code__.co_names:    # not a hook on the result only
        hook((), {}, None)
    return reads


@pytest.mark.parametrize("entry", tracer.WRAPPED,
                         ids=[f"{mod}.{fn}" for mod, fn, *_ in tracer.WRAPPED])
def test_wrapped_entry_is_a_package_function(entry, monkeypatch):
    mod_name, fn_name, _, hook = entry
    module = importlib.import_module(f"jumpctrl.{mod_name}")
    fn = getattr(module, fn_name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    if hook is not None:
        params = list(inspect.signature(fn).parameters)
        for pos, name in _hook_reads(hook, monkeypatch):
            assert params[pos] == name


def test_argument_hooks_read_the_expected_parameters(monkeypatch):
    hooks = {f"{mod}.{fn}": hook for mod, fn, _, hook in tracer.WRAPPED}
    expected = {
        "stream.uniform_block": [(2, "n_rows"), (3, "n_cols")],
        "sim.write_bundle_csv": [(1, "csv_path")],
        "transition.multilinear": [(2, "points")],
        "girsanov.doleans_weights": [(0, "bundle")],
        "cli.write_ladder_csv": [(1, "path")],
        "cli.write_dp_field_csv": [(2, "csv_path")],
        "cli.write_penalized_field_csv": [(2, "path")],
        "cli.write_residual_csv": [(2, "path")],
    }
    for name, reads in expected.items():
        assert _hook_reads(hooks[name], monkeypatch) == reads, name


#: the closed-form initial value of each registry family, or None
PROBE_V0 = {
    "uncontrolled-decay": oracles.DECAY_VALUE_T0,
    "bang-drift": oracles.BANG_VALUE_T0,
    "jump-reward": oracles.JUMP_REWARD_VALUE_T0,
    "lookback-integral": oracles.LOOKBACK_VALUE_T0,
    "ou-switch": None,
}


@pytest.mark.parametrize("family", PROBE_V0)
def test_probe_reports_the_oracle_initial_value(family, tmp_path, capsys):
    probe = _load(PERFBENCH / "probe.py")
    cfg = tmp_path / f"{family}.json"
    cfg.write_text(json.dumps({"schema_version": 1, "family": family}),
                   encoding="utf-8")
    assert probe.main([str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == family
    if PROBE_V0[family] is None:
        assert out["expected_v0"] is None
    else:
        assert out["expected_v0"] == pytest.approx(PROBE_V0[family],
                                                   abs=1e-12)
