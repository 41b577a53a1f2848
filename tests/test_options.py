"""Where the package's settings live.

Every check reads its tolerances from ``spec.tolerances``, so a config's
``tolerances`` block decides each verdict.  Every other setting is either
a module constant or one of the keyword options listed in ``OPTIONS``:
a new default-valued parameter anywhere in the package fails the
inventory test until it is added to that list.
"""

import importlib
import inspect
import pkgutil

import pytest

import jumpctrl
from jumpctrl import bsde, dp, girsanov, hjb, sim, transition
from jumpctrl.problem import load_problem


def _spec(family, **tolerances):
    return load_problem({"schema_version": 1, "family": family,
                         "tolerances": tolerances})


def _mode_agreement(spec):
    return girsanov.check_mode_agreement(
        sim.simulate_bundle(spec, 2_000, seed=3),
        girsanov.IntensityControl.const(2.0))


def _value_equality(spec):
    levels, grid = (4, 16, 64), transition.default_state_grid(spec)
    steps = bsde.default_time_steps(spec, max(levels))
    ladder = bsde.minimal_value(spec, levels, steps, grid)
    fld = dp.solve_dp_grid(spec, steps, grid)
    return dp.value_equality_check(fld, ladder, spec)


def _hjb_certificate(spec):
    fld = dp.solve_dp_grid(spec, 64, transition.default_state_grid(spec))
    return hjb.residual_certificate(fld, spec)


#: check, family, and a tolerance that its default-config result misses
TIGHTENED = {
    "mode-agreement": (_mode_agreement, "bang-drift", {"se_multiplier": 0.5}),
    "value-equality": (_value_equality, "ou-switch", {"tol_value": 0.01}),
    "hjb-certificate": (_hjb_certificate, "bang-drift", {"tol_hjb": 0.005}),
}


@pytest.mark.parametrize("name", TIGHTENED)
def test_checks_read_their_tolerances_from_the_config(name):
    check, family, tight = TIGHTENED[name]
    assert check(_spec(family))["ok"]
    assert not check(_spec(family, **tight))["ok"]


# ---------------------------------------------------------------------------
# Options inventory
# ---------------------------------------------------------------------------

#: ``module.qualname(param=default)`` for every default-valued parameter of
#: a function or method written in the package (dataclass fields excluded)
OPTIONS = {
    "cli._add_common(with_nodes=True)",
    "cli._write_lattice_csv(per_node=1)",
    "cli.main(argv=None)",
    "dp.value_equality_check(tilt_estimate=None)",
    "sim._check_events(n_marks=None)",
    "sim._simulate_core(noise=None)",
    "sim.simulate_bundle(n_steps=None)",
    "transition.default_state_grid(n_nodes=None)",
}


def _functions(namespace, module):
    for value in vars(namespace).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if (inspect.isfunction(value)
                and value.__code__.co_filename == module.__file__):
            yield value
        elif (inspect.isclass(value) and value is not namespace
              and value.__module__ == module.__name__):
            yield from _functions(value, module)


def _options():
    found = set()
    for info in pkgutil.iter_modules(jumpctrl.__path__):
        module = importlib.import_module(f"jumpctrl.{info.name}")
        for fn in _functions(module, module):
            for p in inspect.signature(fn).parameters.values():
                if p.default is not p.empty:
                    found.add(f"{info.name}.{fn.__qualname__}"
                              f"({p.name}={p.default!r})")
    return found


def test_keyword_options_are_the_listed_ones():
    assert _options() == OPTIONS
