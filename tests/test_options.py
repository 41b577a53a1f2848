"""Where the package's settings live.

Every check reads its tolerances from ``spec.tolerances``, so a config's
``tolerances`` block decides each verdict.  Every other setting is either
a module constant or one of the keyword options listed in ``OPTIONS``:
a new default-valued parameter anywhere in the package fails the
inventory test until it is added to that list.  ``CONFIG_KEYS`` does the
same for the keys a config may carry.
"""

import importlib
import inspect
import pkgutil

import pytest

import jumpctrl
from jumpctrl import bsde, dp, girsanov, hjb, sim, transition
from jumpctrl import problem
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


# ---------------------------------------------------------------------------
# Config-key inventory
# ---------------------------------------------------------------------------

#: Every dotted key the loader accepts.  Fourteen are settable values: all
#: but the blocks, ``schema_version``, ``family`` and the family and
#: mark-law parameters (``parameters.*``, ``jump.mark_parameters.*``).
CONFIG_KEYS = {
    "schema_version", "family", "parameters", "a_eigenvalues",
    "control_points", "a0_index", "lambda0_weights", "augmentation",
    "jump", "jump.total_rate", "jump.mark_sampler_id",
    "jump.mark_parameters",
    "initial_law", "initial_law.kind", "initial_law.mean",
    "initial_law.cov_diag",
    "tolerances", "tolerances.tol_value", "tolerances.tol_monotone",
    "tolerances.tol_hjb", "tolerances.se_multiplier",
    "parameters.horizon", "parameters.sigma", "parameters.rate",
    "parameters.z_hi", "parameters.z_lo", "parameters.p_hi",
    "parameters.reversion",
    "jump.mark_parameters.values", "jump.mark_parameters.probs",
    "jump.mark_parameters.low", "jump.mark_parameters.high",
    "jump.mark_parameters.scale",
}


def _config_keys():
    keys = {f"{block}.{key}" if block else key
            for block, names in problem.CONFIG_KEYS.items() for key in names}
    keys |= {f"parameters.{key}"
             for _, defaults in problem.FAMILIES.values() for key in defaults}
    keys |= {f"jump.mark_parameters.{key}"
             for names in problem.MARK_PARAMETERS.values() for key in names}
    return keys


def test_config_keys_are_the_listed_ones():
    assert _config_keys() == CONFIG_KEYS
