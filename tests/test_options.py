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
from jumpctrl import bsde, dp, girsanov, hjb, sim
from jumpctrl.problem import load_problem


def _spec(family, **tolerances):
    return load_problem({"schema_version": 1, "family": family,
                         "tolerances": tolerances})


def _mode_agreement(spec):
    return girsanov.check_mode_agreement(
        sim.simulate_bundle(spec, 2_000, seed=3),
        girsanov.IntensityControl.const(2.0))


def _value_equality(spec):
    ladder = bsde.minimal_value(spec, levels=(4, 16, 64))
    fld = dp.solve_dp_grid(spec, n_time_steps=ladder.n_time_steps,
                           grid=ladder.last_field.grid)
    return dp.value_equality_check(fld, ladder, spec)


def _hjb_certificate(spec):
    return hjb.residual_certificate(dp.solve_dp_grid(spec, n_time_steps=64),
                                    spec)


#: check, family, and a tolerance that its default-config result misses
TIGHTENED = {
    "mode-agreement": (_mode_agreement, "bang-drift", {"se_multiplier": 0.5}),
    "value-equality": (_value_equality, "ou-switch", {"tol_value": 0.01}),
    "hjb-certificate": (_hjb_certificate, "bang-drift", {"tol_hjb": 0.02}),
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
    "bsde.check_randomized_dpp(n_paths=20000)",
    "bsde.check_randomized_dpp(seed=0)",
    "bsde.constraint_gap(bundle=None)",
    "bsde.minimal_value(grid=None)",
    "bsde.minimal_value(levels=(1, 2, 4, 8, 16))",
    "bsde.minimal_value(n_paths=50000)",
    "bsde.minimal_value(n_time_steps=None)",
    "bsde.minimal_value(seed=0)",
    "bsde.minimal_value(solver='grid')",
    "bsde.solve_penalized_grid(grid=None)",
    "bsde.solve_penalized_grid(n_time_steps=None)",
    "bsde.solve_penalized_grid_ladder(grid=None)",
    "bsde.solve_penalized_grid_ladder(n_time_steps=None)",
    "cli._add_common(with_nodes=True)",
    "cli._suite_hjb(field_path=None)",
    "cli._write_lattice_csv(per_node=1)",
    "cli.main(argv=None)",
    "dp.solve_dp_grid(grid=None)",
    "dp.solve_dp_grid(n_time_steps=None)",
    "dp.value_equality_check(tilt_estimate=None)",
    "girsanov.randomized_gain(n_steps=None)",
    "girsanov.simulate_tilted_theta(n_steps=None)",
    "hjb.hjb_residual(grid=None)",
    "hjb.hjb_residual(stencil='auto')",
    "hjb.hjb_residual(time_grid=None)",
    "sim._check_events(n_marks=None)",
    "sim._simulate_core(brownian=None)",
    "sim._simulate_core(control='randomized')",
    "sim._simulate_core(fixed_theta=None)",
    "sim._simulate_core(n_steps=None)",
    "sim._simulate_core(pi_events=None)",
    "sim._simulate_core(policy=None)",
    "sim._simulate_core(start_regimes=None)",
    "sim._simulate_core(tilt=None)",
    "sim.simulate_bundle(n_steps=None)",
    "sim.write_bundle_csv(sidecar_path=None)",
    "transition.default_state_grid(n_nodes=None)",
    "transition.default_state_grid(seed=0)",
    "transition.expect_next(clamp_mask=None)",
    "transition.multilinear(count_in=None)",
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
