"""Path arrays are held once: traced allocation peaks of the Monte Carlo
route, measured with ``tracemalloc`` (which sees numpy's buffers).

The bound is a multiple of the bytes of a bundle's own path arrays
(states, regimes and Brownian increments), with the regime path counted
at 8 bytes per entry although it is stored in one.  Simulation may add the
event table and one step's working arrays, not copies of the path arrays
or random-number blocks kept past their use; the regression pass may add
one (levels, controls, paths) continuation stack and per-path rows, not
step-major copies of the bundle or full value and advantage stacks.
"""

import tracemalloc

import numpy as np
import pytest

from jumpctrl import bsde, girsanov, sim
from jumpctrl.problem import load_problem

PATHS, STEPS = 20_000, 64


def _path_bytes(bundle) -> int:
    return (bundle.states.nbytes + 8 * bundle.regimes.size
            + bundle.brownian_increments.nbytes)


def _traced(fn):
    """(result, traced peak bytes allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def spec():
    return load_problem({"schema_version": 1, "family": "jump-reward"})


@pytest.mark.parametrize("mode", ["randomized", "tilted"])
def test_simulation_peak_is_near_the_path_arrays(spec, mode):
    if mode == "randomized":
        run = lambda: sim.simulate_bundle(spec, PATHS, seed=5, n_steps=STEPS)
    else:
        nu = girsanov.IntensityControl.const(2.0)
        run = lambda: girsanov.simulate_tilted_theta(nu, spec, 5, PATHS,
                                                     n_steps=STEPS)
    bundle, peak = _traced(run)
    assert bundle.pi.total > 0 and bundle.theta.total > 0
    assert bundle.regimes.itemsize == 1
    assert peak <= 1.3 * _path_bytes(bundle)


def test_lsmc_ladder_reads_the_bundle_in_place(spec):
    bundle = sim.simulate_bundle(spec, PATHS, seed=5, n_steps=STEPS)
    _, peak = _traced(lambda: bsde.solve_penalized_lsmc_ladder(
        spec, (1, 2, 4, 8, 16), bundle))
    assert peak <= 0.33 * _path_bytes(bundle)


def test_increments_are_stored_step_major(spec):
    bundle = sim.simulate_bundle(spec, 300, seed=5, n_steps=16)
    assert bundle.brownian_increments.shape == (300, 16, 1)
    for arr in (bundle.brownian_increments, bundle.states):
        assert arr.transpose(1, 0, 2).flags.c_contiguous
    assert bundle.regimes.T.flags.c_contiguous
    replayed = sim._simulate_core(
        spec, 300, seed=5, n_steps=16, control="fixed",
        fixed_theta=bundle.theta, start_regimes=bundle.regimes[:, 0],
        brownian=np.array(bundle.brownian_increments), pi_events=bundle.pi)
    assert replayed.brownian_increments.transpose(1, 0, 2).flags.c_contiguous
    np.testing.assert_array_equal(replayed.states, bundle.states)
