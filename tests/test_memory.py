"""Path arrays are held once: traced allocation peaks of the Monte Carlo
route, measured with ``tracemalloc`` (which sees numpy's buffers).

The bound is a multiple of the bytes of a bundle's path arrays (states,
regimes and Brownian increments), with the regime path counted at 8 bytes
per entry although it is stored in one, and the increments, which the
bundle does not keep, at 8 bytes per path-step and Brownian dimension.
Simulation may add one path block's random-number blocks, event table and
step working arrays, not copies of the path arrays, and keeps only the
bundle's own arrays once it returns; the regression pass
may add one (levels, controls, paths) continuation stack and per-path
rows, not step-major copies of the bundle or full value and advantage
stacks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from jumpctrl import bsde, girsanov, sim
from jumpctrl.problem import load_problem

PATHS, STEPS = 20_000, 64


def _path_bytes(bundle) -> int:
    increments = (8 * bundle.n_paths * bundle.n_steps
                  * bundle.spec.brownian_dim)
    return bundle.states.nbytes + 8 * bundle.regimes.size + increments


def _traced(fn):
    """(result, traced bytes still allocated when the call returns, traced
    peak bytes allocated during it)."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def _simulation(spec, mode, n_paths):
    if mode == "randomized":
        return lambda: sim.simulate_bundle(spec, n_paths, seed=5,
                                           n_steps=STEPS)
    nu = girsanov.IntensityControl.const(2.0)
    return lambda: girsanov.simulate_tilted_theta(nu, spec, 5, n_paths,
                                                  n_steps=STEPS)


@pytest.fixture(scope="module")
def spec():
    return load_problem({"schema_version": 1, "family": "jump-reward"})


@pytest.mark.parametrize("mode", ["randomized", "tilted"])
def test_simulation_peak_is_near_the_path_arrays(spec, mode):
    bundle, _, peak = _traced(_simulation(spec, mode, PATHS))
    assert bundle.pi.total > 0 and bundle.theta.total > 0
    assert bundle.regimes.itemsize == 1
    assert peak <= 1.3 * _path_bytes(bundle)


@pytest.mark.parametrize("mode", ["randomized", "tilted"])
def test_simulation_transient_is_bounded_by_the_path_block(spec, mode,
                                                           monkeypatch):
    # what a simulation frees again by the time it returns (traced peak -
    # retained) is one block's draws, events and work arrays: it holds
    # from 2 blocks of paths to 8
    monkeypatch.setattr(sim, "SIM_BLOCK_PATHS", 1024)
    transient = []
    for n_paths in (2 * 1024, 8 * 1024):
        _, retained, peak = _traced(_simulation(spec, mode, n_paths))
        transient.append(peak - retained)
    assert transient[1] < 1.2 * transient[0]


def test_lsmc_ladder_reads_the_bundle_in_place(spec):
    bundle = sim.simulate_bundle(spec, PATHS, seed=5, n_steps=STEPS)
    _, _, peak = _traced(lambda: bsde.solve_penalized_lsmc_ladder(
        spec, (1, 2, 4, 8, 16), bundle))
    assert peak <= 0.25 * _path_bytes(bundle)


@pytest.mark.parametrize("mode", ["randomized", "tilted"])
def test_simulation_retains_only_the_bundle(spec, mode):
    # states, the one-byte regime path, both event tables and the (M,)
    # rows: the step buffer of increments is gone when the call returns
    bundle, retained, _ = _traced(_simulation(spec, mode, PATHS))
    events = sum(arr.nbytes for table in (bundle.pi, bundle.theta)
                 for arr in (table.times, table.marks, table.indptr))
    rows = bundle.running_reward.nbytes + bundle.excluded.nbytes
    own = bundle.states.nbytes + bundle.regimes.nbytes + events + rows
    assert retained <= 1.05 * own


def test_bundle_keeps_no_increments_and_replays_step_major(spec):
    bundle = sim.simulate_bundle(spec, 300, seed=5, n_steps=16)
    fields = {f.name for f in dataclasses.fields(bundle)}
    assert not any("brownian" in name for name in fields)
    assert bundle.states.transpose(1, 0, 2).flags.c_contiguous
    assert bundle.regimes.T.flags.c_contiguous
    increments = oracles.brownian_increments(bundle)
    assert increments.shape == (300, 16, 1)
    replayed = sim._simulate_core(
        spec, 300, 5, 16, (bundle.regimes[:, 0], bundle.theta),
        noise=(increments, bundle.pi))
    assert replayed.states.transpose(1, 0, 2).flags.c_contiguous
    np.testing.assert_array_equal(replayed.states, bundle.states)
