"""One-row path bundles from given noise, for deterministic tests.

Everything here goes through ``sim._simulate_core`` with a
``(start_regimes, theta)`` control and a ``(brownian, pi_events)`` noise,
the simulator's replay entry point, or ``sim._poisson_block``, the stream
every bundle draws its events from.  A bundle keeps no Brownian
increments, so ``replay`` regenerates them from its stream
(``oracles.brownian_increments``).
"""

import dataclasses

import numpy as np

import oracles
from jumpctrl import sim, stream
from jumpctrl.problem import InitialLaw


def events(times=(), marks=()) -> sim.CsrEvents:
    """A one-path event table."""
    times = np.asarray(times, dtype=float)
    return sim.CsrEvents(times, np.asarray(marks), np.array([0, times.size]))


def path_events(table: sim.CsrEvents, i: int):
    """(times, marks) of path ``i`` of a bundle's event table."""
    lo, hi = table.indptr[i], table.indptr[i + 1]
    return table.times[lo:hi], table.marks[lo:hi]


def one_path(spec, n_steps, start=None, switches=((), ()), brownian=None,
             jumps=((), ()), x0=None) -> sim.PathBundle:
    """Integrate one path from given switches, increments and jumps, as a
    1-row bundle.

    ``start`` is the initial regime (default: the reference regime),
    ``switches`` and ``jumps`` are (times, marks) pairs, ``brownian``
    the (n_steps, brownian_dim) increments (default: all zero), and ``x0``
    the start point (default: the spec's initial law).
    """
    if start is None:
        start = spec.randomization.a0_index
    if brownian is None:
        brownian = np.zeros((n_steps, spec.brownian_dim))
    if x0 is not None:
        spec = dataclasses.replace(spec, initial_law=InitialLaw(
            kind="point", mean=np.asarray(x0, dtype=float)))
    return sim._simulate_core(
        spec, 1, 0, n_steps, (np.array([start]), events(*switches)),
        noise=(np.asarray(brownian, dtype=float)[None], events(*jumps)))


def replay(bundle: sim.PathBundle, i: int, spec=None, n_steps=None):
    """Path ``i`` of a drawn bundle re-integrated alone from its own noise.

    With a shorter ``spec.horizon`` and ``n_steps`` only the switches,
    increments and jumps up to that horizon are replayed.
    """
    spec = bundle.spec if spec is None else spec
    n_steps = bundle.n_steps if n_steps is None else n_steps
    t_pi, z = path_events(bundle.pi, i)
    t_th, a = path_events(bundle.theta, i)
    return one_path(
        spec, n_steps, start=int(bundle.regimes[i, 0]),
        switches=(t_th[t_th <= spec.horizon], a[t_th <= spec.horizon]),
        brownian=oracles.brownian_increments(bundle)[i, :n_steps],
        jumps=(t_pi[t_pi <= spec.horizon], z[t_pi <= spec.horizon]),
        x0=bundle.states[i, 0, :bundle.spec.dim])


def poisson_events(rate, mark_law, horizon, seed):
    """(times, marks) of one path of the jump stream on (0, horizon]."""
    _, times, mark_u = sim._poisson_block(rate, horizon, seed,
                                          stream.STREAM_PI, n_paths=1,
                                          first_row=0)
    return times, mark_law.sample_marks(mark_u)
