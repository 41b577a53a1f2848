"""Counter-based random substreams with per-path positional purity.

Every random quantity in the toolkit is derived from fixed-width uniform
blocks keyed by ``(master seed, stream id)``.  Rows index paths; a float64
uniform consumes exactly one 64-bit counter word, so row ``i`` of a block is
a pure function of ``(seed, stream id, i, n_cols)`` no matter how many rows
are drawn or at which row a draw starts.  Transforms are inverse-CDF only
(no rejection sampling), which is what keeps the positional guarantee
intact: ziggurat normals or rejection Poisson draws would consume a
data-dependent number of words.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

# Stream ids (documented public constants; one per driver kind).
STREAM_BROWNIAN = 1     # Brownian increments
STREAM_PI = 2           # state-jump events: inter-arrival times and marks
STREAM_THETA = 3        # regime-switch events (or tilted proposals)
STREAM_INIT = 4         # initial states under a Gaussian initial law
STREAM_ACCEPT = 5       # thinning acceptance uniforms for tilted switching
STREAM_PILOT = 6        # pilot bundles used for grid-bound estimation
# id 7 is retired: ids are never reused, so a seed keeps its draws

_UNIFORM_LO = 1e-300
_UNIFORM_HI = 1.0 - 1e-16


def uniform_block(seed: int, stream_id: int, n_rows: int, n_cols: int,
                  first_row: int) -> np.ndarray:
    """(n_rows, n_cols) float64 uniforms in [0, 1), row i pure in (seed, i).

    Returns rows [first_row, first_row + n_rows) of the stream's block,
    bit for bit: the counter skips the first_row * n_cols words before
    them (Philox yields four words per counter step).
    """
    bit_gen = np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, stream_id])
    skipped = first_row * n_cols
    bit_gen.advance(skipped // 4)
    gen = np.random.Generator(bit_gen)
    gen.random(skipped % 4)
    return gen.random((n_rows, n_cols))


def normal_block(seed: int, stream_id: int, n_rows: int, n_cols: int,
                 first_row: int) -> np.ndarray:
    """Standard normals via the inverse CDF (positionally pure); rows
    [first_row, first_row + n_rows) as in :func:`uniform_block`."""
    u = uniform_block(seed, stream_id, n_rows, n_cols, first_row)
    np.clip(u, _UNIFORM_LO, _UNIFORM_HI, out=u)
    return ndtri(u, out=u)


def exponential_from_uniform(u: np.ndarray) -> np.ndarray:
    """Strictly positive unit-rate exponentials from uniforms in [0, 1).

    Returns a fresh contiguous array; ``u`` may be a strided view.
    """
    e = np.clip(u, 0.0, _UNIFORM_HI)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    return np.negative(e, out=e)


def event_budget(rate: float, span: float) -> int:
    """Fixed per-path column budget for event draws on a window of ``span``.

    Ten standard deviations plus a flat pad: overflow probability is far
    below 1e-12 for any rate, and the budget stays a pure function of the
    parameters (never of the realized paths).
    """
    mean = max(rate * span, 0.0)
    return int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0))
