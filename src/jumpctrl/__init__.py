"""Toolkit for controlled jump-diffusions with intensity-randomized controls.

The package covers one pipeline end to end:

* ``problem``   -- problem definitions (coefficient families, jump measures,
                   control grids, randomization data) and validation.
* ``sim``       -- exponential-Euler path simulation driven by reproducible
                   counter-based random streams.
* ``girsanov``  -- intensity tilts of the regime-switch stream: tilt weights,
                   reweighted estimators and thinning-based tilted simulation.
* ``bsde``      -- penalized backward schemes (grid and least-squares Monte
                   Carlo), constraint diagnostics, the penalization ladder.
* ``dp``        -- dynamic-programming value iteration sharing the bsde
                   one-step kernel, value-equality checks, policy rollouts.
* ``hjb``       -- Hamiltonian assembly and PDE residual certificates.
* ``cli``       -- ``jumpctrl`` command line: simulate / solve / verify / plot.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
