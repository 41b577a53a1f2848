"""Set-up probe: what every jumpctrl command pays before it computes.

    python3 perfbench/probe.py CONFIG [--conditions]

Imports ``jumpctrl.cli`` and loads CONFIG in a fresh interpreter; the
benchmark times the whole process.  Prints one JSON object with the
config's closed-form initial value and the tolerances the correctness
gate uses, plus (with ``--conditions``) the library versions of the run.
"""

from __future__ import annotations

import json
import sys

import jumpctrl.cli  # noqa: F401  (the import is what is being timed)
from jumpctrl import problem


def _conditions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> int:
    spec = problem.load_problem(argv[0])
    exact = problem.closed_form(spec)
    out = {
        "family": spec.coefficients.family,
        "expected_v0": (None if exact is None else
                        float(exact["value"](0.0, spec.initial_law.mean))),
        "tol_value": spec.tolerances["tol_value"],
        "se_multiplier": spec.tolerances["se_multiplier"],
    }
    if "--conditions" in argv[1:]:
        out["conditions"] = _conditions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
