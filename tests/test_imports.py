"""Start-up guard: importing the CLI loads nothing heavy beyond its base.

Every command pays its imports before it does any work, and start-up is a
large share of a short command's wall time.  The base is ``numpy`` plus
``scipy.special`` (the normal quantile behind every Gaussian draw); over
it, ``import jumpctrl.cli`` may add only the package's own modules and the
standard library.  ``scipy.sparse`` stays lazy: only the lattice operator
assembly (``transition.assemble_operator``) loads it.  The lattice layer
stands on the problem layer alone: building the default state grid loads
no simulator.
"""

import json
import os
import subprocess
import sys

import jumpctrl

_PROBE = """
import json, sys
import numpy, scipy.special
base = set(sys.modules)
import jumpctrl.cli
loaded = sorted(set(sys.modules) - base)
from jumpctrl import problem, transition
spec = problem.load_problem({"schema_version": 1, "family": "bang-drift"})
sparse_before = "scipy.sparse" in sys.modules
transition.assemble_operator(spec, 0.0, 0.1, 0,
                             transition.default_state_grid(spec))
print(json.dumps({"loaded": loaded, "sparse_before": sparse_before,
                  "sparse_after": "scipy.sparse" in sys.modules}))
"""


_GRID_PROBE = """
import json, sys
from jumpctrl import problem, transition
spec = problem.load_problem({"schema_version": 1, "family": "jump-reward"})
transition.default_state_grid(spec)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("jumpctrl"))))
"""


def _probe(script: str = _PROBE):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jumpctrl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_import_adds_only_the_package_and_the_standard_library():
    probe = _probe()
    foreign = [name for name in probe["loaded"]
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "jumpctrl"]
    assert "jumpctrl.cli" in probe["loaded"]
    assert foreign == []
    # scipy.sparse is loaded by the operator assembly, not at import
    assert not probe["sparse_before"]
    assert probe["sparse_after"]


def test_the_default_state_grid_loads_no_simulator():
    assert _probe(_GRID_PROBE) == ["jumpctrl", "jumpctrl.problem",
                                   "jumpctrl.transition"]
