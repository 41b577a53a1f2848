"""Start-up guard: importing the CLI loads nothing heavy beyond its base.

Every command pays its imports before it does any work, and start-up is a
large share of a short command's wall time.  The base is ``numpy`` plus
``scipy.special`` (the normal quantile behind every Gaussian draw); over
it, ``import jumpctrl.cli`` may add only the package's own modules and the
standard library.  ``scipy.sparse`` stays lazy: only the lattice operator
assembly (``transition.assemble_operator``) loads it.  The lattice layer
stands on the problem layer alone: building the default state grid loads
no simulator.  The simulator stands on the problem layer and the random
streams: it recognizes an intensity tilt by its shape, so it never loads
``girsanov``.

The command also pins BLAS to one thread before numpy loads, unless the
caller chose a thread count; the library modules leave the environment as
they found it.
"""

import json
import os
import subprocess
import sys

import pytest

import jumpctrl
from jumpctrl.cli import BLAS_THREAD_VARS

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


_SIM_PROBE = """
import json, sys
import jumpctrl.sim
print(json.dumps(sorted(m for m in sys.modules if m.startswith("jumpctrl"))))
"""


_THREAD_PROBE = """
import json, os
import jumpctrl.cli
import numpy as np
np.ones((50000, 3)) @ np.ones(3)
print(json.dumps(len(os.listdir("/proc/self/task"))))
"""


_ENVIRON_PROBE = """
import json, os
before = dict(os.environ)
import {modules}
print(json.dumps(dict(os.environ) == before))
"""


def _probe(script: str = _PROBE, **thread_env):
    """Run ``script`` in a fresh interpreter whose thread variables are
    exactly ``thread_env``: this process's own ones are dropped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jumpctrl.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(thread_env, PYTHONPATH=src)
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


def test_the_simulator_loads_only_the_problem_and_stream_layers():
    assert _probe(_SIM_PROBE) == ["jumpctrl", "jumpctrl.problem",
                                  "jumpctrl.sim", "jumpctrl.stream"]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.cpu_count() == 1,
                    reason="counts threads in Linux /proc on a multi-CPU host")
def test_the_cli_runs_blas_on_one_thread():
    assert _probe(_THREAD_PROBE) == 1


def test_a_callers_thread_count_wins():
    assert _probe(_ENVIRON_PROBE.format(modules="jumpctrl.cli"),
                  OPENBLAS_NUM_THREADS="2")


def test_the_library_leaves_the_environment_alone():
    assert _probe(_ENVIRON_PROBE.format(modules="jumpctrl.bsde, jumpctrl.sim"))
