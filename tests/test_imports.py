"""Import footprint: the package imports no scipy module."""

import os
import subprocess
import sys

import pnp_steric


def run_python(code):
    src = os.path.dirname(os.path.dirname(pnp_steric.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_no_scipy_module_is_loaded():
    code = (
        "import sys, pnp_steric, pnp_steric.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(code) == "[]"


def test_results_survive_a_later_scipy_linalg_import():
    # The package's copy of scipy's _flapack extension and the one
    # scipy.linalg then imports under its own name are initialised
    # separately; both must keep computing the same bits.
    code = """
import numpy as np
import pnp_steric as ps
from pnp_steric import bvp

fn = ps.assemble_three_species(
    ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 20.0, 1.0), 1.0, 0.5), "A"
)
c = fn.root
sol = bvp.solve(bvp.BvpProblem(1e-3, fn, bvp.RobinBC(c + 0.3, c - 0.1, 0.1)))
fp = fn.derivative(sol.values[1:-1])
res = np.sin(3.0 * sol.nodes) + 0.5


def run():
    step = bvp._newton_step(sol.nodes[1] - sol.nodes[0], 1e-3, fp, sol.bc, res)
    lam = bvp.linearized_smallest_eigenvalue(sol, fn)
    return step.tobytes() + np.float64(lam).tobytes()


before = run()
import scipy.linalg

again = bvp.solve(bvp.BvpProblem(1e-3, fn, sol.bc))
print(run() == before, again.values.tobytes() == sol.values.tobytes())
"""
    assert run_python(code) == "True True"
