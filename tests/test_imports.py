"""Import footprint: the package needs scipy.linalg only."""

import os
import subprocess
import sys

import pnp_steric


def test_scipy_optimize_and_integrate_stay_unloaded():
    src = os.path.dirname(os.path.dirname(pnp_steric.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, pnp_steric, pnp_steric.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'optimize'],"
        " ['scipy', 'integrate'])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
