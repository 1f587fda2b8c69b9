"""Print the exact bits of the package's main numbers, one line per entry.

Each line is ``name value``: a float as ``float.hex``, an array as its
size and the sha1 of its raw bytes, an integer or string as is, and a
failure as ``raised <ErrorClass>``.  The cases are the acceptance gate's
pairs and their neighbours: (1, 20, 1), (1, 40, 1) and (0.5, 10, 2) with
a third species, and the four-species pair (1, 25, 1) + (1, 25, 2) with
rho0 = +0.3 and -0.3, each on labels A and B.  For each: the bulk root;
Dirichlet and Robin solves at eps = 1e-2, 1e-4 and 1e-6 with their
eigenvalues, pointwise current and both current routes; the Robin layer
limits; and scalar and array segment inverses.  Then criterion 8's three
profiles and midpoint gaps.  Last, the exit code and the sha1 of the
exact JSON and CSV text of CLI runs: ``critical``, ``branches``,
Dirichlet and Robin ``solve``, three-species ``current``, four-species
``current`` with q2 = 1 and q2 = 2, and the point file of a one-value
``sweep``; so the diff checks the rendered bytes as well as the numbers.

Each run imports the ``src/`` next to this file, so copying the script
into a checkout of the parent commit and diffing the two outputs checks
that a change keeps every bit:

    python tools/bitdigest.py > new.txt
    python ../parent/tools/bitdigest.py > old.txt
    diff old.txt new.txt

The bits depend on the CPU's numpy dispatch (exp and log), so compare
runs on one machine.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import pnp_steric as ps  # noqa: E402
from pnp_steric import bvp, cli, current  # noqa: E402

EPSILONS = (1e-2, 1e-4, 1e-6)
GAMMA = 0.5
WINDOWS = ((-1.0, 1.0), (-1.0, -0.9), (0.3, 0.95))


def cases():
    """(name, config, diffusion, data offset) of every configuration."""
    three = ps.DiffusionSet((1.0, 2.0, 1.0))
    four = ps.DiffusionSet((1.0, 2.0, 1.0, 0.5))
    out = []
    for g, z, q in ((1.0, 20.0, 1.0), (1.0, 40.0, 1.0), (0.5, 10.0, 2.0)):
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(g, z, q), 1.0, 0.5)
        out.append(("three(%g,%g,%g)" % (g, z, q), cfg, three, 0.1))
    for rho0 in (0.3, -0.3):
        cfg = ps.FourSpeciesConfig(
            ps.TwoSpeciesParams(1.0, 25.0, 1.0),
            ps.TwoSpeciesParams(1.0, 25.0, 2.0),
            rho0,
        )
        out.append(("four(rho0=%g)" % rho0, cfg, four, 0.08))
    return out


def show(name, value):
    if isinstance(value, (bool, int, str)):
        text = str(value)
    elif isinstance(value, bytes):
        text = "%d sha1:%s" % (len(value), hashlib.sha1(value).hexdigest())
    elif np.ndim(value):
        value = np.ascontiguousarray(value, dtype=float)
        text = "%d sha1:%s" % (value.size, hashlib.sha1(value.tobytes()).hexdigest())
    else:
        text = float(value).hex()
    print(name, text)


def attempt(name, compute):
    """Run compute(); print 'raised <Error>' and return None if it fails."""
    try:
        return compute()
    except ps.PnpStericError as exc:
        print(name, "raised", type(exc).__name__)
        return None


def show_solution(name, sol):
    show(name + ".values", sol.values)
    show(name + ".iterations", sol.iterations)
    show(name + ".residual", sol.residual_norm)
    show(name + ".class", sol.classification)


def digest_case(name, cfg, diffusion, offset, label):
    name = "%s.%s" % (name, label)
    fn = attempt(name + ".assemble", lambda: ps.assemble(cfg, label))
    if fn is None:
        return
    root = fn.root
    show(name + ".root", root)
    # data on either side of the root, at most halfway to the domain's end
    above = root + min(offset, 0.5 * (fn.domain[1] - root))
    below = root - min(offset, 0.5 * (root - fn.domain[0]))
    for eta_name in ("dirichlet", "robin"):
        for eps in EPSILONS:
            eta = 0.0 if eta_name == "dirichlet" else math.sqrt(eps / (2.0 * GAMMA))
            bc = bvp.RobinBC(above, below, eta)
            key = "%s.%s.eps=%g" % (name, eta_name, eps)
            sol = attempt(key, lambda: bvp.solve(bvp.BvpProblem(eps, fn, bc)))
            if sol is None:
                continue
            show_solution(key, sol)
            show(key + ".eigen", bvp.linearized_smallest_eigenvalue(sol, fn))
            prof = current.pointwise_current(sol, cfg, diffusion, label)
            show(key + ".pointwise", prof.values)
            for x1, x2 in WINDOWS:
                win = "%s.window(%g,%g)" % (key, x1, x2)
                show(win + ".x", current.integral_current_x(prof, x1, x2))
                show(win + ".sigma", current.integral_current_sigma(
                    sol, cfg, diffusion, label, x1, x2))
    bc = bvp.RobinBC(above, below)
    limits = attempt(name + ".limits",
                     lambda: bvp.boundary_layer_limits(fn, root, bc, GAMMA))
    if limits is not None:
        show(name + ".limits", np.array(limits))


def digest_inverses():
    """Scalar and array inverses on every segment of the gate pairs."""
    pairs = ((1.0, 20.0, 1.0), (1.0, 40.0, 1.0), (0.5, 10.0, 2.0),
             (1.0, 25.0, 2.0), (0.0, 20.0, 1.0), (0.0, 1000.0, 1.0))
    for g, z, q in pairs:
        p = ps.TwoSpeciesParams(g, z, q)
        pac = ps.phi_crit(p)
        ranges = {"A1": (-pac, pac + 10.0), "A2": (-pac, 0.0),
                  "B1": (-pac - 10.0, pac), "B2": (0.0, pac)}
        for segment, (lo, hi) in ranges.items():
            phi = np.linspace(lo, hi, 301)
            key = "inverse(%g,%g,%g).%s" % (g, z, q, segment)
            show(key + ".array", ps.inverse_sigma(phi, p, segment))
            single = [ps.inverse_sigma(v, p, segment) for v in phi[::20]]
            show(key + ".scalars", np.array(single))
        low = ps.TwoSpeciesParams(g, 0.9 * ps.g_crit(g), q)
        phi = np.linspace(-4.0, 4.0, 301)
        key = "unified(%g,%g,%g)" % (low.g, low.z, q)
        show(key + ".array", ps.unified_sigma(phi, low))
        show(key + ".scalars", np.array([ps.unified_sigma(v, low) for v in phi[::20]]))


def digest_criterion_8():
    """Criterion 8's profiles and |mid - root| gaps on the default grid."""
    cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 20.0, 1.0), 1.0, 0.5)
    fn = ps.assemble(cfg, "A")
    root = fn.root
    bc = bvp.RobinBC(root + 0.25, root + 0.15, 0.0)
    for eps in (1e-2, 1e-3, 1e-4):
        sol = bvp.solve(bvp.BvpProblem(eps, fn, bc))
        key = "criterion8.eps=%g" % eps
        show_solution(key, sol)
        mid = float(np.interp(0.0, sol.nodes, sol.values))
        show(key + ".gap", abs(mid - root))


THREE = ["--g", "1", "--z", "40", "--d2", "2", "--phi0-left", "1.3", "--phi0-right",
         "1.0", "--x1", "-0.5", "--x2", "0.5"]
FOUR = ["--species", "four", "--g", "1", "--z", "25", "--g2", "1", "--z2", "25",
        "--rho0", "-0.3", "--d2", "2", "--d4", "0.5"]
CLI_RUNS = (
    ("critical", ["critical", "--g", "1", "--z", "20"]),
    ("branches", ["branches", "--g", "1", "--z", "20", "--sigma-max", "3"]),
    ("solve", ["solve", "--g", "1", "--z", "40", "--phi0-left", "1.3",
               "--phi0-right", "1.0"]),
    ("solve.robin", ["solve", "--g", "1", "--z", "20", "--epsilon", "1e-3",
                     "--eta", repr(math.sqrt(1e-3 / (2.0 * GAMMA))),
                     "--phi0-left", "0.25", "--phi0-right", "0.15"]),
    ("current.three", ["current"] + THREE),
    ("current.four(q2=1)", ["current"] + FOUR + ["--phi0-left", "-0.3",
                                                 "--phi0-right", "-0.5"]),
    ("current.four(q2=2)", ["current"] + FOUR + ["--q2", "2", "--phi0-left", "0.25",
                                                 "--phi0-right", "0.05"]),
)


def digest_cli():
    """Exit code and sha1 of the exact text of each CLI run, JSON and CSV."""
    for fmt in ("json", "csv"):
        for name, argv in CLI_RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--format", fmt])
            key = "cli.%s.%s" % (name, fmt)
            show(key + ".exit", code)
            show(key, out.getvalue().encode())
        with tempfile.TemporaryDirectory() as tmp:
            stem = os.path.join(tmp, "scan")
            code = cli.main(["sweep", "--target", "current", "--param", "d2",
                             "--values", "2"] + THREE
                            + ["--format", fmt, "--out", stem])
            show("cli.sweep.%s.exit" % fmt, code)
            with open(stem + "_manifest.json") as fh:
                path = json.load(fh)["points"][0]["file"]
            with open(path, "rb") as fh:
                show("cli.sweep.%s" % fmt, fh.read())


def main():
    for name, cfg, diffusion, offset in cases():
        for label in ("A", "B"):
            digest_case(name, cfg, diffusion, offset, label)
    digest_inverses()
    digest_criterion_8()
    digest_cli()


if __name__ == "__main__":
    main()
