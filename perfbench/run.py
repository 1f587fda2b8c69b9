"""pnp-steric benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload deep-layer --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  The package is imported from
``src/`` of that checkout, in fresh single-threaded processes (BLAS
thread pools pinned to one thread):

* five processes that only import the package and the workload process
  give six import times, whose median is ``setup_s``;
* one process runs the workload's passes for ``--seconds`` and checks
  every operation.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries the
per-layer metrics of a traced run, and the spans are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.  Exit status is
non-zero, with no result line, when the package source is missing or a
worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUTDIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("deep-layer", "robin-stability", "param-sweep")
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0

UNITS = {
    "setup_s": "s", "run_s": "s", "solve_s": "s", "points_per_s": "1/s",
    "op_p90_s": "s", "peak_rss_mb": "MB",
    "branch.inverse_points": "count", "rhs.assemble_calls": "count",
    "rhs.eval_calls": "count", "quadrature.calls": "count", "cli.calls": "count",
    "cli.bytes_out": "B", "bvp.newton_iters": "count", "bvp.nodes": "count",
    "current.route_gap_rel": "1", "trace.overhead_frac": "1",
}


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before worker %s" % args[0])
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *map(str, args)], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker %s exceeded the time limit" % args[0])
    if proc.returncode != 0:
        raise WorkerError("worker %s exited with %d:\n%s"
                          % (args[0], proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT
    workdir = os.path.join(OUTDIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir)
    try:
        setups = [_worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        trace_path = os.path.join(OUTDIR, "trace-%s-%d.jsonl" % (workload, seed))
        out = _worker(["run", workload, seed, seconds, int(trace), workdir, trace_path],
                      deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(out["setup_s"])
    if not trace:
        out["metrics"]["setup_s"] = statistics.median(setups)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pnp_steric", "__init__.py")):
        sys.stderr.write("no package source at %s\n" % os.path.join(ROOT, "src", "pnp_steric"))
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    metrics = out["metrics"]
    for name in sorted(metrics):
        print("%-24s %.6g %s" % (name, metrics[name], _unit(name)))
    print("passes %d, operations %d, failed %d" % (out["passes"], out["attempted"], out["failed"]))
    for kind, row in sorted(out["by_kind"].items()):
        print("  %-10s attempted %4d  completed %4d"
              % (kind, row["attempted"], row["completed"]))
    for note in out["notes"]:
        print(note)
    for kind, message in out["wrong"]:
        print("WRONG %s: %s" % (kind, message))
    correct = not out["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _unit(name):
    return UNITS.get(name, "s")


if __name__ == "__main__":
    sys.exit(main())
