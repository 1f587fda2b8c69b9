"""Fresh-process side of the benchmark (started by run.py, never imported).

    worker.py setup                        time `import pnp_steric`
    worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR TRACE_PATH
    worker.py record                       rewrite reference.json

The import of the package is the first thing this file does, so every
action reports its own set-up time.  Each action prints one JSON object
as its last line of standard output.
"""

import time

_T0 = time.perf_counter()
import pnp_steric  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "branch.inverse_s": "branch.inverse",
    "branch.constants_s": "branch.constants",
    "rhs.assemble_s": "rhs.assemble",
    "rhs.eval_s": "rhs.eval",
    "bvp.solve_self_s": "bvp.solve",
    "bvp.eigen_s": "bvp.eigen",
    "bvp.limits_s": "bvp.limits",
    "bvp.checks_s": "bvp.checks",
    "quadrature.simpson_s": "quadrature.simpson",
    "current.pointwise_s": "current.pointwise",
    "current.x_route_s": "current.x_route",
    "current.sigma_route_s": "current.sigma_route",
    "cli.self_s": "cli",
}
PER_PASS_COUNTS = ["branch.inverse_points", "rhs.assemble_calls", "rhs.eval_calls",
                   "quadrature.calls", "cli.calls", "cli.bytes_out"]
PER_SOLVE_COUNTS = ["bvp.newton_iters", "bvp.nodes"]


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes):
    """End-to-end metrics of a list of passes (each a list of OpResult)."""
    ops = [op for p in passes for op in p]
    latencies = [op.latency for op in ops]
    solves = _solve_times(passes)
    completed = sum(op.ok for op in ops)
    return {
        "run_s": _median_pass(passes),
        "solve_s": statistics.median(solves) if solves else float("nan"),
        "points_per_s": completed / sum(latencies),
        "op_p90_s": _p90(latencies),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of the traced passes, per pass or per solve."""
    n_pass = len(traced)
    selfs = tracer.self_times()
    out = {metric: selfs[name] / n_pass for metric, name in SELF_TIMES.items()}
    for name in PER_PASS_COUNTS:
        out[name] = tracer.counts[name] / n_pass
    n_solve = max(tracer.counts["bvp.solves"], 1)
    for name in PER_SOLVE_COUNTS:
        out[name] = tracer.counts[name] / n_solve
    gaps = [op.route_gap for p in traced for op in p if op.route_gap is not None]
    out["current.route_gap_rel"] = statistics.median(gaps) if gaps else 0.0
    out["trace.overhead_frac"] = _median_pass(traced) / _median_pass(untraced) - 1.0
    return out


def _median_pass(passes):
    return statistics.median(sum(op.latency for op in p) for p in passes)


def _run_passes(workload, deadline, tracer=None):
    """Passes until another would end past the deadline; at least one."""
    passes, times = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(times) > deadline:
            return passes


def run(name, seed, seconds, trace, workdir, trace_path):
    workload = workloads.WORKLOADS[name](seed, workdir)
    notes = []
    start = time.perf_counter()
    deadline = start + seconds
    if trace:
        # untraced passes in the first half calibrate the tracing overhead
        untraced = _run_passes(workload, start + 0.5 * seconds)
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes = _run_passes(workload, deadline, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(trace_path)
        metrics = per_layer(tracer, passes, untraced)
        all_passes = untraced + passes
        solves = [_solve_times(p) for p in (untraced, passes)]
        if all(solves):
            # self times partition each traced solve span, so they account
            # for the traced solve time; compare it with the untraced one
            plain, traced = (statistics.median(t) for t in solves)
            notes.append("median solve: untraced %.4g s, traced %.4g s (%+.1f%%)"
                         % (plain, traced, 100.0 * (traced / plain - 1.0)))
    else:
        passes = all_passes = _run_passes(workload, deadline)
        metrics = end_to_end(passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for p in all_passes for op in p]
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "wrong": [(op.kind, w) for op in ops for w in op.wrong],
        "passes": len(all_passes),
        "by_kind": _by_kind(ops),
        "notes": notes,
    }


def _solve_times(passes):
    return [op.solve_s for p in passes for op in p if op.solve_s is not None]


def _by_kind(ops):
    out = {}
    for op in ops:
        row = out.setdefault(op.kind, {"attempted": 0, "completed": 0})
        row["attempted"] += 1
        row["completed"] += op.ok
    return out


def _profile_reference(fn, sol, alpha0):
    """Root, and the potential at the profile points on a grid four times finer.

    The tolerance is ten times the default grid's largest gap from it there.
    """
    problem = workloads.bvp.BvpProblem(sol.epsilon, fn, sol.bc,
                                       n_nodes=4 * (sol.nodes.size - 1) + 1)
    fine = workloads.bvp.solve(problem)
    x = workloads.profile_points(math.sqrt(sol.epsilon / alpha0))
    phi = np.interp(x, fine.nodes, fine.values)
    gap = float(np.max(np.abs(np.interp(x, sol.nodes, sol.values) - phi)))
    return {"root": fn.root, "profile": np.column_stack((x, phi)).tolist(),
            "profile_tol": 10.0 * gap}


def record():
    """Recompute the deep-layer and robin-stability references."""
    ref = {"deep-layer": {}}
    for name in workloads.DEEP_CASES:
        result, raw = workloads.deep_case(name, (-1.0, -0.999))
        alpha0 = raw["envelope"]["alpha0"]
        ref["deep-layer"][name] = {"alpha0": alpha0,
                                   **_profile_reference(raw["fn"], raw["sol"], alpha0)}
    result, raw = workloads.robin_case()
    fn, sol = raw["fn"], raw["sol"]
    alpha0 = workloads.bvp.envelope_check(sol, fn, fn.root)["alpha0"]
    ref["robin-stability"] = {"eigenvalue": raw["lam"],
                              **_profile_reference(fn, sol, alpha0)}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    return ref


def main(argv):
    action = argv[0]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    expected = os.path.join(root, "src", "pnp_steric")
    if os.path.dirname(os.path.abspath(pnp_steric.__file__)) != expected:
        sys.stderr.write("pnp_steric imported from %s, not %s\n"
                         % (pnp_steric.__file__, expected))
        return 2
    if action == "setup":
        out = {}
    elif action == "run":
        name, seed, seconds, trace, workdir, trace_path = argv[1:7]
        out = run(name, int(seed), float(seconds), trace == "1", workdir, trace_path)
    elif action == "record":
        out = record()
    else:
        sys.stderr.write("unknown action %r\n" % action)
        return 2
    out["setup_s"] = SETUP_S
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
