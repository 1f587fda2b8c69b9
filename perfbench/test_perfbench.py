"""Self-tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench

The smoke tests run the real command once per workload (one pass each,
about 40 s in all).
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from pnp_steric import branch, bvp, rhs
from pnp_steric.errors import NoIntersectionError

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_child_durations():
    tree = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("a", 3.5, 4.0, 0),
        _span("b", 6.0, 7.0, 0),
        _span("c", 6.25, 6.75, 3),
    ]
    got = spans.self_times(tree)
    assert got["op"] == pytest.approx(10.0 - 2.5 - 1.0)
    assert got["a"] == pytest.approx(2.5)
    assert got["b"] == pytest.approx(0.5)
    assert got["c"] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_traced_self_times_add_up_to_the_operation():
    fn = rhs.assemble_three_species(workloads.ROBIN_CONFIG, "A")
    problem = bvp.BvpProblem(1e-2, fn, bvp.RobinBC(fn.root + 0.2, fn.root - 0.1))
    original = bvp.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.open_op("op.test"):
            traced_fn = rhs.assemble_three_species(workloads.ROBIN_CONFIG, "A")
            bvp.solve(bvp.BvpProblem(1e-2, traced_fn, problem.bc))
        bvp.solve(problem)  # outside an operation: not recorded
    finally:
        tracer.uninstall()
    assert bvp.solve is original
    op = tracer.spans[0]
    assert op.name == "op.test" and op.parent is None
    assert {s.op for s in tracer.spans} == {0}
    names = {s.name for s in tracer.spans}
    assert {"rhs.assemble", "rhs.eval", "bvp.solve", "branch.inverse",
            "branch.constants", "bvp.checks"} <= names
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(op.end - op.start, rel=1e-9)
    assert tracer.counts["bvp.solves"] == 1
    assert tracer.counts["rhs.eval_calls"] > 0
    assert tracer.counts["branch.inverse_points"] > 0


def test_solution_checks_catch_a_wrong_profile_or_f():
    fn = rhs.assemble_three_species(workloads.ROBIN_CONFIG, "A")
    bc = bvp.RobinBC(fn.root + 0.2, fn.root - 0.1, 0.05)
    sol = bvp.solve(bvp.BvpProblem(1e-2, fn, bc))
    result = workloads.OpResult("test", 0.0)
    workloads._expect_solution(result, fn, sol, workloads.ROBIN_CONFIG, "A")
    assert not result.wrong
    for i in (0, sol.values.size // 2, sol.values.size - 1):
        perturbed = dataclasses.replace(sol, values=sol.values.copy())
        perturbed.values[i] += 1e-6
        result = workloads.OpResult("test", 0.0)
        workloads._expect_solution(result, fn, perturbed, workloads.ROBIN_CONFIG, "A")
        assert any("residual" in w for w in result.wrong)
    shifted = dataclasses.replace(fn, evaluator=lambda phi: fn.evaluator(phi) + 1e-6)
    result = workloads.OpResult("test", 0.0)
    workloads._expect_solution(result, shifted, sol, workloads.ROBIN_CONFIG, "A")
    assert any(w.startswith("f(") for w in result.wrong)


def _three(g, z, label):
    return dict(species="three", branch=label, pair=branch.TwoSpeciesParams(g, z, 1.0),
                z3=1.0, rho0=0.5)


def test_oracle_large_z_has_a_root_the_package_misses():
    point = _three(1.0, 200.0, "A")
    assert oracle.has_root(point)
    phi = oracle.root(point)
    assert abs(oracle.f_value(point, phi)) < 1e-10
    with pytest.raises(NoIntersectionError):
        rhs.assemble_three_species(rhs.ThreeSpeciesConfig(point["pair"], 1.0, 0.5), "A")


def test_oracle_small_z_label_b_has_no_root():
    assert not oracle.has_root(_three(1.0, 10.0, "B"))


def test_oracle_matches_the_package_inside_its_window():
    cfg = rhs.ThreeSpeciesConfig(branch.TwoSpeciesParams(1.0, 40.0, 1.0), 1.0, 0.5)
    for label in "AB":
        fn = rhs.assemble_three_species(cfg, label)
        point = _three(1.0, 40.0, label)
        assert oracle.has_root(point)
        assert oracle.root(point) == pytest.approx(fn.root, abs=1e-12)
    four = dict(species="four", branch="A", pair=branch.TwoSpeciesParams(1.0, 25.0, 1.0),
                pair2=branch.TwoSpeciesParams(1.0, 25.0, 2.0), rho0=-0.3)
    fn = rhs.assemble_four_species(workloads.DEEP_CASES["four"]["config"], "A")
    assert oracle.root(four) == pytest.approx(fn.root, abs=1e-12)
    cs = branch.critical_set(branch.TwoSpeciesParams(1.0, 40.0, 1.0))
    ref = oracle.constants(1.0, 40.0, 1.0)
    assert ref == pytest.approx((cs.sigma_z, cs.g_crit, cs.sigma_c, cs.phi_crit), rel=1e-12)


def test_assembly_error_completes_only_without_a_root(tmp_path):
    point = _three(1.0, 200.0, "A")
    root = oracle.root(point)
    error = "NoIntersectionError error in solve: f_A has no sign change on [-0.868, -0.86]\n"
    no_root = dict(mode="solve", has_root=False, root=None, left=0.1, right=0.1)
    result = workloads.OpResult("solve", 0.0)
    workloads.check_sweep(result, no_root, 3, error, str(tmp_path / "none.json"))
    assert result.ok
    # with a root in the true domain the same error is wrong, window cap or not
    with_root = dict(mode="solve", has_root=True, root=root, left=root + 0.1,
                     right=root - 0.1)
    result = workloads.OpResult("solve", 0.0)
    workloads.check_sweep(result, with_root, 3, error, str(tmp_path / "none.json"))
    assert not result.ok and result.wrong


def test_stream_is_seeded_and_stratified():
    a = workloads.SweepStream(7).next_batch()
    b = workloads.SweepStream(7).next_batch()
    assert [p["argv"] for p in a] == [p["argv"] for p in b]
    assert sorted(p["mode"] for p in a) == ["critical"] * 5 + ["current"] * 7 + ["solve"] * 8
    eps = sorted(math.log10(p["eps"]) for p in a if p["mode"] != "critical")
    assert all(-3.0 + k / 15 <= e < -3.0 + (k + 1) / 15 for k, e in enumerate(eps))
    for p in a:
        if p["mode"] != "critical":
            g, z, q = (getattr(p["config"]["pair"], k) for k in "gzq")
            assert any(q == aq and z == pytest.approx(az, rel=0.052)
                       and g == pytest.approx(ag, rel=0.052)
                       for ag, az, aq in workloads.TESTED_PAIRS)


def _run(workload, cwd, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload,trace", [
    ("deep-layer", 0), ("robin-stability", 0), ("param-sweep", 0), ("param-sweep", 1),
])
def test_smoke_run(workload, trace):
    proc = _run(workload, ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("param-sweep", tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
