"""Unit tests for the boundary value solver and its structural checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pnp_steric as ps
from pnp_steric import bvp
from pnp_steric.errors import (
    DomainError,
    InconsistentProfileError,
    PnpStericError,
    RootPresentError,
    SignError,
)


def linear_rhs():
    """f(phi) = phi with root 0: the solvable textbook case."""
    return ps.RhsFunction(
        "A",
        (-math.inf, math.inf),
        0.0,
        lambda p: np.asarray(p, dtype=float),
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
    )


def constant_rhs(value=1.0):
    return ps.RhsFunction(
        "A",
        (-math.inf, math.inf),
        None,
        lambda p: np.full_like(np.asarray(p, dtype=float), value),
        lambda p: np.zeros_like(np.asarray(p, dtype=float)),
    )


@pytest.fixture(scope="module")
def three_species():
    pair = ps.TwoSpeciesParams(1.0, 20.0, 1.0)
    cfg = ps.ThreeSpeciesConfig(pair, 1.0, 0.5)
    return ps.assemble_three_species(cfg, "A")


class TestValidation:
    def test_negative_eta_rejected(self):
        with pytest.raises(DomainError):
            bvp.RobinBC(0.0, 0.0, -1.0)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(DomainError):
            bvp.BvpProblem(0.0, linear_rhs(), bvp.RobinBC(0, 0))

    def test_data_outside_rhs_domain(self, three_species):
        bad = three_species.domain[1] + 1.0
        problem = bvp.BvpProblem(1e-2, three_species, bvp.RobinBC(bad, bad))
        with pytest.raises(DomainError):
            bvp.solve(problem)


class TestSolve:
    def test_constant_data_gives_constant_solution(self, three_species):
        c = three_species.root
        sol = bvp.solve(bvp.BvpProblem(1e-2, three_species, bvp.RobinBC(c, c, 0.3)))
        assert sol.classification == "constant"
        assert np.max(np.abs(sol.values - c)) < 1e-12

    def test_cosh_oracle(self):
        sol = bvp.solve(bvp.BvpProblem(1.0, linear_rhs(), bvp.RobinBC(1, 1), 2001))
        exact = np.cosh(sol.nodes) / np.cosh(1.0)
        assert np.max(np.abs(sol.values - exact)) <= 1e-6
        assert sol.values[1000] == pytest.approx(1.0 / np.cosh(1.0), abs=1e-6)

    def test_truncation_error_is_second_order(self):
        # apply the discrete operator to the analytic solution on two grids
        def truncation(n):
            x = np.linspace(-1, 1, n)
            h = x[1] - x[0]
            phi = np.cosh(x) / np.cosh(1.0)
            interior = (phi[:-2] - 2 * phi[1:-1] + phi[2:]) / (h * h) - phi[1:-1]
            return np.max(np.abs(interior))

        assert truncation(1001) / truncation(2001) >= 3.5

    def test_robin_boundary_residual(self, three_species):
        c = three_species.root
        bc = bvp.RobinBC(c + 0.2, c + 0.1, 0.25)
        sol = bvp.solve(bvp.BvpProblem(1e-2, three_species, bc))
        h = sol.nodes[1] - sol.nodes[0]
        v = sol.values
        dl = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        dr = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
        assert abs(v[0] - bc.eta * dl - bc.phi0_left) <= 1e-9
        assert abs(v[-1] + bc.eta * dr - bc.phi0_right) <= 1e-9

    def test_uniqueness_from_distinct_guesses(self, three_species):
        c = three_species.root
        bc = bvp.RobinBC(c + 0.3, c - 0.1, 0.0)
        problem = bvp.BvpProblem(1e-2, three_species, bc)
        base = bvp.solve(problem)
        n = base.nodes.size
        for guess in (np.full(n, c + 0.25), np.full(n, c - 0.05)):
            other = bvp.solve(problem, initial=guess)
            assert np.max(np.abs(other.values - base.values)) < 1e-8

    @pytest.mark.parametrize("eta", [0.0, 0.1, 3.0])
    def test_banded_jacobian_matches_finite_differences(self, three_species, eta):
        n = 41
        x = np.linspace(-1.0, 1.0, n)
        h = x[1] - x[0]
        eps = 1e-2
        c = three_species.root
        phi = c + 0.2 * np.cos(2.0 * x) - 0.05 * x
        bc = bvp.RobinBC(c + 0.3, c - 0.1, eta)
        ab = bvp._jacobian(phi, h, eps, three_species, bc)
        dense = np.zeros((n, n))
        for k in range(-2, 3):
            # diagonal k sits in row 2 - k of solve_banded's (2, 2) storage
            band = ab[2 - k, max(k, 0):n + min(k, 0)]
            dense += np.diag(band, k)
        step = 1e-6
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd[:, j] = (
                bvp._residual(phi + e, h, eps, three_species, bc)
                - bvp._residual(phi - e, h, eps, three_species, bc)
            ) / (2.0 * step)
        assert np.max(np.abs(dense - fd)) <= 1e-7 * np.max(np.abs(fd))

    def test_data_near_the_domain_ends_solve(self):
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(0.5, 10.0, 2.0), 1.0, 0.5)
        fn = ps.assemble_three_species(cfg, "A")
        lo, hi = fn.domain
        c = fn.root
        bc = bvp.RobinBC(c + 0.97 * (hi - c), c - 0.97 * (c - lo))
        sol = bvp.solve(bvp.BvpProblem(1e-5, fn, bc))
        assert sol.classification == "decreasing"
        assert bvp.bounds_check(sol, c)["satisfied"]

    def test_deep_layer_takes_a_few_newton_steps(self):
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 40.0, 1.0), 1.0, 0.5)
        fn = ps.assemble_three_species(cfg, "A")
        c = fn.root
        sol = bvp.solve(bvp.BvpProblem(1e-6, fn, bvp.RobinBC(c + 0.15, c - 0.10)))
        assert sol.classification == "decreasing"
        assert sol.iterations <= 5

    def test_large_eta_is_the_neumann_limit(self):
        # Robin rows carry rounding of order macheps*eta/h; the stopping
        # floor must cover it or Newton stalls just above the tolerance.
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 40.0, 1.0), 1.0, 0.5)
        fn = ps.assemble_three_species(cfg, "A")
        c = fn.root
        bc = bvp.RobinBC(c + 0.15, c - 0.10, 1e6)
        sol = bvp.solve(bvp.BvpProblem(1e-3, fn, bc))
        assert sol.classification == "constant"
        assert np.max(np.abs(sol.values - c)) <= 1e-8

    def test_grid_rule(self):
        assert bvp.default_grid_size(1.0, 0.0) == 201
        assert bvp.default_grid_size(1e-4, 1.0) == 2000
        assert bvp.default_grid_size(1e-2, 1.0) == 201


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    g=st.floats(0.0, 2.0),
    z_factor=st.floats(1.5, 20.0),
    q=st.sampled_from([1.0, 2.0]),
    z3=st.sampled_from([1.0, 2.0]),
    rho0=st.floats(0.2, 1.5),
    label=st.sampled_from(["A", "B"]),
    log_eps=st.floats(math.log(1e-6), math.log(1e-2)),
    left=st.floats(0.02, 0.97).flatmap(lambda u: st.sampled_from([u, -u])),
    right=st.floats(0.02, 0.97).flatmap(lambda u: st.sampled_from([u, -u])),
    robin=st.booleans(),
)
def test_solve_property(g, z_factor, q, z3, rho0, label, log_eps, left, right, robin):
    """Every solve converges inside the maximum-principle bounds with the
    shape its data force: monotone when they straddle the bulk root, one
    interior extremum when they sit on one side of it."""
    pair = ps.TwoSpeciesParams(g, z_factor * ps.g_crit(g), q)
    try:
        fn = ps.assemble_three_species(ps.ThreeSpeciesConfig(pair, z3, rho0), label)
    except PnpStericError:
        assume(False)
    lo, hi = fn.domain
    c = fn.root

    def datum(u):
        return c + u * (hi - c) if u > 0 else c + u * (c - lo)

    eps = math.exp(log_eps)
    bc = bvp.RobinBC(datum(left), datum(right), math.sqrt(eps) if robin else 0.0)
    sol = bvp.solve(bvp.BvpProblem(eps, fn, bc))
    assert bvp.bounds_check(sol, c)["satisfied"]
    if left * right < 0:
        expected = "decreasing" if left > 0 else "increasing"
    else:
        expected = "interior-min" if left > 0 else "interior-max"
    assert sol.classification == expected


class TestClassification:
    def test_four_cases(self, three_species):
        c = three_species.root
        cases = [
            ((c + 0.3, c + 0.2), "interior-min"),
            ((c - 0.3, c - 0.2), "interior-max"),
            ((c - 0.3, c + 0.2), "increasing"),
            ((c + 0.3, c - 0.2), "decreasing"),
        ]
        for (left, right), expected in cases:
            sol = bvp.solve(
                bvp.BvpProblem(1e-2, three_species, bvp.RobinBC(left, right))
            )
            assert sol.classification == expected

    def test_inconsistent_profile_detected(self, three_species):
        sol = bvp.solve(
            bvp.BvpProblem(
                1e-2,
                three_species,
                bvp.RobinBC(three_species.root + 0.3, three_species.root + 0.3),
            )
        )
        wiggled = sol.values + 0.05 * np.sin(8 * np.pi * sol.nodes)
        fake = bvp.BvpSolution(
            sol.nodes, wiggled, 0.0, 0, "", sol.epsilon, sol.bc
        )
        with pytest.raises(InconsistentProfileError):
            bvp.classify_solution(fake, three_species.root)

    def test_bounds_report(self, three_species):
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(1e-2, three_species, bvp.RobinBC(c + 0.4, c + 0.1))
        )
        report = bvp.bounds_check(sol, c)
        assert report["satisfied"]
        assert report["lower"] == pytest.approx(c)
        assert report["upper"] == pytest.approx(c + 0.4)


class TestEnvelope:
    def test_linear_case_closed_form(self):
        # at x=0: (1/cosh 1)^2 ~ 0.420 below the envelope value 2 e^{-sqrt 2}
        sol = bvp.solve(bvp.BvpProblem(1.0, linear_rhs(), bvp.RobinBC(1, 1), 2001))
        report = bvp.envelope_check(sol, linear_rhs(), 0.0)
        assert report["satisfied"]
        assert report["alpha0"] == pytest.approx(1.0)
        mid = (1.0 / np.cosh(1.0)) ** 2
        assert mid < 2.0 * math.exp(-math.sqrt(2.0))

    def test_three_species_envelope(self, three_species):
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(1e-3, three_species, bvp.RobinBC(c + 0.2, c + 0.2))
        )
        report = bvp.envelope_check(sol, three_species, c)
        assert report["satisfied"]


class TestBoundaryLayers:
    def test_linear_closed_form(self):
        left, right = bvp.boundary_layer_limits(
            linear_rhs(), 0.0, bvp.RobinBC(1.0, 1.0), 0.5
        )
        assert left == pytest.approx(0.5, abs=1e-10)
        assert right == pytest.approx(0.5, abs=1e-10)

    def test_datum_at_root_rejected(self):
        with pytest.raises(SignError):
            bvp.boundary_layer_limits(linear_rhs(), 0.0, bvp.RobinBC(0.0, 1.0), 0.5)

    def test_below_root_side(self):
        left, _ = bvp.boundary_layer_limits(
            linear_rhs(), 0.0, bvp.RobinBC(-1.0, 1.0), 0.5
        )
        assert left == pytest.approx(-0.5, abs=1e-10)


class TestStability:
    def test_linear_spectrum(self):
        sol = bvp.solve(bvp.BvpProblem(1.0, linear_rhs(), bvp.RobinBC(1, 1), 2001))
        lam = bvp.linearized_smallest_eigenvalue(sol, linear_rhs())
        assert lam == pytest.approx(1.0 + (math.pi / 2.0) ** 2, abs=1e-3)

    def test_lower_bound_three_species(self, three_species):
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(1e-2, three_species, bvp.RobinBC(c + 0.3, c - 0.1, 0.1))
        )
        lam = bvp.linearized_smallest_eigenvalue(sol, three_species)
        mu0 = float(
            np.min(three_species.derivative(np.linspace(sol.values.min(),
                                                        sol.values.max(), 401)))
        )
        assert lam >= mu0 - 1e-6

    @pytest.mark.parametrize("eta", [0.0, 0.1, 3.0])
    def test_robin_eigenvalue_matches_dense_reference(self, three_species, eta):
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(
                1e-2, three_species, bvp.RobinBC(c + 0.3, c - 0.1, eta), 201
            )
        )
        h = sol.nodes[1] - sol.nodes[0]
        k = sol.epsilon / (h * h)
        m = sol.nodes.size - 2
        op = (
            np.diag(2.0 * k + three_species.derivative(sol.values[1:-1]))
            - k * np.eye(m, k=1)
            - k * np.eye(m, k=-1)
        )
        # v0 = eta*(4 v1 - v2)/(2h + 3 eta) enters row 1 through -k*v0; mirror at the right
        w = eta / (2.0 * h + 3.0 * eta)
        op[0, :2] -= k * w * np.array([4.0, -1.0])
        op[-1, -2:] -= k * w * np.array([-1.0, 4.0])
        reference = float(np.min(np.real(np.linalg.eigvals(op))))
        lam = bvp.linearized_smallest_eigenvalue(sol, three_species)
        assert lam == pytest.approx(reference, rel=1e-10)

    def test_richardson_refinement(self):
        lams = []
        for n in (1001, 2001):
            sol = bvp.solve(bvp.BvpProblem(1.0, linear_rhs(), bvp.RobinBC(1, 1), n))
            lams.append(bvp.linearized_smallest_eigenvalue(sol, linear_rhs()))
        exact = 1.0 + (math.pi / 2.0) ** 2
        assert abs(lams[1] - exact) < 0.3 * abs(lams[0] - exact)


class TestUnboundedGrowth:
    def test_constant_rhs_exact_norm(self):
        eps = 1e-3
        sol = bvp.solve(bvp.BvpProblem(eps, constant_rhs(), bvp.RobinBC(0, 0), 201))
        assert np.max(np.abs(sol.values)) == pytest.approx(1 / (2 * eps), rel=1e-8)

    def test_probe_reports_doubling(self):
        report = bvp.unbounded_growth_probe(constant_rhs(), [1e-1, 5e-2, 2.5e-2])
        assert all(f == pytest.approx(2.0, rel=1e-6) for f in report["growth_factors"])

    def test_rootless_nonlinear_growth(self):
        exp_rhs = ps.RhsFunction(
            "A",
            (-math.inf, math.inf),
            None,
            lambda p: np.exp(np.asarray(p, dtype=float)) + 1.0,
            lambda p: np.exp(np.asarray(p, dtype=float)),
        )
        report = bvp.unbounded_growth_probe(exp_rhs, [1e-1, 5e-2])
        assert report["growth_factors"][0] >= 1.5

    def test_sign_change_rejected(self):
        with pytest.raises(RootPresentError):
            bvp.unbounded_growth_probe(linear_rhs(), [1e-1])
