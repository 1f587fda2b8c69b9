"""Unit tests for the boundary value solver and its structural checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded

import pnp_steric as ps
from pnp_steric import branch, bvp, current
from pnp_steric.errors import (
    DomainError,
    InconsistentProfileError,
    NonconvergenceError,
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


# acceptance criterion 9's configuration, and the tests' four-species one
CFG20 = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 20.0, 1.0), 1.0, 0.5)
CFG4 = ps.FourSpeciesConfig(
    ps.TwoSpeciesParams(1.0, 25.0, 1.0), ps.TwoSpeciesParams(1.0, 25.0, 2.0), -0.3
)
ULP = np.finfo(float).eps


def slope_rhs(fp):
    """Hand-built right-hand side whose f' on the interior nodes is the array fp."""
    return ps.RhsFunction(
        "A", (-math.inf, math.inf), None,
        lambda p: np.zeros_like(np.asarray(p, dtype=float)),
        lambda p: np.asarray(fp, dtype=float),
    )


def zero_profile(m, eps, eta):
    """A BvpSolution on m interior nodes, for operators given by f' alone."""
    nodes = np.linspace(-1.0, 1.0, m + 2)
    return bvp.BvpSolution(nodes, np.zeros(m + 2), 0.0, 0, "constant", eps,
                           bvp.RobinBC(0.0, 0.0, eta))


def symmetrised_operator(sol, fp):
    """(main, off) as linearized_smallest_eigenvalue builds them, and ||T||."""
    h = sol.nodes[1] - sol.nodes[0]
    c = sol.epsilon / (h * h)
    a, b, d = bvp._robin_row(h, sol.bc.eta)
    main = 2.0 * c + np.asarray(fp, dtype=float)
    main[0] += c * b / a
    main[-1] += c * b / a
    off = np.full(main.size - 1, -c)
    off[0] = off[-1] = -c * math.sqrt(1.0 - d / a)
    radius = np.zeros(main.size)
    radius[:-1] = np.abs(off)
    radius[1:] += np.abs(off)
    norm = max(abs(float(np.min(main - radius))), abs(float(np.max(main + radius))))
    return main, off, norm


def stebz(main, off, index=0):
    """LAPACK stebz bisection for one eigenvalue: the tests' oracle."""
    return float(eigh_tridiagonal(main, off, eigvals_only=True, select="i",
                                  select_range=(index, index))[0])


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

    @staticmethod
    def step_problem(fn, eta, n=41):
        """A smooth non-solution profile with Robin data, and f' on it."""
        x = np.linspace(-1.0, 1.0, n)
        c = fn.root
        phi = c + 0.2 * np.cos(2.0 * x) - 0.05 * x
        bc = bvp.RobinBC(c + 0.3, c - 0.1, eta)
        return x[1] - x[0], phi, bc, fn.derivative(phi[1:-1])

    @staticmethod
    def dense_jacobian(h, eps, fp, eta):
        """J of the residual, row by row from the stencils."""
        n = fp.size + 2
        c = eps / (h * h)
        J = np.zeros((n, n))
        for i in range(1, n - 1):
            J[i, i - 1 : i + 2] = (c, -2.0 * c - fp[i - 1], c)
        # phi0 - eta*phi'(-1) and phi_end + eta*phi'(1), phi' from (-3, 4, -1)/(2h)
        J[0, :3] = np.array([1.0, 0.0, 0.0]) - eta * np.array([-3.0, 4.0, -1.0]) / (2 * h)
        J[-1, -3:] = np.array([0.0, 0.0, 1.0]) + eta * np.array([1.0, -4.0, 3.0]) / (2 * h)
        return J

    @pytest.mark.parametrize("eta", [0.0, 0.1, 3.0])
    def test_jacobian_matches_finite_differences(self, three_species, eta):
        eps = 1e-2
        h, phi, bc, fp = self.step_problem(three_species, eta)
        n = phi.size

        def residual(p):
            return bvp._residual_rows(p, h, eps, three_species(p[1:-1]), bc)

        step = 1e-6
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd[:, j] = (residual(phi + e) - residual(phi - e)) / (2.0 * step)
        dense = self.dense_jacobian(h, eps, fp, eta)
        assert np.max(np.abs(dense - fd)) <= 1e-7 * np.max(np.abs(fd))

    @pytest.mark.parametrize("eta", [0.0, 0.1, 3.0, 1e6])
    def test_newton_step_solves_the_dense_system(self, three_species, eta):
        eps = 1e-2
        h, phi, bc, fp = self.step_problem(three_species, eta)
        res = np.sin(3.0 * np.linspace(-1.0, 1.0, phi.size)) + 0.5
        expected = np.linalg.solve(self.dense_jacobian(h, eps, fp, eta), -res)
        got = bvp._newton_step(h, eps, fp, bc, res.copy())
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_dirichlet_step_is_the_plain_tridiagonal_solve(self, three_species):
        # eta = 0: no row operation may touch a bit of the Dirichlet system
        eps = 1e-2
        h, phi, bc, fp = self.step_problem(three_species, 0.0)
        n = phi.size
        res = np.sin(3.0 * np.linspace(-1.0, 1.0, n)) + 0.5
        c = eps / (h * h)
        ab = np.zeros((3, n))
        ab[0, 2:] = c
        ab[2, :-2] = c
        ab[1] = np.concatenate(([1.0], -2.0 * c - fp, [1.0]))
        expected = solve_banded((1, 1), ab, -res)
        got = bvp._newton_step(h, eps, fp, bc, res.copy())
        assert got.tobytes() == expected.tobytes()

    def test_newton_solves_tridiagonal_systems_only(self, three_species, monkeypatch):
        bands = []
        solve_banded = bvp.solve_banded

        def recording(l_and_u, *args, **kwargs):
            bands.append(tuple(l_and_u))
            return solve_banded(l_and_u, *args, **kwargs)

        monkeypatch.setattr(bvp, "solve_banded", recording)
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(1e-3, three_species, bvp.RobinBC(c + 0.3, c - 0.1, 0.1))
        )
        assert sol.iterations >= 1
        assert bands == [(1, 1)] * sol.iterations

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

    def test_one_segment_inversion_per_newton_step(self, monkeypatch):
        # f and f' come from one inversion per residual; the Jacobian reuses
        # the accepted iterate's f' instead of inverting again.  Besides the
        # residuals, the set-up inverts once for the grid's slope window and
        # once for the pair of data.  Each inversion takes one potential per
        # run, a few hundred on 22,640 nodes.  One pair on A1, so no B -> A
        # recursion is counted twice.
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 40.0, 1.0), 1.0, 0.5)
        fn = ps.assemble_three_species(cfg, "A")
        c = fn.root
        problem = bvp.BvpProblem(1e-6, fn, bvp.RobinBC(c + 0.15, c - 0.10))
        sizes = []
        inverse = branch.inverse_sigma

        def counting(phi, *args):
            sizes.append(np.size(phi))
            return inverse(phi, *args)

        monkeypatch.setattr(branch, "inverse_sigma", counting)
        sol = bvp.solve(problem)
        assert sol.nodes.size > 20000
        assert len(sizes) == 1 + 1 + sol.iterations + 1
        assert max(sizes) <= 1000

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

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_datum_on_the_turning_point_end(self, eps):
        # label B's upper domain end is +phi_crit, where f' is +inf up
        # to rounding; a datum there must still see an increasing f
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 40.0, 1.0), 1.0, 0.5)
        fn = ps.assemble(cfg, "B")
        c = fn.root
        bc = bvp.RobinBC(fn.domain[1], c - 0.1)
        sol = bvp.solve(bvp.BvpProblem(eps, fn, bc))
        assert sol.classification == "decreasing"
        report = bvp.envelope_check(sol, fn, c)
        assert report["alpha0"] > 0 and report["satisfied"]


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

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed_form", [False, True])
    def test_bad_gamma_rejected(self, three_species, closed_form, gamma):
        fn = three_species if closed_form else linear_rhs()
        c = fn.root
        with pytest.raises(DomainError, match="gamma"):
            bvp.boundary_layer_limits(fn, c, bvp.RobinBC(c + 0.3, c + 0.2), gamma)

    @pytest.mark.parametrize("closed_form", [False, True])
    def test_zero_gamma_is_the_neumann_limit(self, three_species, closed_form):
        fn = three_species if closed_form else linear_rhs()
        c = fn.root
        limits = bvp.boundary_layer_limits(fn, c, bvp.RobinBC(c + 0.3, c - 0.2), 0.0)
        assert limits == (c, c)

    def test_datum_outside_the_domain_rejected(self, three_species):
        c = three_species.root
        bad = three_species.domain[1] + 0.5
        with pytest.raises(DomainError):
            bvp.boundary_layer_limits(three_species, c, bvp.RobinBC(bad, c + 0.2), 0.5)

    @pytest.mark.parametrize("config, label", [(CFG20, "A"), (CFG4, "B")])
    def test_closed_form_agrees_with_quadrature(self, config, label):
        # data next to the root leave P(s) - P(c) mostly rounding; there
        # the quadrature takes over
        fn = ps.assemble(config, label)
        quadrature_only = dataclasses.replace(fn, primitive=None)
        c, lo = fn.root, fn.domain[0]
        for left, right in ((c + 0.3, c - 0.5 * (c - lo)), (c + 1e-5, c - 1e-8)):
            bc = bvp.RobinBC(left, right)
            closed = bvp.boundary_layer_limits(fn, c, bc, 0.5)
            quadrature = bvp.boundary_layer_limits(quadrature_only, c, bc, 0.5)
            assert closed == pytest.approx(quadrature, abs=1e-11)

    def test_closed_form_inverts_a_few_times(self, three_species, monkeypatch):
        # criterion 9's limits: one inversion for P(c), then one per
        # mismatch evaluation (quadrature of f needs ~140)
        calls = []
        inverse = branch.inverse_sigma

        def counting(phi, *args):
            calls.append(np.size(phi))
            return inverse(phi, *args)

        monkeypatch.setattr(branch, "inverse_sigma", counting)
        c = three_species.root
        bvp.boundary_layer_limits(three_species, c, bvp.RobinBC(c + 0.3, c + 0.2), 0.5)
        assert 0 < len(calls) <= 30

    @pytest.mark.parametrize("config, label", [(CFG20, "A"), (CFG4, "B")])
    def test_first_integral_on_solved_profiles(self, config, label):
        # eps*phi'^2/2 = P(phi) - P(c) at a layer edge whose profile
        # relaxes to the bulk root c
        fn = ps.assemble(config, label)
        c = fn.root
        sol = bvp.solve(bvp.BvpProblem(1e-4, fn, bvp.RobinBC(c + 0.3, c + 0.2)))
        slope = current.grid_derivative(sol.nodes, sol.values)
        for i in (0, -1):
            kinetic = 0.5 * sol.epsilon * slope[i] ** 2
            work = float(fn.antiderivative(sol.values[i])) - float(fn.antiderivative(c))
            assert kinetic == pytest.approx(work, rel=0.02)


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

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("m", [3, 40, 1999, 19999])
    @pytest.mark.parametrize("mu", [1.4055, -2.5])
    def test_constant_slope_closed_form(self, eps, m, mu):
        # Dirichlet data and f' = mu: lambda_k = mu + 4c*sin^2(k*pi/(2(m+1))).
        # At eps = 1e-8 and m = 19999, c = 1 and lambda_2 - lambda_1 = 7e-8:
        # a clustered spectrum where uncertified iteration can land on lambda_2.
        sol = zero_profile(m, eps, 0.0)
        h = sol.nodes[1] - sol.nodes[0]
        c = eps / (h * h)
        theta = math.pi / (2.0 * (m + 1))
        exact = mu + 4.0 * c * math.sin(theta) ** 2
        norm = max(abs(exact), abs(mu + 4.0 * c * math.cos(theta) ** 2))
        lam = bvp.linearized_smallest_eigenvalue(sol, slope_rhs(np.full(m, mu)))
        assert abs(lam - exact) <= 8.0 * ULP * norm

    def test_robin_case_lies_below_the_second_eigenvalue(self):
        # acceptance criterion 9's case: lambda_2 - lambda_1 is about 7e-6
        fn = ps.assemble(CFG20, "A")
        eps = 1e-6
        bc = bvp.RobinBC(fn.root + 0.3, fn.root + 0.2, math.sqrt(eps / (2.0 * 0.5)))
        sol = bvp.solve(bvp.BvpProblem(eps, fn, bc))
        main, off, norm = symmetrised_operator(sol, fn.derivative(sol.values[1:-1]))
        lam = bvp.linearized_smallest_eigenvalue(sol, fn)
        lam1, lam2 = stebz(main, off), stebz(main, off, 1)
        assert abs(lam - lam1) <= 8.0 * ULP * norm
        assert lam < lam2 - 0.5 * (lam2 - lam1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_slope_rejected(self, bad):
        fp = np.full(50, 1.0)
        fp[17] = bad
        with pytest.raises(DomainError):
            bvp.linearized_smallest_eigenvalue(zero_profile(50, 1e-3, 0.1), slope_rhs(fp))

    def test_iteration_cap_raises(self, three_species, monkeypatch):
        c = three_species.root
        sol = bvp.solve(
            bvp.BvpProblem(1e-4, three_species, bvp.RobinBC(c + 0.3, c + 0.2, 0.01))
        )
        monkeypatch.setattr(bvp, "_EIGEN_MAX_ITER", 1)
        with pytest.raises(NonconvergenceError):
            bvp.linearized_smallest_eigenvalue(sol, three_species)

    def test_richardson_refinement(self):
        lams = []
        for n in (1001, 2001):
            sol = bvp.solve(bvp.BvpProblem(1.0, linear_rhs(), bvp.RobinBC(1, 1), n))
            lams.append(bvp.linearized_smallest_eigenvalue(sol, linear_rhs()))
        exact = 1.0 + (math.pi / 2.0) ** 2
        assert abs(lams[1] - exact) < 0.3 * abs(lams[0] - exact)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(3, 4000),
    log_eps=st.floats(-8.0, 0.0),
    eta=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    levels=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
    layer=st.floats(-3.0, 10.0),
    width=st.floats(0.5, 5.0),
)
def test_eigenvalue_matches_bisection(m, log_eps, eta, levels, layer, width):
    # f' with plateaus (levels), negative values and boundary layers
    eps = 10.0**log_eps
    sol = zero_profile(m, eps, eta)
    x = sol.nodes[1:-1]
    fp = np.repeat(levels, -(-m // len(levels)))[:m]
    decay = width * math.sqrt(eps)
    fp = fp + layer * (np.exp(-(1.0 + x) / decay) + np.exp(-(1.0 - x) / decay))
    main, off, norm = symmetrised_operator(sol, fp)
    lam = bvp.linearized_smallest_eigenvalue(sol, slope_rhs(fp))
    assert abs(lam - stebz(main, off)) <= 8.0 * ULP * norm


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
