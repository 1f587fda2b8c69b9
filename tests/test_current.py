"""Unit tests for the excess current evaluations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import pnp_steric as ps
from pnp_steric import branch, bvp, current
from pnp_steric.errors import (
    BoundsError,
    BranchMismatchError,
    ConsistencyError,
    DomainError,
    EmptyDomainError,
    NoIntersectionError,
)

PAIR = ps.TwoSpeciesParams(1.0, 20.0, 1.0)
CONFIG = ps.ThreeSpeciesConfig(PAIR, 1.0, 0.5)
DIFF = ps.DiffusionSet((1.0, 2.0, 1.0))


@pytest.fixture(scope="module")
def solved():
    fn = ps.assemble_three_species(CONFIG, "A")
    bc = bvp.RobinBC(fn.root + 0.15, fn.root - 0.1, 0.0)
    sol = bvp.solve(bvp.BvpProblem(5e-2, fn, bc, 2001))
    return fn, sol


class TestDiffusionSet:
    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(DomainError):
            ps.DiffusionSet((1.0, -2.0, 1.0))
        with pytest.raises(DomainError):
            ps.DiffusionSet((1.0, 2.0), 0.0)


class TestPointwise:
    def test_constant_solution_zero_current(self, solved):
        fn, _ = solved
        x = np.linspace(-1, 1, 101)
        phi = np.full_like(x, fn.root)
        prof = current.pointwise_current_three((x, phi), CONFIG, DIFF, "A")
        assert np.max(np.abs(prof.values)) == 0.0

    def test_constant_profiles_near_the_root_give_exactly_zero(self, solved):
        fn, _ = solved
        x = np.linspace(-1, 1, 101)
        level = fn.root
        for _ in range(50):
            level = np.nextafter(level, -np.inf)
        for _ in range(100):
            phi = np.full_like(x, level)
            assert np.all(current.grid_derivative(x, phi) == 0.0)
            prof = current.pointwise_current((x, phi), CONFIG, DIFF, "A")
            assert np.all(prof.values == 0.0)
            level = np.nextafter(level, np.inf)

    def test_equal_diffusion_drops_difference_terms(self):
        # with D1 = D2 the (D2-D1)/2 blocks vanish identically
        sig = np.linspace(ps.sigma_c(PAIR) + 0.1, ps.sigma_c(PAIR) + 1.0, 20)
        fa = current._pair_current_factor(sig, PAIR, (1.5, 1.5), "A")
        fb = current._pair_current_factor(sig, PAIR, (1.5, 1.5), "B")
        assert np.allclose(fa, fb)

    def test_branch_mismatch(self, solved):
        _, sol = solved
        phi_bad = sol.values - 2.0 * ps.phi_crit(PAIR)
        with pytest.raises(BranchMismatchError):
            current.pointwise_current_three((sol.nodes, phi_bad), CONFIG, DIFF, "A")


class TestWindowIntegrals:
    def test_degenerate_window_is_zero(self, solved):
        fn, sol = solved
        prof = current.pointwise_current_three(sol, CONFIG, DIFF, "A")
        assert current.integral_current_x(prof, 0.3, 0.3) == 0.0
        assert (
            current.integral_current_sigma_three(sol, CONFIG, DIFF, "A", 0.3, 0.3)
            == 0.0
        )

    def test_bad_bounds(self, solved):
        _, sol = solved
        prof = current.pointwise_current_three(sol, CONFIG, DIFF, "A")
        with pytest.raises(BoundsError):
            current.integral_current_x(prof, 0.5, -0.5)
        with pytest.raises(BoundsError):
            current.integral_current_x(prof, -1.5, 0.5)

    def test_additivity(self, solved):
        _, sol = solved
        prof = current.pointwise_current_three(sol, CONFIG, DIFF, "A")
        whole = current.integral_current_x(prof, -0.8, 0.6)
        split = current.integral_current_x(prof, -0.8, -0.1)
        split += current.integral_current_x(prof, -0.1, 0.6)
        assert whole == pytest.approx(split, abs=1e-10)

    def test_additivity_under_rounding_noise(self, solved):
        # at n = 2001 the split point -0.1 lies 2.8e-17 from a grid node
        _, sol = solved
        rng = np.random.default_rng(11)
        noise = [3e-15 * rng.standard_normal(sol.values.size) for _ in range(3)]
        for dphi in [0.0] + noise:
            prof = current.pointwise_current(
                (sol.nodes, sol.values + dphi), CONFIG, DIFF, "A"
            )
            whole = current.integral_current_x(prof, -0.8, 0.6)
            split = current.integral_current_x(prof, -0.8, -0.1)
            split += current.integral_current_x(prof, -0.1, 0.6)
            assert abs(whole - split) <= 1e-10

    @pytest.mark.parametrize("window", [(-0.5, 0.5), (-0.5, 0.5004), (-0.3, 0.7)])
    def test_x_route_is_scipy_simpson(self, solved, window):
        # the nodes inside these windows number odd, even and odd
        _, sol = solved
        prof = current.pointwise_current_three(sol, CONFIG, DIFF, "A")
        x1, x2 = window
        x, v = prof.nodes, prof.values
        inside = (x > x1 + 1e-9 * (x[1] - x[0])) & (x < x2 - 1e-9 * (x[1] - x[0]))
        xs = np.concatenate(([x1], x[inside], [x2]))
        vs = np.concatenate(([np.interp(x1, x, v)], v[inside], [np.interp(x2, x, v)]))
        want = float(integrate.simpson(vs, x=xs))
        assert repr(current.integral_current_x(prof, x1, x2)) == repr(want)

    def test_dual_route_agreement(self, solved):
        _, sol = solved
        prof = current.pointwise_current_three(sol, CONFIG, DIFF, "A")
        for window in [(-0.8, 0.7), (-0.5, 0.5), (-0.2, 0.9)]:
            ix = current.integral_current_x(prof, *window)
            isg = current.integral_current_sigma_three(
                sol, CONFIG, DIFF, "A", *window
            )
            assert abs(ix - isg) <= max(1e-6, 1e-4 * abs(isg))

    def test_window_from_the_turning_point(self):
        # the integrand is finite at sigma_c: no warning, a finite current
        fn = ps.assemble_three_species(CONFIG, "A")
        x = np.linspace(-1, 1, 101)
        phi = np.linspace(-ps.phi_crit(PAIR), fn.root, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = current.integral_current_sigma_three(
                (x, phi), CONFIG, DIFF, "A", -1.0, 0.5
            )
        assert math.isfinite(got)
        s2 = float(branch.inverse_sigma(np.interp(0.5, x, phi), PAIR, "A1"))
        want, _ = integrate.quad(
            current._sigma_integrand(PAIR, (1.0, 2.0), "A"),
            ps.sigma_c(PAIR), s2, epsrel=1e-12,
        )
        assert got == pytest.approx(want, rel=1e-7)


class TestFourSpecies:
    P12 = ps.TwoSpeciesParams(1, 25, 1)
    P34 = ps.TwoSpeciesParams(1, 25, 2)
    CFG = ps.FourSpeciesConfig(P12, P34, -0.3)
    D4 = ps.DiffusionSet((1.0, 2.0, 1.0, 0.5))

    def test_dual_route_agreement_both_labels(self):
        for label, offset in (("A", 0.08), ("B", 0.002)):
            fn = ps.assemble_four_species(self.CFG, label)
            bc = bvp.RobinBC(fn.root + offset, fn.root - offset, 0.0)
            sol = bvp.solve(bvp.BvpProblem(5e-2, fn, bc, 2001))
            prof = current.pointwise_current_four(sol, self.CFG, self.D4, label)
            for window in [(-0.8, 0.7), (-0.4, 0.3)]:
                ix = current.integral_current_x(prof, *window)
                isg = current.integral_current_sigma_four(
                    sol, self.CFG, self.D4, label, *window
                )
                assert abs(ix - isg) <= max(1e-6, 1e-4 * abs(isg))

    def test_needs_four_coefficients(self):
        fn = ps.assemble_four_species(self.CFG, "A")
        x = np.linspace(-1, 1, 51)
        phi = np.full_like(x, fn.root)
        with pytest.raises(DomainError):
            current.pointwise_current_four((x, phi), self.CFG, DIFF, "A")

    def test_three_species_needs_two_coefficients(self):
        fn = ps.assemble_three_species(CONFIG, "A")
        x = np.linspace(-1, 1, 51)
        phi = np.full_like(x, fn.root)
        one = ps.DiffusionSet((1.0,))
        with pytest.raises(DomainError):
            current.pointwise_current_three((x, phi), CONFIG, one, "A")
        with pytest.raises(DomainError):
            current.integral_current_sigma_three((x, phi), CONFIG, one, "A", -0.5, 0.5)


def _generic_inputs(config, label, slope=0.05, n=4001):
    """A linear profile through the root with its species concentrations.

    Returns (x, phi, concentrations, valences, coupling) for
    generic_current: each steric pair (valences -q, +q, couplings g and
    z) on the branch rhs.charge_terms gives it, then the Boltzmann ions.
    The slope shrinks to stay inside the assembled domain.
    """
    fn = ps.assemble(config, label)
    lo, hi = fn.domain
    slope = min(slope, 0.5 * (fn.root - lo), 0.5 * (hi - fn.root))
    x = np.linspace(-1, 1, n)
    phi = fn.root + slope * x
    pairs, ions, _ = ps.charge_terms(config, label)
    size = 2 * len(pairs) + len(ions)
    conc, valences, coupling = [], [], np.zeros((size, size))
    for k, (pair, lab) in enumerate(pairs):
        sig = branch.inverse_sigma(phi, pair, lab + "1")
        conc.extend(branch.concentrations(sig, pair, lab))
        valences.extend([-pair.q, pair.q])
        coupling[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
            [pair.g, pair.z], [pair.z, pair.g]
        ]
    conc.extend(np.exp(-z * phi) for z in ions)
    valences.extend(ions)
    return x, phi, conc, valences, coupling


FOUR_Q2 = ps.FourSpeciesConfig(
    ps.TwoSpeciesParams(1.0, 25.0, 1.0), ps.TwoSpeciesParams(1.0, 25.0, 2.0), -0.3
)


class TestGenericFormula:
    def _profiles(self, slope=0.05, n=4001):
        return _generic_inputs(CONFIG, "A", slope, n)

    def test_matches_branch_formula(self):
        x, phi, conc, valences, coupling = self._profiles()
        prof_b = current.pointwise_current_three((x, phi), CONFIG, DIFF, "A")
        prof_g = current.generic_current((x, phi), conc, valences, DIFF, coupling)
        err = np.max(np.abs(prof_b.values[1:-1] - prof_g.values[1:-1]))
        assert err <= 1e-6

    @pytest.mark.parametrize(
        "config, label",
        [
            (ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1.0, 25.0, 2.0), 1.0, 0.5), "A"),
            (FOUR_Q2, "A"),
            (ps.FourSpeciesConfig(FOUR_Q2.pair12, FOUR_Q2.pair34, 0.3), "B"),
        ],
        ids=["three_q2", "four_A", "four_B"],
    )
    def test_matches_branch_formula_for_valence_two(self, config, label):
        x, phi, conc, valences, coupling = _generic_inputs(config, label)
        diffusion = ps.DiffusionSet((1.0, 2.0, 1.0, 0.5))
        prof_b = current.pointwise_current((x, phi), config, diffusion, label)
        prof_g = current.generic_current((x, phi), conc, valences, diffusion, coupling)
        err = np.max(np.abs(prof_b.values[1:-1] - prof_g.values[1:-1]))
        assert err <= 1e-6

    def test_third_species_contribution_vanishes(self):
        x, phi, conc, _, _ = self._profiles()
        c3 = conc[2]
        contrib = current.grid_derivative(x, c3) + CONFIG.z3 * c3 * (
            current.grid_derivative(x, phi)
        )
        assert np.max(np.abs(contrib[1:-1])) <= 1e-10

    def test_all_gradients_zero(self):
        fn = ps.assemble_three_species(CONFIG, "A")
        x = np.linspace(-1, 1, 101)
        phi = np.full_like(x, fn.root)
        sig = branch.inverse_sigma(phi, PAIR, "A1")
        c1, c2 = branch.concentrations(sig, PAIR, "A")
        c3 = np.exp(-phi)
        coupling = np.array([[1.0, 20, 0], [20, 1.0, 0], [0, 0, 0]])
        prof = current.generic_current(
            (x, phi), [c1, c2, c3], [-1.0, 1.0, 1.0], DIFF, coupling
        )
        assert np.max(np.abs(prof.values)) == 0.0

    def test_inconsistent_profiles_rejected(self):
        x, phi, conc, valences, coupling = self._profiles(n=101)
        conc[0] = conc[0] * 1.01
        with pytest.raises(ConsistencyError):
            current.generic_current((x, phi), conc, valences, DIFF, coupling)


def _supercritical(g, z_factor, q):
    return ps.TwoSpeciesParams(g, z_factor * ps.g_crit(g), q)


_PAIRS = st.builds(
    _supercritical, st.floats(0.0, 3.0), st.floats(1.05, 10.0),
    st.sampled_from([1.0, 2.0, 3.0]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    config=st.one_of(
        st.builds(ps.ThreeSpeciesConfig, _PAIRS, st.sampled_from([1.0, 2.0]),
                  st.floats(0.1, 1.0)),
        st.builds(ps.FourSpeciesConfig, _PAIRS, _PAIRS,
                  st.sampled_from([-0.5, -0.1, 0.1, 0.5])),
    ),
    label=st.sampled_from(["A", "B"]),
    d=st.tuples(*[st.floats(0.1, 5.0)] * 4),
)
def test_pointwise_current_is_the_generic_formula(config, label, d):
    # criterion 13's comparison, for every valence q and both labels
    try:
        x, phi, conc, valences, coupling = _generic_inputs(config, label)
    except (NoIntersectionError, EmptyDomainError):
        assume(False)
    diffusion = ps.DiffusionSet(d)
    direct = current.pointwise_current((x, phi), config, diffusion, label).values
    generic = current.generic_current((x, phi), conc, valences, diffusion, coupling)
    err = np.max(np.abs(direct[1:-1] - generic.values[1:-1]))
    # generic_current's species terms cancel down to the current (nearly
    # all the way at g = 0), so their size bounds its rounding error
    dphi = current.grid_derivative(x, phi)
    terms = sum(
        abs(z) * di * (np.abs(current.grid_derivative(x, c)) + np.abs(z * c * dphi))
        for z, di, c in zip(valences, d, conc)
    )
    assert err <= 1e-5 * np.max(np.abs(generic.values[1:-1])) + 1e-8 * np.max(terms)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    pair=st.builds(
        _supercritical,
        st.floats(0.0, 3.0),
        st.floats(1.05, 10.0),
        st.sampled_from([1.0, 2.0]),
    ),
    d_pair=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
    u=st.floats(1e-3, 50.0),
    label=st.sampled_from(["A", "B"]),
)
def test_both_routes_share_one_integrand(pair, d_pair, u, label):
    # the sigma route integrates q*i(sigma)*dphi/dsigma, the x route's
    # factor times the branch slope, with f_tilde cancelled in closed form
    sigma = ps.sigma_c(pair) * (1.0 + u)
    composed = (
        current._pair_current_factor(sigma, pair, d_pair, label)
        * pair.q
        * ps.dphi_dsigma(sigma, pair, label)
    )
    direct = current._sigma_integrand(pair, d_pair, label)(sigma)
    assert abs(composed - direct) <= 1e-12 * max(1.0, abs(direct))


@pytest.mark.parametrize("n", range(2, 61))
def test_grid_simpson_is_scipy_simpson(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 1.0
        for y in (rng.standard_normal(n), np.exp(3.0 * x), np.full(n, -0.0)):
            want = integrate.simpson(y, x=x)
            assert repr(current._grid_simpson(y, x)) == repr(want)
