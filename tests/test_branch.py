"""Unit tests for the two-species branch algebra."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import pnp_steric as ps
from pnp_steric import branch
from pnp_steric.errors import (
    BranchMismatchError,
    DomainError,
    NonconvergenceError,
    SubcriticalError,
    SupercriticalError,
)

from oracles import bisect, central_difference, newton_pair_solution


def pair(g, z, q=1.0):
    return ps.TwoSpeciesParams(g, z, q)


class TestParams:
    def test_rejects_negative_couplings(self):
        with pytest.raises(DomainError):
            ps.TwoSpeciesParams(-0.1, 1.0)
        with pytest.raises(DomainError):
            ps.TwoSpeciesParams(1.0, -1.0)

    def test_rejects_subunit_valence(self):
        with pytest.raises(DomainError):
            ps.TwoSpeciesParams(1.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "g, z", [(1e160, 40.0), (1e154, 40.0), (1.0, 1e160), (-1e160, 1.0)]
    )
    def test_rejects_couplings_whose_square_overflows(self, g, z):
        with pytest.raises(DomainError):
            ps.TwoSpeciesParams(g, z)

    def test_largest_square_still_accepted(self):
        # g stays below half of z's bound: g_crit probes z = 2*(1 + g)
        big = math.sqrt(np.finfo(float).max)
        assert ps.TwoSpeciesParams(big / 2, big).z == big
        assert math.isfinite(ps.sigma_z(ps.TwoSpeciesParams(big / 2, big)))
        assert math.isfinite(ps.g_crit(big / 2))

    def test_hashable_and_frozen(self):
        assert pair(1, 2) == pair(1, 2)
        assert hash(pair(1, 2)) == hash(pair(1, 2))


class TestSigmaZ:
    def test_zero_couplings_closed_form(self):
        assert ps.sigma_z(pair(0, 0)) == 2.0

    def test_lambert_w_closed_forms(self):
        # sigma = 2 exp(-a sigma/2) <=> a sigma/... => sigma = 2 W(a)/a for a=g+z
        assert ps.sigma_z(pair(1, 1)) == pytest.approx(
            float(lambertw(2).real), abs=1e-12
        )
        assert ps.sigma_z(pair(1, 3)) == pytest.approx(
            float(lambertw(4).real) / 2.0, abs=1e-12
        )

    def test_bisection_oracle(self):
        p = pair(0.7, 2.3)
        a = p.g + p.z
        ref = bisect(lambda s: s - 2.0 * math.exp(-0.5 * a * s), 1e-12, 2.0)
        assert ps.sigma_z(p) == pytest.approx(ref, abs=1e-12)

    def test_defining_residual(self):
        for p in [pair(0, 0.5), pair(1, 10), pair(2, 25, 2)]:
            sz = ps.sigma_z(p)
            resid = sz * sz - 4.0 * math.exp(-(p.g + p.z) * sz)
            assert abs(resid) <= 1e-12 * sz * sz

    @pytest.mark.parametrize("a", [1.0, 45.0, 1e9, 1e12, 1e15, 1e100])
    def test_lambert_w_to_relative_precision(self, a):
        # relative accuracy however small sigma_z is (4.5e-98 at a = 1e100)
        w = float(lambertw(a).real)
        assert branch._lambert_w(a) == pytest.approx(w, rel=1e-13, abs=0)
        assert ps.sigma_z(pair(0, a)) == pytest.approx(2.0 * w / a, rel=1e-13, abs=0)

    def test_huge_self_coupling(self):
        a = 1e100 + 40.0
        want = 2.0 * float(lambertw(a).real) / a
        assert ps.sigma_z(pair(1e100, 40)) == pytest.approx(want, rel=1e-13, abs=0)


class TestGCrit:
    def test_g_zero_is_e(self):
        assert ps.g_crit(0.0) == pytest.approx(math.e, abs=1e-8)

    # 1e154 has a finite square, but its bracket top 2*(1 + g) does not
    @pytest.mark.parametrize("g", [1e160, 1e154, math.inf, math.nan, -1.0])
    def test_rejects_g_without_finite_square(self, g):
        with pytest.raises(DomainError):
            ps.g_crit(g)

    def test_lower_bound(self):
        for g in [0.0, 0.5, 1.0, 2.0]:
            assert ps.g_crit(g) > math.sqrt(1.0 + g * g)

    def test_indicator_sign_change(self):
        g = 1.0
        gc = ps.g_crit(g)
        assert ps.stability_indicator(pair(g, gc - 0.01)) > 0
        assert ps.stability_indicator(pair(g, gc + 0.01)) < 0
        assert abs(ps.stability_indicator(pair(g, gc))) < 1e-10


class TestSigmaC:
    def test_g_zero_closed_form(self):
        # (z^2) e^{z sigma} ... reduces to sigma_c = 2 ln(z)/z at g=0
        for z in [3.0, 5.0, math.e**2]:
            assert ps.sigma_c(pair(0, z)) == pytest.approx(
                2.0 * math.log(z) / z, abs=1e-12
            )

    def test_subcritical_raises(self):
        with pytest.raises(SubcriticalError):
            ps.sigma_c(pair(1, 2))

    def test_between_sigma_z_and_infinity(self):
        p = pair(1, 20)
        assert ps.sigma_z(p) < ps.sigma_c(p)

    def test_tiny_turning_point_to_relative_precision(self):
        # for g = 1, z = 1e154, g*sigma_c is far below rounding, so
        # sigma_c = ln(z^2 - 1)/(1 + z) to double precision
        p = pair(1, 1e154)
        assert ps.sigma_c(p) == pytest.approx(
            math.log(p.z * p.z - 1.0) / (1.0 + p.z), rel=1e-12
        )
        assert ps.sigma_z(p) < ps.sigma_c(p)

    def test_f_tilde_vanishes_at_sigma_c(self):
        p = pair(1, 20)
        sc = ps.sigma_c(p)
        E = math.exp(-(p.g + p.z) * sc)
        assert abs(1 + p.g * sc + (p.g**2 - p.z**2) * E) < 1e-12


class TestConstantCaches:
    CACHED = (branch.sigma_z, branch.g_crit, branch.sigma_c, branch.phi_crit)

    def test_g_crit_probes_leave_sigma_z_cache_alone(self):
        before = branch.sigma_z.cache_info()
        ps.g_crit(0.7318249)
        after = branch.sigma_z.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_fresh_pairs_stay_within_maxsize(self):
        size = max(fn.cache_info().maxsize for fn in self.CACHED)
        for k in range(2 * size):
            p = pair(0.3 + 1e-4 * k, 30.0 + 1e-3 * k)
            ps.phi_crit(p)
            ps.sigma_z(p)
        for fn in self.CACHED:
            info = fn.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize


class TestBranchValues:
    def test_phi_example_value(self):
        # g=0, z=1, q=1, sigma=2: ln(1+sqrt(1-e^-2)) + 1 - sqrt(1-e^-2)
        s = math.sqrt(1.0 - math.exp(-2.0))
        ref = math.log(1.0 + s) + 1.0 - s
        assert ps.phi_on_branch(2.0, pair(0, 1), "A") == pytest.approx(ref, abs=1e-14)

    def test_phi_antisymmetry(self):
        p = pair(1, 10, 2)
        sig = np.linspace(ps.sigma_z(p), ps.sigma_z(p) + 5, 100)
        a = ps.phi_on_branch(sig, p, "A")
        b = ps.phi_on_branch(sig, p, "B")
        assert np.max(np.abs(a + b)) < 1e-10

    def test_product_closure(self):
        p = pair(1, 25)
        sig = np.linspace(ps.sigma_z(p), ps.sigma_z(p) + 5, 200)
        c1, c2 = ps.concentrations(sig, p, "A")
        resid = np.log(c1) + np.log(c2) + (p.g + p.z) * sig
        assert np.max(np.abs(resid)) < 1e-10

    def test_concentrations_match_raw_system(self):
        p = pair(1, 20)
        phi = 0.4
        sig = ps.inverse_sigma(phi, p, "A1")
        c1, c2 = ps.concentrations(sig, p, "A")
        ref = newton_pair_solution(p.g, p.z, p.q, phi, (c1, c2))
        assert c1 == pytest.approx(ref[0], rel=1e-10)
        assert c2 == pytest.approx(ref[1], rel=1e-10)

    def test_branches_swap(self):
        p = pair(0.5, 8)
        sig = ps.sigma_z(p) + 1.0
        a1, a2 = ps.concentrations(sig, p, "A")
        b1, b2 = ps.concentrations(sig, p, "B")
        assert (a1, a2) == (b2, b1)
        assert a1 >= a2
        assert ps.c_diff(sig, p, "A") == -ps.c_diff(sig, p, "B")

    def test_below_threshold_raises(self):
        p = pair(1, 5)
        with pytest.raises(DomainError):
            ps.concentrations(0.9 * ps.sigma_z(p), p, "A")

    def test_bad_branch_name(self):
        with pytest.raises(DomainError):
            ps.concentrations(2.0, pair(0, 0), "C")


class TestDerivatives:
    def test_dphi_dsigma_matches_finite_differences(self):
        p = pair(1, 10, 2)
        sz = ps.sigma_z(p)
        sig = np.geomspace(sz + 0.05, sz + 5.0, 40)
        for branch_label in ("A", "B"):
            exact = ps.dphi_dsigma(sig, p, branch_label)
            for s, d in zip(sig, np.atleast_1d(exact)):
                h = 1e-6 * max(1.0, s)
                fd = central_difference(
                    lambda t: ps.phi_on_branch(t, p, branch_label), s, h
                )
                assert d == pytest.approx(fd, rel=1e-6)

    def test_singular_at_sigma_z(self):
        p = pair(1, 5)
        with pytest.raises(DomainError):
            ps.dphi_dsigma(ps.sigma_z(p), p, "A")

    def test_pressure_in_concentrations(self):
        p = pair(0.7, 12, 2)
        sig = np.geomspace(ps.sigma_z(p) + 0.01, 6.0, 30)
        c1, c2 = ps.concentrations(sig, p, "A")
        expected = c1 + c2 + 0.5 * p.g * (c1**2 + c2**2) + p.z * c1 * c2
        np.testing.assert_allclose(branch.pressure(sig, p), expected, rtol=1e-13)
        assert isinstance(branch.pressure(2.0, p), float)

    @pytest.mark.parametrize("branch_label", ["A", "B"])
    def test_pressure_slope_is_charge_times_dphi_dsigma(self, branch_label):
        # G'(sigma) = q*(c1 - c2)*dphi/dsigma: G(sigma(phi)) is a primitive
        # of the pair's charge density on either branch
        p = pair(1, 10, 2)
        sig = np.geomspace(ps.sigma_z(p) + 0.05, 5.0, 20)
        charge = p.q * ps.c_diff(sig, p, branch_label)
        expected = charge * ps.dphi_dsigma(sig, p, branch_label)
        for s, d in zip(sig, expected):
            fd = central_difference(lambda t: branch.pressure(t, p), s, 1e-6)
            assert fd == pytest.approx(d, rel=1e-7)


_EACH_INVERSE = pytest.mark.parametrize(
    "invert",
    [
        lambda phi: ps.inverse_sigma(phi, pair(1, 20), "A1"),
        lambda phi: ps.inverse_sigma(phi, pair(1, 20), "A2"),
        lambda phi: ps.inverse_sigma(phi, pair(1, 20), "B1"),
        lambda phi: ps.inverse_sigma(phi, pair(1, 20), "B2"),
        lambda phi: ps.unified_sigma(phi, pair(0.5, 1)),
    ],
    ids=["A1", "A2", "B1", "B2", "unified"],
)


class TestInverses:
    def test_roundtrip_identity(self):
        p = pair(1, 20)
        sc = ps.sigma_c(p)
        sig = np.geomspace(sc + 1e-8, sc + 3.0, 60)
        phi = ps.phi_on_branch(sig, p, "A")
        back = ps.inverse_sigma(phi, p, "A1")
        assert np.max(np.abs(back - sig) / sig) < 1e-8

    def test_endpoint_closure(self):
        p = pair(1, 20)
        assert ps.inverse_sigma(-ps.phi_crit(p), p, "A1") == pytest.approx(
            ps.sigma_c(p), rel=1e-12
        )

    def test_endpoint_clamp_within_slack(self):
        p = pair(1, 20)
        pac = ps.phi_crit(p)
        val = ps.inverse_sigma(-pac - 1e-13, p, "A1")
        assert val == pytest.approx(ps.sigma_c(p), rel=1e-10)
        with pytest.raises(DomainError):
            ps.inverse_sigma(-pac - 1e-3, p, "A1")

    def test_inner_segments(self):
        p = pair(1, 20)
        sz, sc = ps.sigma_z(p), ps.sigma_c(p)
        pac = ps.phi_crit(p)
        phis = np.linspace(-0.95 * pac, -0.05 * pac, 50)
        sig = ps.inverse_sigma(phis, p, "A2")
        assert np.all((sig >= sz) & (sig <= sc))
        back = ps.phi_on_branch(sig, p, "A")
        assert np.max(np.abs(back - phis)) < 1e-10

    def test_b_segments_mirror_a(self):
        p = pair(1, 20)
        pac = ps.phi_crit(p)
        phis = np.linspace(-2.0, 0.9 * pac, 30)
        assert np.allclose(
            ps.inverse_sigma(phis, p, "B1"),
            ps.inverse_sigma(-phis, p, "A1"),
            rtol=0,
            atol=0,
        )

    def test_unified_sigma_symmetry_and_origin(self):
        p = pair(1, 0.5)
        assert ps.unified_sigma(0.0, p) == pytest.approx(ps.sigma_z(p), rel=1e-12)
        assert ps.unified_sigma(0.3, p) == pytest.approx(
            ps.unified_sigma(-0.3, p), rel=1e-12
        )
        ref = bisect(
            lambda s: ps.phi_on_branch(s, p, "A") - 1.0,
            ps.sigma_z(p) + 1e-9,
            20.0,
        )
        assert ps.unified_sigma(1.0, p) == pytest.approx(ref, rel=1e-10)

    def test_unified_rejects_supercritical(self):
        with pytest.raises(SupercriticalError):
            ps.unified_sigma(0.1, pair(1, 20))

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
    @_EACH_INVERSE
    def test_non_finite_potential_rejected(self, invert, phi):
        with pytest.raises(DomainError):
            invert(phi)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @_EACH_INVERSE
    def test_empty_potentials_give_an_empty_array(self, invert, shape):
        out = invert(np.empty(shape))
        assert out.dtype == float and out.shape == shape

    @pytest.mark.parametrize(
        "invert",
        [
            lambda: ps.inverse_sigma(250.0, pair(0, 5.436563656918089, 3), "A1"),
            lambda: ps.unified_sigma(250.0, pair(0, 2, 3)),
        ],
        ids=["A1", "unified"],
    )
    def test_potential_beyond_float_range_rejected(self, invert):
        # at g = 0 phi = 250 needs sigma = 2*exp(q*phi) = 2*exp(750), beyond
        # the largest float; phi_A turns nan once sigma^2 overflows
        with pytest.raises(DomainError):
            invert()

    @pytest.mark.parametrize(
        "z, branch_label",
        [(20.0, "A"), (1000.0, "A"), (20.0, "B"), (1000.0, "B")],
        ids=["20.0", "1000.0", "20.0-B", "1000.0-B"],
    )
    def test_large_potentials_match_a_decimal_reference(self, z, branch_label):
        # at g = 0, (g+z)*sigma/2 and (g-z)*s/2 cancel to e^-(z*sigma);
        # neither branch potential may inherit their rounding (once
        # 2.8e-5 relative on A, and 3.5e-10 on B at sigma = 1e5)
        def phi_a(sigma):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                sig, zd = decimal.Decimal(float(sigma)), decimal.Decimal(z)
                E = (-zd * sig).exp()
                s = (sig * sig - 4 * E).sqrt()
                return float(((sig + s) / 2).ln() + zd * (sig - s) / 2)

        p = pair(0.0, z)
        phi = np.linspace(1.0, 25.0, 25)
        sig = np.concatenate([ps.inverse_sigma(phi, p, "A1"), np.geomspace(10.0, 1e10, 41)])
        ref = np.array([phi_a(v) for v in sig])
        eps = np.finfo(float).eps
        sign = 1.0 if branch_label == "A" else -1.0
        back = sign * ps.phi_on_branch(sig, p, branch_label)
        assert np.max(np.abs(back - ref) / ref) <= 4 * eps
        assert np.max(np.abs(ref[:25] - phi) / phi) <= 16 * eps

    def test_beyond_outer_segment_end_is_branch_mismatch(self):
        p = pair(1, 20)
        pac = ps.phi_crit(p)
        with pytest.raises(BranchMismatchError):
            ps.inverse_sigma([0.0, -pac - 1e-3], p, "A1")
        with pytest.raises(BranchMismatchError):
            ps.inverse_sigma([0.0, pac + 1e-3], p, "B1")
        assert issubclass(BranchMismatchError, DomainError)

    def test_unconverged_inverse_raises(self, monkeypatch):
        monkeypatch.setattr(branch, "_INVERSE_ITERS", 3)
        with pytest.raises(NonconvergenceError):
            ps.inverse_sigma(np.linspace(-0.5, 2.0, 50), pair(1, 20), "A1")

    @pytest.mark.parametrize(
        "invert",
        [
            lambda phi: ps.inverse_sigma(phi, pair(0.0, 20.0), "A1"),
            lambda phi: ps.unified_sigma(phi, pair(0.0, 1.0)),
        ],
        ids=["A1", "unified"],
    )
    def test_float_range_error_matches_between_loops(self, invert):
        # at g = 0, phi = 800 needs sigma = 2*exp(800), beyond the largest
        # float; one potential is inverted in floats, many runs on arrays
        messages = []
        for phi in (800.0, np.linspace(0.0, 800.0, 4 * branch._FLOAT_RUNS)):
            with pytest.raises(DomainError) as exc:
                invert(phi)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "beyond phi_A's float range" in messages[0]

    @pytest.mark.parametrize("segment", ["A1", "A2", "B1", "B2"])
    def test_segment_end_error_matches_between_loops(self, segment):
        p = pair(1, 20)
        pac = ps.phi_crit(p)
        lo, hi, beyond = {
            "A1": (-pac, 2.0, -pac - 1e-3),
            "A2": (-pac, 0.0, 1e-3),
            "B1": (-2.0, pac, pac + 1e-3),
            "B2": (0.0, pac, -1e-3),
        }[segment]
        many = np.append(np.linspace(lo, hi, 4 * branch._FLOAT_RUNS), beyond)
        messages = []
        for phi in (beyond, many):
            with pytest.raises(BranchMismatchError) as exc:
                ps.inverse_sigma(phi, p, segment)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_unconverged_error_matches_between_loops(self, monkeypatch):
        # an element's iterates do not depend on the loop that runs them,
        # so the float loop (up to _FLOAT_RUNS runs) and the array loop
        # leave the same potentials unconverged
        monkeypatch.setattr(branch, "_INVERSE_ITERS", 2)
        p = pair(1, 20)
        phi = np.linspace(-0.5, 2.0, 3 * branch._FLOAT_RUNS)
        failed = []
        for v in phi:
            try:
                ps.inverse_sigma(v, p, "A1")
            except NonconvergenceError as exc:
                assert str(exc) == "segment inverse: 1 of 1 potential runs unconverged"
                failed.append(v)
        assert failed
        for chunk in (phi[: branch._FLOAT_RUNS], phi):
            with pytest.raises(NonconvergenceError) as exc:
                ps.inverse_sigma(chunk, p, "A1")
            expected = "segment inverse: %d of %d potential runs unconverged" % (
                np.isin(chunk, failed).sum(), chunk.size
            )
            assert str(exc.value) == expected

    @pytest.mark.parametrize("top", [80.0, 150.0, 354.0])
    def test_small_targets_converge_under_a_float_range_bracket(self, top):
        # at g = 0 the largest potential needs sigma = 2*exp(3*top), up
        # to about 1e308 at top = 354; a small target gets a bracket of
        # its own, [sigma_c, sigma_c + 2^k] with the root above
        # sigma_c + 2^(k-1), and bisects it in at most about 48 halvings,
        # well under the cap of 100 iterations
        p = pair(0.0, 20.0)
        phi = np.linspace(0.0, top, 200)
        sig = ps.inverse_sigma(phi, p, "A1")
        back = ps.phi_on_branch(sig, p, "A")
        eps = np.finfo(float).eps
        assert np.max(np.abs(back - phi) / np.maximum(1.0, phi)) <= 4 * eps

    @pytest.mark.parametrize("segment", ["A1", "A2", "B1", "B2"])
    def test_turning_point_end_is_pinned_without_iterating(self, monkeypatch, segment):
        p = pair(1, 20)
        end = -ps.phi_crit(p) if segment[0] == "A" else ps.phi_crit(p)
        sc = ps.sigma_c(p)

        def refuse(*args):
            raise AssertionError("inverted a pinned potential")

        monkeypatch.setattr(branch, "_phi_a_and_slope", refuse)
        assert ps.inverse_sigma(end, p, segment) == sc
        assert np.array_equal(ps.inverse_sigma([end, end], p, segment), [sc, sc])

    def test_deep_layer_solve_inverts_distinct_potentials_only(self, monkeypatch):
        # at eps = 1e-6 the grid has 22,640 nodes, nearly all of them at
        # the bulk root; only a few hundred distinct potentials remain
        cfg = ps.ThreeSpeciesConfig(pair(1.0, 40.0), 1.0, 0.5)
        fn = ps.assemble(cfg, "A")
        c = fn.root
        problem = ps.BvpProblem(1e-6, fn, ps.RobinBC(c + 0.15, c - 0.10))
        sizes = []
        evaluate = branch._phi_a_and_slope

        def counting(sigma, params):
            sizes.append(np.size(sigma))
            return evaluate(sigma, params)

        monkeypatch.setattr(branch, "_phi_a_and_slope", counting)
        sol = ps.solve(problem)
        assert sol.nodes.size > 20000
        assert 0 < max(sizes) <= 1000


def _potentials(lo, hi, u, extras, shape):
    """Potentials lo + u*(hi - lo), after the extras that lie in [lo, hi]
    and three injected duplicates, repeated cyclically to fill shape."""
    phi = [e for e in extras if lo <= e <= hi]
    phi += [lo + v * (hi - lo) for v in u[:3] + u]
    return np.resize(np.array(phi), shape) if shape else phi[0]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    g=st.floats(0.0, 3.0),
    z_factor=st.floats(1.05, 20.0),
    q=st.sampled_from([1.0, 2.0]),
    segment=st.sampled_from(["A1", "A2", "B1", "B2", "unified"]),
    shape=st.sampled_from([(), (12,), (3, 4)]),
    u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=16),
    extras=st.lists(st.sampled_from([0.0, -0.0, 1, -1]), min_size=8, max_size=8),
)
def test_inverse_result_is_independent_of_duplicates_and_order(
    g, z_factor, q, segment, shape, u, extras
):
    """Repeating and reversing the potentials repeats and reverses the
    inverse bit for bit, duplicates, signed zeros and the turning point
    (extras +-1 stand for +-phi_crit) included."""
    if segment == "unified":
        p = pair(g, 0.9 * ps.g_crit(g), q)
        phi = _potentials(-4.0, 4.0, u, extras, shape)
        invert = lambda x: ps.unified_sigma(x, p)
    else:
        p = pair(g, z_factor * ps.g_crit(g), q)
        pac = ps.phi_crit(p)
        lo, hi = {
            "A1": (-pac, pac + 10.0),
            "A2": (-pac, 0.0),
            "B1": (-pac - 10.0, pac),
            "B2": (0.0, pac),
        }[segment]
        extras = [e * pac if isinstance(e, int) else e for e in extras]
        phi = _potentials(lo, hi, u, extras, shape)
        invert = lambda x: ps.inverse_sigma(x, p, segment)
    s = invert(phi)
    if np.ndim(phi) == 0:
        assert isinstance(s, float)
        assert _same_bits(invert(np.array([phi, phi])), [s, s])
        assert _same_bits(invert(np.asarray(phi)), s)
        return
    doubled = np.concatenate([phi, phi[::-1]])
    assert _same_bits(invert(doubled), np.concatenate([s, s[::-1]]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    g=st.floats(0.0, 3.0),
    z_factor=st.floats(1.05, 20.0),
    q=st.sampled_from([1.0, 2.0]),
    segment=st.sampled_from(["A1", "A2", "B1", "B2", "unified"]),
    levels=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(1, 40), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    descending=st.booleans(),
)
def test_inverse_of_plateaus_matches_elementwise_inversion(
    g, z_factor, q, segment, levels, descending
):
    """Sorted potentials in runs of repeated values, as a solved profile
    holds them (the bulk root over most of the grid, flanked by runs one
    ulp away), invert bit for bit as each potential does in a scalar
    call of its own."""
    if segment == "unified":
        p = pair(g, 0.9 * ps.g_crit(g), q)
        lo, hi = -4.0, 4.0
        invert = lambda x: ps.unified_sigma(x, p)
    else:
        p = pair(g, z_factor * ps.g_crit(g), q)
        pac = ps.phi_crit(p)
        lo, hi = {
            "A1": (-pac, pac + 10.0),
            "A2": (-pac, 0.0),
            "B1": (-pac - 10.0, pac),
            "B2": (0.0, pac),
        }[segment]
        invert = lambda x: ps.inverse_sigma(x, p, segment)
    values, counts = [], []
    for u, count, neighbour in levels:
        value = lo + u * (hi - lo)
        values += [value, np.nextafter(value, lo)] if neighbour else [value]
        counts += [count, 3] if neighbour else [count]
    phi = np.sort(np.repeat(values, counts))
    if descending:
        phi = phi[::-1]
    single = {value: invert(value) for value in set(phi.tolist())}
    assert _same_bits(invert(phi), [single[value] for value in phi.tolist()])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    g=st.floats(0.0, 3.0),
    z_factor=st.floats(1.05, 20.0),
    q=st.sampled_from([1.0, 2.0, 3.0]),
    segment=st.sampled_from(["A1", "A2", "B1", "B2", "unified"]),
    u=st.lists(st.floats(0.0, 1.0), max_size=12),
    descending=st.booleans(),
)
def test_many_run_arrays_invert_as_their_elements_do_alone(
    g, z_factor, q, segment, u, descending
):
    """An array of more than _FLOAT_RUNS runs is iterated on arrays, each
    of its potentials alone in floats, and both give the same bits: at
    the segment ends, +-0.0, +-phi_crit and their nextafter neighbours,
    potentials clamped from within _ENDPOINT_SLACK past an end, and
    potentials whose sigma lies within _ENDPOINT_SLACK of sigma_z."""
    if segment == "unified":
        p = pair(g, 0.9 * ps.g_crit(g), q)
        lo, hi, slack, ends = -4.0, 4.0, 0.0, [0.0]
        invert = lambda x: ps.unified_sigma(x, p)
    else:
        p = pair(g, z_factor * ps.g_crit(g), q)
        pac = ps.phi_crit(p)
        lo, hi = {
            "A1": (-pac, pac + 10.0),
            "A2": (-pac, 0.0),
            "B1": (-pac - 10.0, pac),
            "B2": (0.0, pac),
        }[segment]
        slack, ends = 0.5 * branch._ENDPOINT_SLACK * max(1.0, pac), [0.0, pac]
        invert = lambda x: ps.inverse_sigma(x, p, segment)
    specials = [lo - slack, hi + slack]
    for end in ends + [lo, hi]:
        for v in (end, -end):
            specials += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    # sigma - sigma_z grows as phi^2 near phi = 0, so these sit within
    # _ENDPOINT_SLACK (relative) of sigma_z
    specials += [s * t for s in (1.0, -1.0) for t in (1e-300, 1e-9, 1e-7)]
    interior = np.linspace(lo, hi, 2 * branch._FLOAT_RUNS + 1)[1:-1].tolist()
    phi = [v for v in specials if lo - slack <= v <= hi + slack]
    phi = np.array(phi + interior + [lo + v * (hi - lo) for v in u])
    phi = np.sort(phi)[::-1] if descending else phi
    single = [invert(v) for v in phi.tolist()]
    assert _same_bits(invert(phi), single)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    g=st.floats(0.0, 3.0),
    z_factor=st.floats(1.05, 20.0),
    q=st.sampled_from([1.0, 2.0, 3.0]),
    segment=st.sampled_from(["A1", "A2", "B1", "B2"]),
    u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_inverse_property(g, z_factor, q, segment, u):
    """Potentials across a closed segment (A1/B1 cut 10 past phi_crit)
    invert into the segment's sigma range, with a round-trip residual at
    the rounding level of phi's terms away from the ends."""
    p = pair(g, z_factor * ps.g_crit(g), q)
    sz, sc, pac = ps.sigma_z(p), ps.sigma_c(p), ps.phi_crit(p)
    lo, hi = {
        "A1": (-pac, pac + 10.0),
        "A2": (-pac, 0.0),
        "B1": (-pac - 10.0, pac),
        "B2": (0.0, pac),
    }[segment]
    u = np.array(u)
    phi = lo + u * (hi - lo)
    sig = ps.inverse_sigma(phi, p, segment)
    if segment.endswith("1"):
        assert np.all(sig >= sc)
    else:
        assert np.all((sig >= sz) & (sig <= sc))
    interior = (u > 1e-3) & (u < 1.0 - 1e-3)
    back = ps.phi_on_branch(sig[interior], p, segment[0])
    scale = np.maximum(1.0, (g + p.z) * sig[interior] / q)
    assert np.all(np.abs(back - phi[interior]) <= 1e-11 * scale)


class TestSegmentComposition:
    def test_endpoint_values(self):
        p = pair(1, 20)
        sc = ps.sigma_c(p)
        pac = ps.phi_crit(p)
        s_c = math.sqrt(sc * sc - 4.0 * math.exp(-(p.g + p.z) * sc))
        assert ps.c_diff_on_segment(-pac, p, "A1") == pytest.approx(s_c, rel=1e-10)
        assert ps.c_diff_on_segment(pac, p, "B1") == pytest.approx(-s_c, rel=1e-10)

    def test_strictly_increasing(self):
        p = pair(1, 15)
        pac = ps.phi_crit(p)
        for seg, lo, hi in (("A1", -0.98 * pac, 2.0), ("B1", -2.0, 0.98 * pac)):
            phis = np.linspace(lo, hi, 500)
            vals = ps.c_diff_on_segment(phis, p, seg)
            assert np.all(np.diff(vals) > 0)

    def test_derivative_matches_finite_differences(self):
        p = pair(1, 20)
        pac = ps.phi_crit(p)
        for seg in ("A1", "B1"):
            phis = np.linspace(-0.6 * pac, 0.6 * pac, 25)
            exact = ps.c_diff_segment_derivative(phis, p, seg)
            for phi, d in zip(phis, exact):
                fd = central_difference(
                    lambda t: ps.c_diff_on_segment(t, p, seg), phi, 1e-6
                )
                assert d == pytest.approx(fd, rel=1e-6)
                assert d > 0

    @pytest.mark.parametrize("g, z", [(1, 40), (0, 5), (1, 20)])
    def test_slope_at_the_turning_point_end_is_positive(self, g, z):
        # f_tilde rounds to +-tiny at the pinned sigma_c; either sign
        # must give the large positive slope of an increasing segment
        p = pair(g, z)
        pac = ps.phi_crit(p)
        for seg, end in (("A1", -pac), ("B1", pac)):
            assert ps.c_diff_segment_derivative(end, p, seg) > 0
            assert np.all(ps.c_diff_segment_derivative([end, end], p, seg) > 0)


class TestCriticalSet:
    def test_supercritical_bundle(self):
        cs = ps.critical_set(pair(1, 20))
        assert cs.sigma_c is not None and cs.phi_crit is not None
        assert cs.sigma_z < cs.sigma_c
        assert cs.phi_crit > 0

    def test_subcritical_bundle(self):
        cs = ps.critical_set(pair(1, 2))
        assert cs.sigma_c is None and cs.phi_crit is None
        assert cs.g_crit > 1.0
