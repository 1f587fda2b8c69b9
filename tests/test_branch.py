"""Unit tests for the two-species branch algebra."""

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


class TestGCrit:
    def test_g_zero_is_e(self):
        assert ps.g_crit(0.0) == pytest.approx(math.e, abs=1e-8)

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

    def test_f_tilde_vanishes_at_sigma_c(self):
        p = pair(1, 20)
        sc = ps.sigma_c(p)
        E = math.exp(-(p.g + p.z) * sc)
        assert abs(1 + p.g * sc + (p.g**2 - p.z**2) * E) < 1e-12


class TestConstantCaches:
    CACHED = (branch.sigma_z, branch.g_crit, branch.sigma_c)

    def test_g_crit_probes_leave_sigma_z_cache_alone(self):
        before = branch.sigma_z.cache_info()
        ps.g_crit(0.7318249)
        after = branch.sigma_z.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_fresh_pairs_stay_within_maxsize(self):
        size = max(fn.cache_info().maxsize for fn in self.CACHED)
        for k in range(2 * size):
            p = pair(0.3 + 1e-4 * k, 30.0 + 1e-3 * k)
            ps.sigma_c(p)
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
    @pytest.mark.parametrize(
        "invert",
        [
            lambda phi: ps.inverse_sigma(phi, pair(1, 20), "A1"),
            lambda phi: ps.inverse_sigma(phi, pair(1, 20), "A2"),
            lambda phi: ps.inverse_sigma(phi, pair(1, 20), "B1"),
            lambda phi: ps.unified_sigma(phi, pair(0.5, 1)),
        ],
        ids=["A1", "A2", "B1", "unified"],
    )
    def test_non_finite_potential_rejected(self, invert, phi):
        with pytest.raises(DomainError):
            invert(phi)

    @pytest.mark.parametrize(
        "invert",
        [
            lambda: ps.inverse_sigma(22.5, pair(0, 5.436563656918089, 3), "A1"),
            lambda: ps.unified_sigma(22.5, pair(0, 2, 3)),
        ],
        ids=["A1", "unified"],
    )
    def test_potential_beyond_float_range_rejected(self, invert):
        # phi_A at g = 0 rounds to 0 for large sigma and is nan once
        # sigma^2 overflows, so no float sigma reaches phi = 22.5
        with pytest.raises(DomainError):
            invert()

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
