"""Unit tests for the reduced right-hand side assembly."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import pnp_steric as ps
from pnp_steric import current
from pnp_steric.errors import (
    DomainError,
    NoIntersectionError,
    PnpStericError,
    SubcriticalError,
)

from oracles import bisect

PAIR = ps.TwoSpeciesParams(1.0, 40.0, 1.0)
CONFIG = ps.ThreeSpeciesConfig(PAIR, 1.0, 0.5)


class TestConfigs:
    def test_three_species_validation(self):
        with pytest.raises(DomainError):
            ps.ThreeSpeciesConfig(PAIR, -1.0, 0.5)
        with pytest.raises(DomainError):
            ps.ThreeSpeciesConfig(PAIR, 1.0, math.inf)

    def test_four_species_needs_nonzero_background(self):
        with pytest.raises(DomainError):
            ps.FourSpeciesConfig(PAIR, PAIR, 0.0)


class TestThirdSpecies:
    def test_values(self):
        assert ps.third_species_concentration(0.0, 3.0) == 1.0
        assert ps.third_species_concentration(1.0, 1.0) == pytest.approx(
            math.exp(-1.0)
        )
        assert ps.third_species_concentration(-2.0, 0.5) == pytest.approx(math.e)


class TestThreeSpecies:
    def test_subcritical_pair_rejected(self):
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1, 3, 1), 1.0, 0.5)
        with pytest.raises(SubcriticalError):
            ps.assemble_three_species(cfg, "A")

    def test_bad_label(self):
        with pytest.raises(DomainError):
            ps.assemble_three_species(CONFIG, "M")

    def test_root_is_a_root_and_interior(self):
        for label in ("A", "B"):
            fn = ps.assemble_three_species(CONFIG, label)
            lo, hi = fn.domain
            assert lo < fn.root < hi
            assert abs(float(fn(fn.root))) < 1e-10

    def test_roots_match_bisection_oracle(self):
        fn = ps.assemble_three_species(CONFIG, "A")
        ref = bisect(lambda p: float(fn(p)), fn.domain[0], fn.domain[1])
        assert fn.root == pytest.approx(ref, abs=1e-10)

    def test_roots_distinct_and_ordered(self):
        # f_A > f_B pointwise on the overlap, so root(A) < root(B)
        fa = ps.assemble_three_species(CONFIG, "A")
        fb = ps.assemble_three_species(CONFIG, "B")
        assert fa.root < fb.root
        pac = ps.phi_crit(PAIR)
        phis = np.linspace(-0.9 * pac, 0.9 * pac, 100)
        assert np.all(fa(phis) > fb(phis))

    def test_strictly_increasing(self):
        for label in ("A", "B"):
            fn = ps.assemble_three_species(CONFIG, label)
            lo, hi = fn.domain
            phis = np.linspace(lo, hi, 1000)
            assert np.all(np.diff(fn(phis)) > 0)

    def test_derivative_positive_and_consistent(self):
        fn = ps.assemble_three_species(CONFIG, "A")
        lo, hi = fn.domain
        phis = np.linspace(lo + 0.1, hi - 0.1, 20)
        d = fn.derivative(phis)
        assert np.all(d > 0)
        h = 1e-6
        fd = (fn(phis + h) - fn(phis - h)) / (2 * h)
        assert np.allclose(d, fd, rtol=1e-5)

    def test_nonpositive_background_loses_b_root(self):
        # the B-branch charge term is bounded above by a negative value,
        # so a positive background is necessary for its sign change
        for rho0 in (0.0, -0.5):
            cfg = ps.ThreeSpeciesConfig(PAIR, 1.0, rho0)
            with pytest.raises(NoIntersectionError):
                ps.assemble_three_species(cfg, "B")

    def test_weak_cross_coupling_loses_b_root(self):
        # The background must outweigh the pair gap at the turning point;
        # for moderate z it does not and the B branch has no sign change.
        cfg = ps.ThreeSpeciesConfig(ps.TwoSpeciesParams(1, 20, 1), 1.0, 0.5)
        with pytest.raises(NoIntersectionError):
            ps.assemble_three_species(cfg, "B")

    def test_domain_enforced(self):
        fn = ps.assemble_three_species(CONFIG, "A")
        with pytest.raises(DomainError):
            fn(fn.domain[0] - 0.5)


class TestFourSpecies:
    P12 = ps.TwoSpeciesParams(1, 25, 1)
    P34 = ps.TwoSpeciesParams(1, 25, 2)

    def test_roots_exist_for_either_background_sign(self):
        for rho0 in (-0.3, 0.3):
            cfg = ps.FourSpeciesConfig(self.P12, self.P34, rho0)
            for label in ("A", "B"):
                fn = ps.assemble_four_species(cfg, label)
                assert fn.domain[0] < fn.root < fn.domain[1]
                assert abs(float(fn(fn.root))) < 1e-10

    def test_domain_is_window_intersection(self):
        cfg = ps.FourSpeciesConfig(self.P12, self.P34, -0.3)
        fn = ps.assemble_four_species(cfg, "A")
        assert fn.domain[0] == pytest.approx(-ps.phi_crit(self.P12))
        assert fn.domain[1] == pytest.approx(ps.phi_crit(self.P34))

    def test_endpoint_signs(self):
        cfg = ps.FourSpeciesConfig(self.P12, self.P34, -0.3)
        fn = ps.assemble_four_species(cfg, "A")
        lo, hi = fn.domain
        assert float(fn(lo)) < 0 < float(fn(hi))

    def test_strictly_increasing(self):
        cfg = ps.FourSpeciesConfig(self.P12, self.P34, 0.3)
        for label in ("A", "B"):
            fn = ps.assemble_four_species(cfg, label)
            phis = np.linspace(fn.domain[0], fn.domain[1], 1000)
            assert np.all(np.diff(fn(phis)) > 0)

    def test_subcritical_pair_rejected(self):
        cfg = ps.FourSpeciesConfig(self.P12, ps.TwoSpeciesParams(1, 3, 1), 0.3)
        with pytest.raises(SubcriticalError):
            ps.assemble_four_species(cfg, "A")


def _separate(config, label, phi):
    """f and f' as two loops over the charge terms, one inversion each."""
    pairs, valences, background = ps.charge_terms(config, label)
    f = fp = 0.0
    for pair, lab in pairs:
        g, z, q = pair.g, pair.z, pair.q
        f = f + q * ps.c_diff(ps.inverse_sigma(phi, pair, lab + "1"), pair, lab)
        sig = np.asarray(ps.inverse_sigma(phi, pair, lab + "1"), dtype=float)
        E = np.exp(-(g + z) * sig)
        tilde = 1.0 + g * sig + (g * g - z * z) * E
        with np.errstate(divide="ignore"):  # +inf at the turning point
            fp = fp + q * (q * (sig + 2.0 * (g + z) * E) / np.abs(tilde))
    for z in valences:
        f = f - z * np.exp(-z * phi)
        fp = fp + z * z * np.exp(-z * phi)
    return f + background, fp


@pytest.mark.parametrize("config", [
    CONFIG,
    ps.FourSpeciesConfig(TestFourSpecies.P12, TestFourSpecies.P34, -0.3),
])
@pytest.mark.parametrize("label", ["A", "B"])
def test_fused_value_and_derivative_are_bitwise_the_separate_ones(config, label):
    fn = ps.assemble(config, label)
    lo, hi = fn.domain
    for phi in (np.linspace(lo, hi, 2001), lo, fn.root, 0.5 * (lo + hi), hi):
        f, fp = fn.value_and_derivative(phi)
        ref_f, ref_fp = _separate(config, label, np.clip(phi, lo, hi))
        assert np.array_equal(f, ref_f) and np.array_equal(fp, ref_fp)
        assert np.array_equal(fn(phi), f) and np.array_equal(fn.derivative(phi), fp)


def _supercritical(g, z_factor, q):
    return ps.TwoSpeciesParams(g, z_factor * ps.g_crit(g), q)


_PAIRS = st.builds(
    _supercritical,
    st.floats(0.0, 2.0),
    st.floats(1.5, 20.0),
    st.sampled_from([1.0, 2.0]),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    config=st.one_of(
        st.builds(ps.ThreeSpeciesConfig, _PAIRS, st.sampled_from([1.0, 2.0]),
                  st.floats(0.2, 1.5)),
        st.builds(ps.FourSpeciesConfig, _PAIRS, _PAIRS,
                  st.floats(0.1, 1.0).flatmap(lambda r: st.sampled_from([r, -r]))),
    ),
    label=st.sampled_from(["A", "B"]),
    u=st.floats(0.02, 0.98),
    v=st.floats(0.02, 0.98),
)
def test_primitive_differences_are_integrals_of_f(config, label, u, v):
    """Differences of the closed-form primitive are quadratures of f."""
    try:
        fn = ps.assemble(config, label)
    except PnpStericError:
        assume(False)
    lo, hi = fn.domain
    a, b = lo + u * (hi - lo), lo + v * (hi - lo)
    assume(a != b)
    closed = float(fn.antiderivative(b)) - float(fn.antiderivative(a))
    quad, err = integrate.quad(
        lambda t: float(fn(t)), a, b, epsabs=0.0, epsrel=1e-12, limit=200
    )
    assert err <= 1e-12 * abs(quad)
    assert closed == pytest.approx(quad, rel=1e-10)


def test_antiderivative_checks_the_domain():
    fn = ps.assemble(CONFIG, "A")
    with pytest.raises(DomainError):
        fn.antiderivative(fn.domain[0] - 0.5)


_RUN_CASES = [
    (CONFIG, "A"),
    (CONFIG, "B"),
    (ps.FourSpeciesConfig(TestFourSpecies.P12, TestFourSpecies.P34, -0.3), "A"),
    (ps.FourSpeciesConfig(TestFourSpecies.P12, TestFourSpecies.P34, -0.3), "B"),
]
_RUN_DIFFUSION = ps.DiffusionSet((1.0, 2.0, 1.0, 0.5), 1.5)


@functools.lru_cache(maxsize=None)
def _run_case(case):
    config, label = _RUN_CASES[case]
    return config, label, ps.assemble(config, label)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _current_factor(value, config, label):
    """sum_pairs q*i(sigma(phi)) at one potential, from scalar inversions."""
    pairs, _, _ = ps.charge_terms(config, label)
    d = _RUN_DIFFUSION.coefficients
    total = 0.0
    for j, (pair, lab) in enumerate(pairs):
        sig = ps.inverse_sigma(value, pair, lab + "1")
        factor = current._pair_current_factor(sig, pair, d[2 * j : 2 * j + 2], lab)
        total = total + pair.q * factor
    return total


@pytest.mark.parametrize("case", range(len(_RUN_CASES)))
def test_float_calls_stay_floats_bit_for_bit(case):
    """A float potential is checked, clipped and evaluated on floats: the
    results are float scalars, not 0-d arrays, with the bits of a
    one-element array call, also within the roundoff slack of the ends."""
    _, _, fn = _run_case(case)
    lo, hi = fn.domain
    outside = 1e-13 * max(1.0, abs(lo), abs(hi))
    for value in (lo - outside, lo, fn.root, 0.5 * (lo + hi), hi, hi + outside):
        clipped = fn._in_domain(value)
        assert isinstance(clipped, float) and clipped == min(max(value, lo), hi)
        f, fp = fn.value_and_derivative(value)
        ref_f, ref_fp = fn.value_and_derivative(np.array([value]))
        assert isinstance(f, float) and isinstance(fp, float)
        assert _bits(f) == _bits(ref_f) and _bits(fp) == _bits(ref_fp)
        assert _bits(fn(value)) == _bits(ref_f)
        # the evaluator and derivative fields themselves do not clip
        assert _bits(fn.derivative(value)) == _bits(fn.derivative(np.array([value])))
    with pytest.raises(DomainError):
        fn(hi + 1e-9 * max(1.0, abs(hi)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(range(len(_RUN_CASES))),
    levels=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(1, 40), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    zeros=st.booleans(),
    descending=st.booleans(),
    scalar=st.booleans(),
)
@example(case=0, levels=[(k / 49, 1, False) for k in range(50)], zeros=False,
         descending=False, scalar=False)
def test_run_based_evaluation_matches_per_node_evaluation(
    case, levels, zeros, descending, scalar
):
    """f, f' and the pointwise current of a plateau profile (runs of one
    potential, flanked by runs one ulp away, and 0.0 beside -0.0) are bit
    for bit those of a scalar call at each node; 0-d input gives 0-d
    output."""
    config, label, fn = _run_case(case)
    lo, hi = fn.domain
    values, counts = [], []
    for u, count, neighbour in levels:
        value = lo + u * (hi - lo)
        values += [value, np.nextafter(value, lo)] if neighbour else [value]
        counts += [count, 3] if neighbour else [count]
    phi = np.sort(np.repeat(values, counts))
    if zeros and lo < 0.0 < hi:
        at = np.searchsorted(phi, 0.0)
        phi = np.concatenate([phi[:at], [0.0, -0.0, -0.0, 0.0], phi[at:]])
    if descending:
        phi = phi[::-1]
    if scalar:
        phi = np.asarray(phi[0])
    single = {}
    for value in phi.ravel().tolist():
        if _bits(value) not in single:
            f, fp = fn.value_and_derivative(value)
            single[_bits(value)] = (f, fp, _current_factor(value, config, label))

    def per_node(k):
        return np.array([single[_bits(v)][k] for v in phi.ravel()]).reshape(phi.shape)

    f, fp = fn.value_and_derivative(phi)
    for got, want in ((f, per_node(0)), (fp, per_node(1)),
                      (fn(phi), per_node(0)), (fn.derivative(phi), per_node(1))):
        assert np.ndim(got) == phi.ndim and _bits(got) == _bits(want)
    if scalar or phi.size < 3:
        return
    x = np.linspace(-1.0, 1.0, phi.size)
    profile = current.pointwise_current((x, phi), config, _RUN_DIFFUSION, label)
    want = per_node(2) * _RUN_DIFFUSION.charge_scale * current.grid_derivative(x, phi)
    assert _bits(profile.values) == _bits(want)
