"""The in-package Brent root finder against scipy's, bit for bit."""

import math
import random

import numpy as np
import pytest
from scipy import optimize

from pnp_steric import branch, roots
from pnp_steric.errors import DomainError, NonconvergenceError
from pnp_steric.roots import brentq

RTOL = 4 * np.finfo(float).eps  # the package's relative tolerance, scipy's default


def _functions():
    """(name, f, a, b): smooth, steep, flat and tiny-valued brackets."""
    rng = random.Random(11)
    out = []
    for k in range(40):
        r = rng.uniform(-3.0, 3.0)
        a, b = rng.uniform(-5.0, r), rng.uniform(r, 5.0)
        if k % 2:
            a, b = b, a
        out += [
            ("linear%d" % k, lambda x, r=r: x - r, a, b),
            ("cubic%d" % k, lambda x, r=r: (x - r) ** 3, a, b),
            ("exp%d" % k, lambda x, r=r: math.exp(x) - math.exp(r), a, b),
            ("steep%d" % k, lambda x, r=r: math.tanh(50.0 * (x - r)), a, b),
            ("step%d" % k, lambda x, r=r: math.floor(10.0 * (x - r)) / 10.0, a, b),
            ("cusp%d" % k, lambda x, r=r: math.copysign(abs(x - r) ** 0.3, x - r), a, b),
            # products of slopes underflow: the extrapolation divides by 0
            ("tiny%d" % k, lambda x, r=r: math.sinh(x - r) * 1e-300, a, b),
            ("numpy%d" % k, lambda x, r=r: np.float64(math.atan(x - r)), a, b),
        ]
    return out


def _outcome(solver, f, *args, **kwargs):
    """Root (or the error's builtin base) and the points f was called at."""
    calls = []

    def traced(x):
        calls.append(repr(x))
        return f(x)

    try:
        root = solver(traced, *args, **kwargs)
    except RuntimeError:
        return RuntimeError, calls
    return (type(root), repr(root)), calls


@pytest.mark.parametrize("xtol", [1e-15, 1e-13, 1e-12, 1e-6])
def test_matches_scipy_bit_for_bit(xtol):
    for name, f, a, b in _functions():
        want = _outcome(optimize.brentq, f, a, b, xtol=xtol, rtol=RTOL)
        got = _outcome(brentq, f, a, b, xtol)
        assert got == want, name


def test_numpy_arguments_still_give_a_float():
    f = lambda x: x * x - 2.0
    got = brentq(f, np.float64(0.0), np.int64(2), np.float64(1e-12))
    want = optimize.brentq(f, 0.0, 2.0, xtol=1e-12, rtol=RTOL)
    assert type(got) is float
    assert repr(got) == repr(want)


@pytest.mark.parametrize("a, b", [(0, 1), (-1, 0), (1, 3)])
def test_zero_endpoint_is_returned(a, b):
    f = lambda x: x - 1.0 if b == 3 else x
    got = brentq(f, a, b, 1e-12)
    assert type(got) is float
    assert repr(got) == repr(optimize.brentq(f, a, b, xtol=1e-12))


def test_sigma_c_is_scipy_root():
    for g, z in [(0.0, 3.0), (1.0, 20.0), (0.5, 10.0), (2.0, 60.0)]:
        p = branch.TwoSpeciesParams(g, z)
        rhs = math.log(z * z - g * g)
        h = lambda s: math.log1p(g * s) + (g + z) * s - rhs
        hi = 1.0
        while h(hi) < 0.0:
            hi *= 2.0
        want = optimize.brentq(h, 1e-300, hi, xtol=1e-15, rtol=RTOL)
        assert repr(branch.sigma_c.__wrapped__(p)) == repr(want)


class TestErrors:
    def test_nan_value_is_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)
        with pytest.raises(DomainError):
            brentq(lambda x: math.nan, 0.0, 1.0, 1e-12)

    def test_equal_end_signs_are_domain_error(self):
        with pytest.raises(DomainError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
        # signbit semantics: -0.0 is not a root of equal sign
        assert brentq(lambda x: -0.0 if x < 0 else 1.0, -1.0, 1.0, 1e-12) == -1.0

    def test_iteration_cap_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(roots, "_MAXITER", 3)
        with pytest.raises(NonconvergenceError, match="3 iterations"):
            brentq(lambda x: math.copysign(abs(x - 0.3) ** 0.3, x - 0.3),
                   0.0, 1.0, 1e-12)

    def test_errors_keep_the_builtin_bases(self):
        assert issubclass(DomainError, ValueError)
        assert issubclass(NonconvergenceError, RuntimeError)
