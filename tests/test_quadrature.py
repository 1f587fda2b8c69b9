"""Unit tests for the adaptive Simpson integrator."""

import math

import pytest

from pnp_steric.errors import NonconvergenceError
from pnp_steric.quadrature import adaptive_simpson


def test_smooth_integrand_and_orientation():
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-10)
    assert adaptive_simpson(math.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-10)
    assert adaptive_simpson(math.exp, 0.5, 0.5) == 0.0


@pytest.mark.parametrize(
    "f",
    [
        # a jump off every dyadic point: the panel holding it keeps an error
        # of a quarter of its width, which halves no faster than its tolerance
        lambda t: 1.0 if t < 1.0 / 3.0 else 0.0,
        # no panel meets a nan tolerance test; the first one to reach the
        # depth limit raises, before 2^40 panels are visited
        lambda t: math.nan,
    ],
    ids=["jump", "nan"],
)
def test_unmet_tolerance_raises(f):
    with pytest.raises(NonconvergenceError):
        adaptive_simpson(f, 0.0, 1.0)
