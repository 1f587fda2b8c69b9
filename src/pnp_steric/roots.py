"""Bracketed scalar root finding by Brent's method.

``brentq`` is a line-for-line port of the ``brentq`` routine of scipy's
C sources (``scipy/optimize/Zeros/brentq.c``): the same floating point
operations in the same order, on Python floats, so it returns the same
root to the last bit as ``scipy.optimize.brentq`` without importing
scipy.optimize, the largest part of the package's import time.
Failures raise package errors instead of scipy's ValueError and
RuntimeError, whose subclasses they are.
"""

import math
import sys

from .errors import DomainError, NonconvergenceError

__all__ = ["brentq"]

_RTOL = 4 * sys.float_info.epsilon  # scipy's default relative tolerance
_MAXITER = 100  # scipy's default iteration cap


def _signbit(v):
    return math.copysign(1.0, v) < 0.0


def brentq(f, a, b, xtol):
    """Root of f on [a, b], where f(a) and f(b) differ in sign.

    f is called with Python floats; the root, a Python float, is within
    xtol + _RTOL*|root| of a sign change of f.  A NaN value of f or
    end values of equal sign raise DomainError; no convergence within
    _MAXITER iterations raises NonconvergenceError.
    """
    xtol = float(xtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise DomainError("function value at x=%r is NaN" % x)
        return fx

    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise DomainError(
            "f(a) and f(b) must have different signs, got f(%r) = %r and "
            "f(%r) = %r" % (xpre, fpre, xcur, fcur)
        )
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2*delta
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero it gets inf or
                # nan, fails the step test below and bisects
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
                except ZeroDivisionError:
                    stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonconvergenceError(
        "brentq failed to converge after %d iterations, value is %r"
        % (_MAXITER, xcur)
    )
