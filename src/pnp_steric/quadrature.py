"""Adaptive Simpson quadrature.

Kept deliberately independent of scipy's integrators so the two excess
current routes (grid quadrature in x versus adaptive quadrature in
sigma) share no code.
"""

from .errors import NonconvergenceError

__all__ = ["adaptive_simpson"]

_ABS_FLOOR = 1e-12
_MAX_DEPTH = 40
_REL_TOL = 1e-8


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise NonconvergenceError(
            "adaptive Simpson: panel [%.17g, %.17g] misses its tolerance %.3g "
            "(error estimate %.3g) at depth %d" % (a, b, tol, err / 15.0, _MAX_DEPTH)
        )
    half = 0.5 * tol
    return (
        _recurse(f, a, fa, m, fm, lm, flm, left, half, depth - 1)
        + _recurse(f, m, fm, b, fb, rm, frm, right, half, depth - 1)
    )


def adaptive_simpson(f, a, b):
    """Integrate f from a to b with Richardson-accelerated Simpson panels.

    The per-panel tolerance is the larger of _ABS_FLOOR and _REL_TOL times
    a running magnitude estimate from the initial whole-interval panel.
    A panel still missing its tolerance after _MAX_DEPTH halvings raises
    NonconvergenceError.  Orientation-aware: swapped bounds negate the
    result, equal bounds give 0.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a)
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    tol = max(_ABS_FLOOR, _REL_TOL * abs(whole))
    return _recurse(f, a, fa, b, fb, m, fm, whole, tol, _MAX_DEPTH)
