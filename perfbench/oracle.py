"""Independent references for the param-sweep points.

The package assembles f(phi) through its segment inverses on a window
whose unbounded end is truncated.  The oracle works on the untruncated
outer segments in sigma space instead, using only the branch
primitives ``phi_on_branch`` and ``c_diff``.  f is increasing in phi
on its whole domain, so a bulk root exists exactly when f has opposite
signs at the two domain ends (an unbounded end has the sign of its
limit).  Where a root exists the oracle also locates it, so the
package's root can be compared with a value computed without its
inverse or its window.

The critical constants are recomputed from their defining equations
without the package.  Besides giving an independent check of the
package's constants, this keeps the oracle away from the package's
cached constant functions, so generating inputs leaves those caches
cold for the measured operations.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from pnp_steric import branch

_RTOL = 4 * np.finfo(float).eps


@lru_cache(maxsize=None)
def constants(g, z, q):
    """(sigma_z, g_crit, sigma_c, phi_crit) from their defining equations.

    sigma_c and phi_crit are None when z <= g_crit, as in the package.
    """

    def sigma_z(g, z):
        return _root(lambda s: s - 2.0 * math.exp(-0.5 * (g + z) * s), 1e-300, 2.0)

    def indicator(zz):
        sz = sigma_z(g, zz)
        return 4.0 * (1.0 + g * sz) / (sz * sz) + g * g - zz * zz

    lo = math.sqrt(1.0 + g * g)
    hi = max(2.0 * (1.0 + g), 4.0)
    while indicator(hi) > 0.0:
        hi *= 2.0
    gc = _root(indicator, lo, hi)
    if z <= gc:
        return sigma_z(g, z), gc, None, None
    target = math.log(z * z - g * g)
    h = lambda s: math.log1p(g * s) + (g + z) * s - target
    hi = 1.0
    while h(hi) < 0.0:
        hi *= 2.0
    sc = _root(h, 1e-300, hi)
    d = math.sqrt(max(sc * sc - 4.0 * math.exp(-(g + z) * sc), 0.0))
    phi_a = (math.log(0.5 * (sc + d)) + 0.5 * (g + z) * sc + 0.5 * (g - z) * d) / q
    return sigma_z(g, z), gc, sc, -phi_a


def _sc_pc(pair):
    return constants(pair.g, pair.z, pair.q)[2:]


def _root(fn, lo, hi):
    return brentq(fn, lo, hi, xtol=1e-15, rtol=_RTOL)


def terms(point):
    """[(pair, outer segment)] of the steric pairs entering f for one point.

    The second pair of a four-species channel rides the mirrored segment.
    """
    first = point["branch"] + "1"
    if point["species"] == "three":
        return [(point["pair"], first)]
    return [(point["pair"], first), (point["pair2"], "B1" if first == "A1" else "A1")]


def _phi(sigma, pair, segment):
    return branch.phi_on_branch(sigma, pair, segment[0])


def sigma_at(phi, pair, segment):
    """sigma on the untruncated outer segment where the branch potential is phi.

    phi grows with sigma on "A1" and falls on "B1"; the segment starts at
    sigma_c, where phi is -phi_crit ("A1") or +phi_crit ("B1").
    """
    direction = 1.0 if segment == "A1" else -1.0
    sc, _ = _sc_pc(pair)
    gap = lambda s: direction * (_phi(s, pair, segment) - phi)
    if gap(sc) >= 0.0:
        return sc
    hi = sc + 1.0
    while gap(hi) < 0.0:
        hi = sc + 2.0 * (hi - sc)
    return _root(gap, sc, hi)


def _charge(pair, segment, sigma):
    return pair.q * float(branch.c_diff(sigma, pair, segment[0]))


def _background(point, phi):
    if point["species"] == "three":
        z3 = point["z3"]
        return -z3 * math.exp(-z3 * phi) + point["rho0"]
    return -point["rho0"]


def f_value(point, phi):
    """f(phi) of the point's configuration, without the package inverse."""
    charge = sum(_charge(p, seg, sigma_at(phi, p, seg)) for p, seg in terms(point))
    return charge + _background(point, phi)


def domain(point):
    """Untruncated phi domain (lo, hi) of f; +-inf marks an unbounded end."""
    lo, hi = -math.inf, math.inf
    for pair, seg in terms(point):
        _, pac = _sc_pc(pair)
        if seg == "A1":
            lo = max(lo, -pac)
        else:
            hi = min(hi, pac)
    return lo, hi


def _three_in_sigma(point):
    """f of a three-species point as a function of sigma on its segment."""
    ((pair, seg),) = terms(point)
    return lambda s: _charge(pair, seg, s) + _background(point, _phi(s, pair, seg))


def has_root(point):
    """True iff f changes sign on its untruncated domain.

    Three species: one end is unbounded, where f tends to +inf on "A1"
    and -inf on "B1"; the sign at sigma_c decides.  Four species: both
    ends are finite turning-point potentials.
    """
    if point["species"] == "three":
        ((pair, seg),) = terms(point)
        at_c = _three_in_sigma(point)(_sc_pc(pair)[0])
        return at_c < 0.0 if seg == "A1" else at_c > 0.0
    lo, hi = domain(point)
    return f_value(point, lo) < 0.0 < f_value(point, hi)


def root(point):
    """Bulk root phi* of f; call only when has_root(point)."""
    if point["species"] == "three":
        ((pair, seg),) = terms(point)
        fs = _three_in_sigma(point)
        sc, _ = _sc_pc(pair)
        start = math.copysign(1.0, fs(sc))
        hi = sc + 1.0
        while math.copysign(1.0, fs(hi)) == start:
            hi = sc + 2.0 * (hi - sc)
        return _phi(_root(fs, sc, hi), pair, seg)
    lo, hi = domain(point)
    return _root(lambda p: f_value(point, p), lo, hi)


