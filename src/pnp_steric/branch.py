"""Algebra of the two-species steric pair.

Everything in this module lives in the (c1, c2) plane of a single
oppositely charged pair with steric self-coupling ``g``, cross-coupling
``z`` and valence magnitude ``q``.  The product constraint

    c1 * c2 = exp(-(g + z) * (c1 + c2))

defines, for each total concentration ``sigma = c1 + c2`` above a
threshold ``sigma_z``, two mirror-image concentration pairs (branch "A"
with c1 >= c2 and branch "B" with the roles swapped).  The electric
potential is a smooth function of sigma along each branch, and for
strong enough cross-coupling (``z`` above ``g_crit(g)``) it loses
monotonicity at a turning point ``sigma_c``, splitting each branch into
two monotone segments.  This module computes the constants and the
segment inverses that the rest of the package builds on.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import BranchMismatchError, DomainError, NonconvergenceError
from .errors import SubcriticalError, SupercriticalError

__all__ = [
    "TwoSpeciesParams",
    "CriticalSet",
    "sigma_z",
    "g_crit",
    "sigma_c",
    "phi_crit",
    "concentrations",
    "c_diff",
    "phi_on_branch",
    "dphi_dsigma",
    "stability_indicator",
    "inverse_sigma",
    "unified_sigma",
    "c_diff_on_segment",
    "c_diff_segment_derivative",
    "critical_set",
]

_BRANCHES = ("A", "B")
_SEGMENTS = ("A1", "A2", "B1", "B2")

# Relative slack for clamping arguments that sit on a domain endpoint up
# to roundoff.
_ENDPOINT_SLACK = 1e-12

_BRENTQ_RTOL = 4 * np.finfo(float).eps

_INVERSE_ITERS = 120  # segment inverse cap; a typical element needs 6
_CACHE_SIZE = 128  # entries per constant cache; a sweep batch uses ~24 pairs


@dataclass(frozen=True)
class TwoSpeciesParams:
    """Parameters of one steric pair.

    g : like-ion steric coupling, g >= 0
    z : cross-ion steric coupling, z >= 0
    q : common valence magnitude of the pair, q >= 1
    """

    g: float
    z: float
    q: float = 1.0

    def __post_init__(self):
        for name in ("g", "z", "q"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError("%s must be a finite number, got %r" % (name, v))
            object.__setattr__(self, name, float(v))
        if self.g < 0:
            raise DomainError("g must be nonnegative, got %g" % self.g)
        if self.z < 0:
            raise DomainError("z must be nonnegative, got %g" % self.z)
        if self.q < 1:
            raise DomainError("q must be at least 1, got %g" % self.q)


@dataclass(frozen=True)
class CriticalSet:
    """Bundle of the critical constants of one pair.

    ``sigma_c`` and ``phi_crit`` are None when z <= g_crit(g), where the
    branch potentials are globally monotone and no turning point exists.
    """

    sigma_z: float
    g_crit: float
    sigma_c: float | None
    phi_crit: float | None


def _check_branch(branch):
    if branch not in _BRANCHES:
        raise DomainError("branch must be one of %r, got %r" % (_BRANCHES, branch))


def _check_segment(segment):
    if segment not in _SEGMENTS:
        raise DomainError("segment must be one of %r, got %r" % (_SEGMENTS, segment))


@lru_cache(maxsize=_CACHE_SIZE)
def sigma_z(params):
    """Smallest admissible total concentration of the pair.

    Unique positive root of sigma = 2*exp(-(g+z)*sigma/2); at this point
    the two branches meet (c1 = c2 = sigma/2).
    """
    a = params.g + params.z
    if a == 0.0:
        return 2.0
    # h is increasing, h(0+) < 0 and h(2) >= 0.
    h = lambda s: s - 2.0 * math.exp(-0.5 * a * s)
    return brentq(h, 1e-300, 2.0, xtol=1e-15, rtol=_BRENTQ_RTOL)


def stability_indicator(params):
    """Value of f_z at sigma_z: positive iff the meeting point is stable.

    Closed form 4*(1 + g*sigma_z)/sigma_z**2 + g**2 - z**2, which avoids
    exponentiating (g+z)*sigma_z.  sigma_z is computed uncached, so
    g_crit's probes leave its cache alone.
    """
    sz = sigma_z.__wrapped__(params)
    return 4.0 * (1.0 + params.g * sz) / (sz * sz) + params.g**2 - params.z**2


@lru_cache(maxsize=_CACHE_SIZE)
def g_crit(g):
    """Critical cross-coupling: the z at which the meeting point destabilises.

    Unique root in z of the stability indicator, found above the lower
    bound sqrt(1 + g^2) with a geometrically grown bracket.
    """
    g = float(g)
    if not (math.isfinite(g) and g >= 0.0):
        raise DomainError("g must be a finite nonnegative number, got %r" % g)

    def h(z):
        return stability_indicator(TwoSpeciesParams(g, z))

    lo = math.sqrt(1.0 + g * g)
    hi = max(2.0 * (1.0 + g), 4.0)
    while h(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - indicator is eventually negative
            raise DomainError("failed to bracket g_crit for g=%g" % g)
    return brentq(h, lo, hi, xtol=1e-15, rtol=_BRENTQ_RTOL)


@lru_cache(maxsize=_CACHE_SIZE)
def sigma_c(params):
    """Turning point of the branch potentials, defined for z > g_crit(g).

    Root of ln(1 + g*sigma) + (g+z)*sigma - ln(z^2 - g^2) = 0, the
    log-space form of (1 + g*sigma)*exp((g+z)*sigma) = z^2 - g^2.
    """
    g, z = params.g, params.z
    if z <= g_crit(g):
        raise SubcriticalError(
            "turning point requires z > g_crit(g) = %.6g, got z=%g" % (g_crit(g), z)
        )
    rhs = math.log(z * z - g * g)

    def h(s):
        return math.log1p(g * s) + (g + z) * s - rhs

    hi = 1.0
    while h(hi) < 0.0:
        hi *= 2.0
    return brentq(h, 1e-300, hi, xtol=1e-15, rtol=_BRENTQ_RTOL)


def phi_crit(params):
    """Potential magnitude at the turning point (positive).

    Equals phi_B(sigma_c) = -phi_A(sigma_c); the A-branch potential
    decreases from 0 to -phi_crit on [sigma_z, sigma_c] and increases
    back through it beyond.
    """
    return -phi_on_branch(sigma_c(params), params, "A")


def _decay(sigma, params):
    """exp(-(g+z)*sigma), the common product c1*c2."""
    return np.exp(-(params.g + params.z) * sigma)


def _sqrt_disc(sigma, params):
    """sqrt(sigma^2 - 4*exp(-(g+z)*sigma)) = |c1 - c2|, with a roundoff clamp.

    Negative discriminants within relative slack of zero are treated as
    sitting on sigma_z; genuinely subthreshold sigma raises DomainError.
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma * sigma - 4.0 * _decay(sigma, params)
    bad = d < 0.0
    if np.any(bad):
        sz = sigma_z(params)
        if np.all(sigma[bad] >= sz * (1.0 - _ENDPOINT_SLACK)):
            d = np.where(bad, 0.0, d)
        else:
            raise DomainError(
                "sigma below the admissible threshold sigma_z=%.17g" % sz
            )
    return np.sqrt(d)


def concentrations(sigma, params, branch):
    """Concentration pair (c1, c2) at total concentration sigma.

    Branch "A" takes c1 >= c2; branch "B" swaps the two.  The smaller
    concentration is evaluated as 2*E/(sigma + s) with E = c1*c2, which
    stays accurate when the pair is extremely lopsided.
    """
    _check_branch(branch)
    sigma = np.asarray(sigma, dtype=float)
    s = _sqrt_disc(sigma, params)
    big = 0.5 * (sigma + s)
    small = 2.0 * _decay(sigma, params) / (sigma + s)
    if branch == "A":
        return big, small
    return small, big


def c_diff(sigma, params, branch):
    """Concentration difference c1 - c2 on the requested branch."""
    _check_branch(branch)
    s = _sqrt_disc(sigma, params)
    return s if branch == "A" else -s


def phi_on_branch(sigma, params, branch):
    """Electric potential as a function of sigma along one branch.

    phi_A = [ln(c1) + (g+z)*sigma/2 + (g-z)*(c1-c2)/2] / q with c1 the
    larger concentration; phi_B uses the smaller one (evaluated in log
    space) and the negated difference, so phi_B(sigma) = -phi_A(sigma).
    """
    _check_branch(branch)
    sigma = np.asarray(sigma, dtype=float)
    if branch == "A":
        out = _phi_a(sigma, params)
    else:
        g, z, q = params.g, params.z, params.q
        s = _sqrt_disc(sigma, params)
        # ln(c2) = ln(2E/(sigma+s)) expanded so the decay never underflows
        log_small = math.log(2.0) - (g + z) * sigma - np.log(sigma + s)
        out = (log_small + 0.5 * (g + z) * sigma - 0.5 * (g - z) * s) / q
    return out if out.ndim else float(out)


def dphi_dsigma(sigma, params, branch):
    """Derivative of the branch potential with respect to sigma.

    Equals (1 + g*sigma + (g^2 - z^2)*E) / (q*s) on branch A and its
    negative on branch B.  Singular at sigma_z (s = 0); raises
    DomainError at or below the threshold.
    """
    _check_branch(branch)
    sigma = np.asarray(sigma, dtype=float)
    sz = sigma_z(params)
    if np.any(sigma <= sz):
        raise DomainError("derivative is singular at or below sigma_z=%.17g" % sz)
    out = _dphi_a(sigma, params)
    if branch == "B":
        out = -out
    return out if out.ndim else float(out)


def _phi_a(sigma, params):
    """phi on branch A without the branch-name dispatch (array friendly)."""
    g, z, q = params.g, params.z, params.q
    s = _sqrt_disc(sigma, params)
    return (np.log(0.5 * (sigma + s)) + 0.5 * (g + z) * sigma + 0.5 * (g - z) * s) / q


def _dphi_a(sigma, params):
    """d(phi_A)/d(sigma) with the singular 1/s left to the caller's care."""
    g, z, q = params.g, params.z, params.q
    s = _sqrt_disc(sigma, params)
    tilde = 1.0 + g * sigma + (g * g - z * z) * _decay(sigma, params)
    with np.errstate(divide="ignore"):
        return tilde / (q * s)


def _invert_monotone(target, params, lo, hi, increasing):
    """Solve phi_A(sigma) = target for sigma on [lo, hi], elementwise.

    hi=None grows a common upper end lo + 1, lo + 2, lo + 4, ... until
    phi_A reaches every target; DomainError if phi_A turns non-finite
    first.  Safeguarded Newton on per-element brackets, bisecting where a
    step leaves the bracket.  An element is done once its bracket is at
    most tol = 1e-14*max(1, hi) wide, or its Newton step stays in the
    bracket (ends included) and moves at most tol, or |phi_A - target| is
    at the rounding level 8*eps*(g+z)*max(1, sigma)/q of phi_A's terms
    (their cancellation at g = 0, large sigma, can defeat the other two).
    NonconvergenceError if any element is not done in _INVERSE_ITERS.
    """
    target = np.asarray(target, dtype=float)
    if hi is None:
        top, hi = float(np.max(target)), lo + 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while _phi_a(hi, params) < top:
                hi = lo + 2.0 * (hi - lo)
            if not np.isfinite(_phi_a(hi, params)):
                raise DomainError("potential %.17g beyond phi_A's float range" % top)
    shape, target = target.shape, target.ravel()
    out, todo = np.empty(target.size), np.arange(target.size)
    lo, hi = (np.full(target.size, end, dtype=float) for end in (lo, hi))
    x = 0.5 * (lo + hi)
    sgn = 1.0 if increasing else -1.0
    rounding = 8.0 * np.finfo(float).eps * (params.g + params.z) / params.q
    for _ in range(_INVERSE_ITERS):
        resid = _phi_a(x, params) - target
        below = sgn * resid < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - resid / _dphi_a(x, params)
        tol = 1e-14 * np.maximum(1.0, hi)
        settled = (step >= lo) & (step <= hi) & (np.abs(step - x) <= tol)
        level = np.abs(resid) <= rounding * np.maximum(1.0, x)
        inside = (step > lo) & (step < hi)  # False for nan and inf steps
        x = np.where(settled | inside, step, np.where(level, x, 0.5 * (lo + hi)))
        done = settled | level | (hi - lo <= tol)
        out[todo[done]] = x[done]
        todo, target, lo, hi, x = (a[~done] for a in (todo, target, lo, hi, x))
        if not todo.size:
            return out.reshape(shape)
    raise NonconvergenceError("segment inverse: %d of %d potentials unconverged"
                              % (todo.size, out.size))


def _clamp_to(value, lo, hi, scale):
    """Clamp values within roundoff slack of [lo, hi]; BranchMismatchError beyond."""
    slack = _ENDPOINT_SLACK * max(1.0, abs(scale))
    value = np.asarray(value, dtype=float)
    if np.any(value < lo - slack) or np.any(value > hi + slack):
        raise BranchMismatchError(
            "potential outside the segment range [%.17g, %.17g] (of -phi on "
            "B segments)" % (lo, hi)
        )
    return np.clip(value, lo, hi)


def _finite_potentials(phi):
    """phi as a float array; DomainError if any entry is nan or infinite."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError("potential must be finite")
    return phi


def inverse_sigma(phi, params, segment):
    """Total concentration on one monotone segment, as a function of phi.

    Segments (defined for z > g_crit(g)):

    =======  ==================  =====================  ============
    segment  phi range           sigma range            orientation
    =======  ==================  =====================  ============
    "A1"     [-phi_crit, inf)    [sigma_c, inf)         increasing
    "A2"     [-phi_crit, 0]      [sigma_z, sigma_c]     decreasing
    "B1"     (-inf, phi_crit]    [sigma_c, inf)         decreasing
    "B2"     [0, phi_crit]       [sigma_z, sigma_c]     increasing
    =======  ==================  =====================  ============

    The B segments reuse the A inverses at -phi (the two branch
    potentials are mirror images).  Arguments within roundoff slack of a
    segment end are clamped onto it; anything further out, such as a
    potential past phi_crit on the wrong side of an outer segment, raises
    BranchMismatchError (a DomainError).  Solved, and failing, as
    _invert_monotone does.
    """
    _check_segment(segment)
    phi = _finite_potentials(phi)
    if segment.startswith("B"):
        return inverse_sigma(-phi, params, "A" + segment[1])

    sc = sigma_c(params)  # raises SubcriticalError when no turning point
    pac = phi_crit(params)
    if segment == "A2":
        phi = _clamp_to(phi, -pac, 0.0, pac)
        out = _invert_monotone(phi, params, sigma_z(params), sc, increasing=False)
    else:
        phi = _clamp_to(phi, -pac, np.inf, pac)
        out = _invert_monotone(phi, params, sc, None, increasing=True)
    # both segments end at the turning point, where the inverse has
    # infinite slope; pin that end exactly instead of trusting the iterate
    out = np.where(phi == -pac, sc, out)
    return out if out.ndim else float(out)


def unified_sigma(phi, params):
    """Single-valued inverse sigma(phi) in the globally monotone regime.

    Defined for 0 < z <= g_crit(g): positive potentials land on branch
    A, negative on branch B, phi = 0 at sigma_z.  Raises
    SupercriticalError when z > g_crit(g), where the inverse is no
    longer single-valued.  Solved, and failing, as _invert_monotone does.
    """
    if params.z > g_crit(params.g):
        raise SupercriticalError(
            "unified inverse requires z <= g_crit(g) = %.6g" % g_crit(params.g)
        )
    if params.z <= 0.0:
        raise DomainError("unified inverse requires z > 0")
    phi = _finite_potentials(phi)
    out = _invert_monotone(np.abs(phi), params, sigma_z(params), None, increasing=True)
    return out if out.ndim else float(out)


def c_diff_on_segment(phi, params, segment):
    """Concentration difference c1 - c2 composed with a segment inverse.

    Only the outer segments "A1" (difference +s, increasing in phi) and
    "B1" (difference -s, also increasing in phi) are meaningful here;
    they are the branches entering the reduced Poisson equation.
    """
    if segment not in ("A1", "B1"):
        raise DomainError("segment must be 'A1' or 'B1', got %r" % (segment,))
    sig = inverse_sigma(phi, params, segment)
    return c_diff(sig, params, segment[0])


def c_diff_segment_derivative(phi, params, segment):
    """d/dphi of the composed concentration difference on "A1" or "B1".

    Both segments share the closed form q*(sigma + 2*(g+z)*E) / f_tilde
    evaluated at sigma(phi): the sign flips of the difference and of the
    inverse cancel, so the composition is increasing on either segment.
    """
    if segment not in ("A1", "B1"):
        raise DomainError("segment must be 'A1' or 'B1', got %r" % (segment,))
    g, z, q = params.g, params.z, params.q
    sig = np.asarray(inverse_sigma(phi, params, segment), dtype=float)
    E = _decay(sig, params)
    tilde = 1.0 + g * sig + (g * g - z * z) * E
    out = q * (sig + 2.0 * (g + z) * E) / tilde
    return out if out.ndim else float(out)


def critical_set(params):
    """All critical constants of a pair in one bundle."""
    gc = g_crit(params.g)
    if params.z > gc:
        return CriticalSet(sigma_z(params), gc, sigma_c(params), phi_crit(params))
    return CriticalSet(sigma_z(params), gc, None, None)
