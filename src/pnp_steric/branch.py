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

from .errors import BranchMismatchError, DomainError, NonconvergenceError
from .errors import SubcriticalError, SupercriticalError
from .roots import brentq

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
    "c_diff_and_slope_on_segment",
    "c_diff_on_segment",
    "c_diff_segment_derivative",
    "pressure",
    "critical_set",
]

_BRANCHES = ("A", "B")
_SEGMENTS = ("A1", "A2", "B1", "B2")

# Relative slack for clamping arguments that sit on a domain endpoint up
# to roundoff.
_ENDPOINT_SLACK = 1e-12

# Segment inverse cap.  A typical element needs 6 iterations, but one
# whose Newton steps leave its bracket bisects it.  A grown bracket is
# [lo, lo + 2^k] with the root above lo + 2^(k-1) for k > 0, and A2's
# [sigma_z, sigma_c] is narrower than 1, so reaching a width of
# 1e-14*max(1, hi) takes at most log2(2e14), about 48 halvings.
_INVERSE_ITERS = 100
# Calls with at most this many runs of equal potentials invert one run at
# a time in floats.  On a 2-vCPU AVX-512 Xeon with numpy 2.4 a run costs
# about 15 us that way, against a floor of about 270 us for the array
# loop's numpy overhead, so the two break even near 20 runs.
_FLOAT_RUNS = 8
_ROUNDING = 8.0 * np.finfo(float).eps  # phi_A's rounding level per unit |phi|
_LAMBERT_ITERS = 20  # Halley cap for _lambert_w; it needs at most about 5
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
        _check_g(self.g)
        if not math.isfinite(self.z * self.z):
            raise DomainError("z squared overflows a float, got %r" % self.z)
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


def _lambert_w(a):
    """Principal branch W(a) of w*exp(w) = a for a > 0, by Halley iteration.

    Starts from log1p(a) below e and from the asymptotic
    ln(a) - ln(ln(a)) + ln(ln(a))/ln(a) above; each step triples the
    correct digits, so a few reach the last bit.
    """
    if a <= math.e:
        w = math.log1p(a)
    else:
        l1 = math.log(a)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(_LAMBERT_ITERS):
        ew = math.exp(w)
        f = w * ew - a
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * w:
            return w
    raise NonconvergenceError(  # pragma: no cover - Halley converges cubically
        "Lambert W of %r did not converge" % a
    )


@lru_cache(maxsize=_CACHE_SIZE)
def sigma_z(params):
    """Smallest admissible total concentration of the pair.

    Unique positive root of sigma = 2*exp(-(g+z)*sigma/2); at this point
    the two branches meet (c1 = c2 = sigma/2).  With u = (g+z)*sigma/2
    the equation is u*exp(u) = g+z, so sigma = 2*W(g+z)/(g+z), accurate
    to a few ulps however small (a root finder with an absolute
    tolerance is not, for g+z beyond about 1e9).
    """
    a = params.g + params.z
    if a == 0.0:
        return 2.0
    return 2.0 * _lambert_w(a) / a


def stability_indicator(params):
    """Value of f_z at sigma_z: positive iff the meeting point is stable.

    Closed form 4*(1 + g*sigma_z)/sigma_z**2 + g**2 - z**2, which avoids
    exponentiating (g+z)*sigma_z.  sigma_z is computed uncached, so
    g_crit's probes leave its cache alone.
    """
    sz = sigma_z.__wrapped__(params)
    return 4.0 * (1.0 + params.g * sz) / (sz * sz) + params.g**2 - params.z**2


def _g_crit_top(g):
    """Top of g_crit's first bracket, the first z it probes."""
    return max(2.0 * (1.0 + g), 4.0)


def _check_g(g):
    """DomainError unless g >= 0 and g_crit's probes have finite squares.

    g_crit builds pairs with z from _g_crit_top(g) up, so a g admitted
    here leaves every pair's critical constants computable.
    """
    top = _g_crit_top(g)
    if not (g >= 0.0 and math.isfinite(top * top)):
        raise DomainError(
            "g must be nonnegative with 2*(1 + g) squared finite, got %r" % g
        )


@lru_cache(maxsize=_CACHE_SIZE)
def g_crit(g):
    """Critical cross-coupling: the z at which the meeting point destabilises.

    Unique root in z of the stability indicator, found above the lower
    bound sqrt(1 + g^2) with a geometrically grown bracket.
    """
    g = float(g)
    _check_g(g)

    def h(z):
        return stability_indicator(TwoSpeciesParams(g, z))

    lo = math.sqrt(1.0 + g * g)
    hi = _g_crit_top(g)
    while h(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - indicator is eventually negative
            raise DomainError("failed to bracket g_crit for g=%g" % g)
    return brentq(h, lo, hi, xtol=1e-15)


@lru_cache(maxsize=_CACHE_SIZE)
def sigma_c(params):
    """Turning point of the branch potentials, defined for z > g_crit(g).

    Root of ln(1 + g*sigma) + (g+z)*sigma - ln(z^2 - g^2) = 0, the
    log-space form of (1 + g*sigma)*exp((g+z)*sigma) = z^2 - g^2.
    The root lies above sigma_z, so a tolerance of 1e-13*sigma_z (capped
    at 1e-15) resolves it however small it is.
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
    return brentq(h, 1e-300, hi, xtol=min(1e-15, 1e-13 * sigma_z(params)))


@lru_cache(maxsize=_CACHE_SIZE)
def phi_crit(params):
    """Potential magnitude at the turning point (positive).

    Equals phi_B(sigma_c) = -phi_A(sigma_c); the A-branch potential
    decreases from 0 to -phi_crit on [sigma_z, sigma_c] and increases
    back through it beyond.
    """
    return -phi_on_branch(sigma_c(params), params, "A")


def _pair_state(sigma, params):
    """(E, s, f_tilde) of the pair at sigma, from one exp and one sqrt.

    E = exp(-(g+z)*sigma) = c1*c2, s = sqrt(sigma^2 - 4*E) = |c1 - c2|
    and f_tilde = 1 + g*sigma + (g^2 - z^2)*E, which vanishes at the
    turning point sigma_c.  Every closed form of the pair reads them
    from here.  Sub-threshold rule: a negative discriminant at a sigma
    within relative slack _ENDPOINT_SLACK of sigma_z is roundoff and
    gives s = 0; a sigma further below sigma_z raises DomainError.  A
    float sigma gives numpy float scalars, the same bits as a
    one-element array at a fraction of its cost.
    """
    g, z = params.g, params.z
    scalar = isinstance(sigma, float)
    if not scalar:
        sigma = np.asarray(sigma, dtype=float)
    E = np.exp(-(g + z) * sigma)
    d = sigma * sigma - 4.0 * E
    bad = d < 0.0
    if (bad if scalar else bad.any()):
        sz = sigma_z(params)
        if (bad & (sigma < sz * (1.0 - _ENDPOINT_SLACK))).any():
            raise DomainError(
                "sigma below the admissible threshold sigma_z=%.17g" % sz
            )
        d = np.where(bad, 0.0, d)
    return E, np.sqrt(d), 1.0 + g * sigma + (g * g - z * z) * E


def concentrations(sigma, params, branch):
    """Concentration pair (c1, c2) at total concentration sigma.

    Branch "A" takes c1 >= c2; branch "B" swaps the two.  The smaller
    concentration is evaluated as 2*E/(sigma + s) with E = c1*c2, which
    stays accurate when the pair is extremely lopsided.
    """
    _check_branch(branch)
    sigma = np.asarray(sigma, dtype=float)
    E, s, _ = _pair_state(sigma, params)
    big = 0.5 * (sigma + s)
    small = 2.0 * E / (sigma + s)
    if branch == "A":
        return big, small
    return small, big


def c_diff(sigma, params, branch):
    """Concentration difference c1 - c2 on the requested branch."""
    _check_branch(branch)
    s = _pair_state(sigma, params)[1]
    return s if branch == "A" else -s


def phi_on_branch(sigma, params, branch):
    """Electric potential as a function of sigma along one branch.

    phi_A = [ln(c1) + (g+z)*sigma/2 + (g-z)*(c1-c2)/2] / q with c1 the
    larger concentration (summed as _phi_a does); the branches are mirror
    images, phi_B(sigma) = -phi_A(sigma), and branch B returns exactly
    that negation.
    """
    _check_branch(branch)
    sigma = np.asarray(sigma, dtype=float)
    E, s, _ = _pair_state(sigma, params)
    out = _phi_a(sigma, params, E, s)
    if branch == "B":
        out = -out
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
    _, s, tilde = _pair_state(sigma, params)
    with np.errstate(divide="ignore"):
        out = tilde / (params.q * s)
    if branch == "B":
        out = -out
    return out if out.ndim else float(out)


def _phi_a(sigma, params, E, s):
    """phi on branch A from the pair state E, s at sigma (array friendly).

    (g+z)*sigma/2 + (g-z)*s/2 is summed as g*big/2 + 2*z*E/big with
    big = sigma + s = 2*c1 (sigma - s = 4*E/big): two positive terms, so
    nothing cancels when g << z.
    """
    g, z, q = params.g, params.z, params.q
    big = sigma + s
    return (np.log(0.5 * big) + 0.5 * g * big + 2.0 * z * E / big) / q


def _phi_a_and_slope(sigma, params):
    """phi_A and its slope f_tilde/(q*s) in sigma, from one exp and one sqrt.

    The slope is infinite at sigma_z (s = 0) and a 0/0 slope is nan, silently
    under _invert_monotone's np.errstate, for its bracket logic to reject.
    """
    E, s, tilde = _pair_state(sigma, params)
    return _phi_a(sigma, params, E, s), tilde / (params.q * s)


def _runs(flat):
    """(run_values, back) of a 1-D array: flat == run_values[back].

    run_values holds the first value of each run of equal consecutive
    elements (0.0 and -0.0 are equal, nan never is), in order.  One
    element, a root search's scalar call, is one run without array work.
    """
    if flat.size == 1:
        return flat, np.zeros(1, dtype=np.intp)
    starts = np.empty(flat.size, dtype=bool)
    starts[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    back = starts.cumsum()
    back -= 1
    return flat[starts], back


def _invert_monotone(target, params, lo, hi, increasing):
    """Solve phi_A(sigma) = target for sigma on [lo, hi], elementwise.

    hi=None grows the upper ends lo + 1, lo + 2, lo + 4, ... until phi_A
    reaches the largest target, and gives each target the first of them
    whose phi_A reaches it; DomainError if phi_A turns non-finite first.
    Safeguarded Newton on per-element brackets, bisecting where a step
    leaves the bracket.  An element is done once its bracket is at most
    tol = 1e-14*max(1, hi) wide, or its Newton step stays in the bracket
    (ends included) and moves at most tol, or |phi_A - target| is at the
    rounding level 8*eps*max(1, |target|) of phi_A.  NonconvergenceError
    if any element is not done in _INVERSE_ITERS.

    An element's iterates depend on its own target only, so an array
    gives bit for bit what its elements give one at a time.  Each run of
    equal consecutive values of target (_runs) is iterated on once and
    the result scattered back to every element of the run: solved
    profiles, whose outer region repeats the bulk root at almost every
    node in one long run, need a few hundred inversions instead of one
    per node.  Up to _FLOAT_RUNS runs (a root search's scalar calls) are
    iterated one at a time on floats, more (Newton residuals, profiles)
    together on arrays; both loops perform the same IEEE operations in
    the same order, with numpy's exp and log, so the choice changes no
    bit of the result, only its cost.
    """
    target = np.asarray(target, dtype=float)
    shape = target.shape
    if not target.size:
        return np.empty(shape)
    target, back = _runs(target.ravel())
    # tops grown past the float range overflow; s = 0 and f_tilde = 0
    # give the slopes inf and nan that the bracket logic rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if hi is None:
            largest, tops = target.max(), [lo + 1.0]
            phis = [_phi_a_and_slope(tops[0], params)[0]]
            while phis[-1] < largest:
                tops.append(lo + 2.0 * (tops[-1] - lo))
                phis.append(_phi_a_and_slope(tops[-1], params)[0])
            if not math.isfinite(phis[-1]):
                raise DomainError(
                    "potential %.17g beyond phi_A's float range" % largest
                )
            # phi_A increases on these segments
            hi = np.array(tops)[np.searchsorted(phis, target)]
        if target.size <= _FLOAT_RUNS:
            out = [
                _invert_one(t, params, lo, h, increasing)
                for t, h in zip(target.tolist(), np.full(target.size, hi).tolist())
            ]
            unconverged = sum(map(math.isnan, out))
            out = np.array(out)
        else:
            out, unconverged = _invert_arrays(target, params, lo, hi, increasing)
    if unconverged:
        raise NonconvergenceError("segment inverse: %d of %d potential runs "
                                  "unconverged" % (unconverged, out.size))
    return out[back].reshape(shape)


def _invert_one(target, params, lo, hi, increasing):
    """_invert_monotone's iteration for one float target, or nan if not done.

    _invert_arrays restricted to one element: the same operations in the
    same order, so the same bits.  The slope stays a numpy float, so that
    resid/slope divides as numpy does (inf or nan under the caller's
    np.errstate, not ZeroDivisionError) at s = 0 and f_tilde = 0.
    """
    x = 0.5 * (lo + hi)
    rounding = _ROUNDING * max(1.0, abs(target))
    for _ in range(_INVERSE_ITERS):
        phi, slope = _phi_a_and_slope(x, params)
        resid = float(phi - target)
        if resid < 0.0 if increasing else resid > 0.0:
            lo = x
        else:
            hi = x
        step = float(x - resid / slope)
        tol = 1e-14 * max(1.0, hi)
        settled = lo <= step <= hi and abs(step - x) <= tol
        level = abs(resid) <= rounding
        if settled or lo < step < hi:  # False for nan and inf steps
            x = step
        elif not level:
            x = 0.5 * (lo + hi)
        if settled or level or hi - lo <= tol:
            return x
    return math.nan


def _invert_arrays(target, params, lo, hi, increasing):
    """(sigma, unconverged count) of _invert_monotone, iterated on arrays."""
    out, todo = np.empty(target.size), np.arange(target.size)
    lo, hi = (np.full(target.size, end, dtype=float) for end in (lo, hi))
    x = 0.5 * (lo + hi)
    rounding = _ROUNDING * np.maximum(1.0, np.abs(target))
    for _ in range(_INVERSE_ITERS):
        phi, slope = _phi_a_and_slope(x, params)
        resid = phi - target
        below = resid < 0.0 if increasing else resid > 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = x - resid / slope
        tol = 1e-14 * np.maximum(1.0, hi)
        settled = (step >= lo) & (step <= hi) & (np.abs(step - x) <= tol)
        level = np.abs(resid) <= rounding
        inside = (step > lo) & (step < hi)  # False for nan and inf steps
        x = np.where(settled | inside, step, np.where(level, x, 0.5 * (lo + hi)))
        done = settled | level | (hi - lo <= tol)
        if not done.any():
            continue
        out[todo[done]] = x[done]
        if done.all():
            return out, 0
        keep = ~done
        todo, target, rounding, lo, hi, x = (
            a[keep] for a in (todo, target, rounding, lo, hi, x)
        )
    return out, todo.size


def _clamp_to(value, lo, hi, scale):
    """Clamp values within roundoff slack of [lo, hi]; BranchMismatchError beyond."""
    slack = _ENDPOINT_SLACK * max(1.0, abs(scale))
    value = np.asarray(value, dtype=float)
    if np.count_nonzero((value < lo - slack) | (value > hi + slack)):
        raise BranchMismatchError(
            "potential outside the segment range [%.17g, %.17g] (of -phi on "
            "B segments)" % (lo, hi)
        )
    return np.clip(value, lo, hi)


def _finite_potentials(phi):
    """phi as a float array; DomainError if any entry is nan or infinite."""
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
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
        phi, segment = -phi, "A" + segment[1]

    sc = sigma_c(params)  # raises SubcriticalError when no turning point
    pac = phi_crit(params)
    if segment == "A2":
        phi = _clamp_to(phi, -pac, 0.0, pac)
        lo, hi, increasing = sigma_z(params), sc, False
    else:
        phi = _clamp_to(phi, -pac, np.inf, pac)
        lo, hi, increasing = sc, None, True
    # both segments end at the turning point, where the inverse has
    # infinite slope; pin that end exactly and invert only the rest (the
    # end is the segment's lowest potential, so it never sets hi)
    out = np.full(phi.shape, sc)
    free = phi != -pac
    if np.count_nonzero(free):
        out[free] = _invert_monotone(phi[free], params, lo, hi, increasing)
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


def c_diff_and_slope_on_segment(phi, params, segment):
    """(c1 - c2, its derivative in phi) on "A1" or "B1", from one inversion.

    The difference is +s on "A1" and -s on "B1"; its derivative on both
    is the closed form q*(sigma + 2*(g+z)*E) / |f_tilde| at sigma(phi)
    (the sign flips of the difference and of the inverse cancel, so the
    composition is increasing on either segment).  f_tilde >= 0 on the
    outer segments and vanishes at the turning point, where the pinned
    sigma_c leaves it a rounding-level number of either sign; the
    absolute value keeps the derivative there large and positive (or
    +inf).  Only these outer segments enter the reduced Poisson equation.
    """
    if segment not in ("A1", "B1"):
        raise DomainError("segment must be 'A1' or 'B1', got %r" % (segment,))
    g, z, q = params.g, params.z, params.q
    sig = inverse_sigma(phi, params, segment)  # a float for a float phi
    E, s, tilde = _pair_state(sig, params)
    with np.errstate(divide="ignore"):
        slope = q * (sig + 2.0 * (g + z) * E) / np.abs(tilde)
    return (s if segment == "A1" else -s), (slope if slope.ndim else float(slope))


def c_diff_on_segment(phi, params, segment):
    """Concentration difference c1 - c2 composed with a segment inverse.

    Only the outer segments "A1" (difference +s, increasing in phi) and
    "B1" (difference -s, also increasing in phi) are meaningful here;
    they are the branches entering the reduced Poisson equation.
    """
    return c_diff_and_slope_on_segment(phi, params, segment)[0]


def c_diff_segment_derivative(phi, params, segment):
    """d/dphi of the composed concentration difference on "A1" or "B1".

    See c_diff_and_slope_on_segment for the closed form.
    """
    return c_diff_and_slope_on_segment(phi, params, segment)[1]


def pressure(sigma, params):
    """Ionic pressure G(sigma) = c1 + c2 + (g/2)*(c1^2 + c2^2) + z*c1*c2.

    In sigma alone, G = sigma + g*sigma^2/2 - (g - z)*E with
    E = exp(-(g+z)*sigma) = c1*c2.  Its derivative
    1 + g*sigma + (g^2 - z^2)*E is q*(c1 - c2)*dphi/dsigma on either
    branch, so G composed with an outer segment inverse is a primitive
    in phi of the pair's charge density q*(c1 - c2) on that segment.
    """
    g, z = params.g, params.z
    sigma = np.asarray(sigma, dtype=float)
    out = sigma + 0.5 * g * sigma * sigma - (g - z) * _pair_state(sigma, params)[0]
    return out if out.ndim else float(out)


def critical_set(params):
    """All critical constants of a pair in one bundle."""
    gc = g_crit(params.g)
    if params.z > gc:
        return CriticalSet(sigma_z(params), gc, sigma_c(params), phi_crit(params))
    return CriticalSet(sigma_z(params), gc, None, None)
