"""Singularly perturbed two-point boundary value solver.

Solves eps * phi'' = f(phi) on (-1, 1) with Robin data

    phi(1) + eta * phi'(1)  = phi0_right
    phi(-1) - eta * phi'(-1) = phi0_left

on a uniform grid with second-order central differences inside and
second-order one-sided stencils for the boundary derivatives, by damped
Newton iteration at the target eps; f is increasing, so the discrete
problem has one solution and Newton needs no continuation in eps to
reach it.  _robin_row alone holds the Robin row; the residual, the
Newton step and the stability operator all read it.  Each Newton step
is one LAPACK gtsv solve of a tridiagonal matrix written directly in
its (3, n) storage, the Robin corner of each end row (the one-sided
stencil reaches two nodes in) already removed by one row operation, and
one segment inversion per steric pair: each residual evaluation takes f
and f' together, and the Jacobian reuses the f' of the accepted
iterate.  The right-hand side evaluates f and f' once per run of equal
consecutive potentials: outside the two layers nearly every node holds
the bulk root, so at eps=1e-6 a residual on 22,640 nodes evaluates f
per run, at 682-690 potentials, and at eps=1e-8 on 226,320 nodes at
about as many.  The companion routines verify the qualitative
structure the maximum principle forces on the solution: classification
against the bulk root, pointwise bounds, an exponential interior
envelope, boundary layer limits (from the closed-form primitive of f
when the right-hand side carries one, by adaptive Simpson quadrature of
f otherwise), linearised stability (the bottom eigenvalue of the
symmetrised tridiagonal operator, by shifted inverse iteration whose
lower bound a LAPACK pttrf factorisation certifies), and unbounded
growth when f has no root.  The three LAPACK routines, gtsv, pttrf and
pttrs, are the f2py wrappers of scipy's compiled extension
scipy/linalg/_flapack, loaded from its file (_load_flapack), so that
importing the package imports no scipy module.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DomainEscapeError,
    InconsistentProfileError,
    NonconvergenceError,
    RootPresentError,
    SignError,
)
from .quadrature import _REL_TOL, adaptive_simpson
from .roots import brentq

__all__ = [
    "RobinBC",
    "BvpProblem",
    "BvpSolution",
    "default_grid_size",
    "solve",
    "classify_solution",
    "bounds_check",
    "envelope_check",
    "boundary_layer_limits",
    "linearized_smallest_eigenvalue",
    "unbounded_growth_probe",
]

_NEWTON_MAX_ITER = 200
_DAMPING_FLOOR = 2.0**-20
_MAX_CONSECUTIVE_CLAMPS = 5
# P(s) - P(c) carries a rounding error of up to 18 eps * max(1, |P(c)|),
# measured on the tests' three- and four-species configurations, whatever
# |s - c|; bound it by 32 eps.  Where that exceeds the quadrature's
# relative tolerance _REL_TOL of the integral, the quadrature, whose
# rounding shrinks with |s - c|, takes the integral instead.
_PRIMITIVE_ROUNDING = 32.0 * np.finfo(float).eps
# Shifted inverse iteration for the stability eigenvalue: stop once the
# certified bracket is 4 ulp * ||T|| wide, the accuracy of LAPACK stebz
# bisection at its default tolerance; NonconvergenceError after
# _EIGEN_MAX_ITER solves.
_EIGEN_ULP = np.finfo(float).eps
_EIGEN_MAX_ITER = 100


def _load_flapack():
    """scipy's compiled LAPACK wrapper _flapack, loaded from its own file.

    Importing it through scipy.linalg would run that package's __init__,
    which under scipy 1.17 loads about 320 more modules, two thirds of
    the package's import time.  Creating the module registers it in
    sys.modules under the bare name "_flapack"; that entry is dropped,
    so the package claims no top-level module name.
    """
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy.submodule_search_locations[0], "linalg")]
    )
    if spec is None:
        raise ImportError(
            "pnp_steric needs scipy>=1.11 with its compiled LAPACK wrapper "
            "scipy/linalg/_flapack, which was not found"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules.pop(spec.name, None)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs


@dataclass(frozen=True)
class RobinBC:
    """Robin boundary data; eta = 0 reduces to Dirichlet conditions.

    Large eta is the Neumann limit phi' = 0, whose solution is the bulk
    root: the profile classifies as "constant" whatever the data.
    """

    phi0_left: float
    phi0_right: float
    eta: float = 0.0

    def __post_init__(self):
        for name in ("phi0_left", "phi0_right", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("%s must be finite" % name)
        if self.eta < 0:
            raise DomainError("eta must be nonnegative, got %g" % self.eta)


@dataclass(frozen=True)
class BvpProblem:
    """eps * phi'' = f(phi) with Robin data; n_nodes=None picks the grid."""

    epsilon: float
    rhs: object
    bc: RobinBC
    n_nodes: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError("epsilon must be a positive finite number")
        if self.n_nodes is not None and self.n_nodes < 5:
            raise DomainError("n_nodes must be at least 5")


@dataclass
class BvpSolution:
    """Discrete solution; iterations counts the Newton steps of the solve."""

    nodes: np.ndarray
    values: np.ndarray
    residual_norm: float
    iterations: int
    classification: str
    epsilon: float
    bc: RobinBC


def default_grid_size(epsilon, alpha0):
    """Uniform grid size resolving layers of width sqrt(epsilon/alpha0).

    At least 20 nodes per layer width, never fewer than 201 nodes.
    """
    if alpha0 <= 0:
        return 201
    return max(201, 20 * math.ceil(math.sqrt(alpha0 / epsilon)))


def _sample_window(rhs, bc):
    """Potential window the solution can attain: data and root hull."""
    vals = [bc.phi0_left, bc.phi0_right]
    if rhs.root is not None:
        vals.append(rhs.root)
    return min(vals), max(vals)


def _min_derivative(rhs, lo, hi):
    return float(np.min(rhs.derivative(np.linspace(lo, hi, 401))))


def _robin_row(h, eta):
    """(a, b, d): the Robin row a*phi[0] + b*phi[1] + d*phi[2] = phi0_left.

    phi(-1) - eta*phi'(-1) with the one-sided stencil (-3, 4, -1)/(2h);
    the right end phi(1) + eta*phi'(1) is its mirror image, the same
    coefficients on phi[-1], phi[-2], phi[-3].
    """
    k = eta / (2.0 * h)
    return 1.0 + 3.0 * k, -4.0 * k, k


def _residual_rows(phi, h, eps, f, bc):
    """Discrete residual, given f at the interior nodes phi[1:-1]."""
    r = np.empty_like(phi)
    r[1:-1] = eps * (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / (h * h) - f
    a, b, d = _robin_row(h, bc.eta)
    r[0] = a * phi[0] + b * phi[1] + d * phi[2] - bc.phi0_left
    r[-1] = a * phi[-1] + b * phi[-2] + d * phi[-3] - bc.phi0_right
    return r


def _newton_step(h, eps, fp, bc, res):
    """Newton step: solve J x = -res, J the Jacobian of _residual_rows.

    J is tridiagonal but for the Robin corners J[0, 2] = J[n-1, n-3] = d.
    Row 0 minus m = d/c times row 1 (c = eps/h^2) clears the first, the
    mirror operation the second (m = 0 for eta = 0), and LAPACK gtsv
    solves the rest in place: ab holds the three diagonals as
    ab[1 + i - j, j] = J[i, j], superdiagonal ab[0, 1:], diagonal ab[1]
    and subdiagonal ab[2, :-1].  A non-finite entry of J or res raises
    DomainError, a singular J NonconvergenceError.
    """
    c = eps / (h * h)
    a, b, d = _robin_row(h, bc.eta)
    m = d / c
    ab = np.empty((3, res.size))
    ab[0] = ab[2] = c
    ab[1, 1:-1] = -2.0 * c - fp
    ab[1, 0] = ab[1, -1] = a - m * c
    ab[0, 1] = b - m * ab[1, 1]
    ab[2, -2] = b - m * ab[1, -2]
    x = -res
    x[0] -= m * x[1]
    x[-1] -= m * x[-2]
    if not (np.isfinite(ab).all() and np.isfinite(x).all()):
        raise DomainError("Newton system has a non-finite entry")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], x, 1, 1, 1, 1)[3:]
    if info > 0:
        raise NonconvergenceError(
            "Newton matrix is singular: LAPACK gtsv found a zero pivot in row %d"
            % info
        )
    return x


def _newton(phi, h, eps, rhs, bc, domain, tol):
    """Damped Newton on the residual; returns (phi, residual norm, iterations).

    One segment inversion per Newton step: each evaluation of the
    residual takes f and f' together (rhs.value_and_derivative), and the
    Jacobian reuses the f' of the accepted iterate.
    """
    lo, hi = domain
    clamps = 0
    # The central-difference rows amplify rounding by eps/h^2 and the Robin
    # rows by eta/h; below that floor the residual is pure noise.
    noise = 50.0 * np.finfo(float).eps * max(eps / (h * h), bc.eta / h)

    def residual(phi):
        f, fp = rhs.value_and_derivative(phi[1:-1])
        return _residual_rows(phi, h, eps, f, bc), fp

    res, fp = residual(phi)
    norm = float(np.max(np.abs(res)))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        floor = noise * max(1.0, float(np.max(np.abs(phi))))
        if norm <= max(tol, floor):
            return phi, norm, it - 1
        delta = _newton_step(h, eps, fp, bc, res)
        lam = 1.0
        while True:
            trial = phi + lam * delta
            clipped = False
            if np.any(trial < lo):
                trial = np.maximum(trial, lo)
                clipped = True
            if np.any(trial > hi):
                trial = np.minimum(trial, hi)
                clipped = True
            trial_res, trial_fp = residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm <= (1.0 - 1e-4 * lam) * norm or lam <= _DAMPING_FLOOR:
                break
            lam *= 0.5
        clamps = clamps + 1 if clipped else 0
        if clamps >= _MAX_CONSECUTIVE_CLAMPS:
            raise DomainEscapeError(
                "Newton iterates pinned to the right-hand side domain "
                "boundary %d times in a row" % clamps
            )
        phi, res, fp, norm = trial, trial_res, trial_fp, trial_norm
    raise NonconvergenceError(
        "Newton stalled at residual %.3e (tolerance %.3e) after %d iterations"
        % (norm, tol, _NEWTON_MAX_ITER)
    )


def solve(problem, initial=None):
    """Solve the boundary value problem; returns a BvpSolution.

    One damped Newton iteration at the target eps, on the grid of
    default_grid_size unless n_nodes is given.  The initial guess
    defaults to the bulk root (or the linear interpolant of the boundary
    data when the right-hand side has none).
    """
    rhs, bc, eps = problem.rhs, problem.bc, problem.epsilon
    lo, hi = rhs.domain
    for name, val in (("phi0_left", bc.phi0_left), ("phi0_right", bc.phi0_right)):
        if not (lo <= val <= hi):
            raise DomainError(
                "%s=%g outside the right-hand side domain [%g, %g]"
                % (name, val, lo, hi)
            )

    wlo, whi = _sample_window(rhs, bc)
    alpha0 = _min_derivative(rhs, wlo, whi)
    n = problem.n_nodes or default_grid_size(eps, alpha0)
    nodes = np.linspace(-1.0, 1.0, n)
    h = nodes[1] - nodes[0]

    if initial is not None:
        phi = np.array(initial, dtype=float)
        if phi.shape != nodes.shape:
            raise DomainError("initial guess must have %d nodes" % n)
    elif rhs.root is not None:
        phi = np.full(n, float(rhs.root))
    else:
        phi = bc.phi0_left + (nodes + 1.0) * (bc.phi0_right - bc.phi0_left) / 2.0

    f_data = rhs(np.array([bc.phi0_left, bc.phi0_right]))
    fscale = max(1.0, float(np.max(np.abs(f_data))))
    tol = 1e-10 * fscale

    phi, norm, iters = _newton(phi, h, eps, rhs, bc, (lo, hi), tol)

    sol = BvpSolution(nodes, phi, norm, iters, "", eps, bc)
    sol.classification = classify_solution(sol, rhs.root)
    return sol


def classify_solution(solution, c):
    """Label the discrete profile relative to the bulk root c.

    Returns one of "constant", "increasing", "decreasing",
    "interior-min", "interior-max".  The admissible patterns are exactly
    those a maximum principle allows: monotone profiles when the
    boundary values straddle c, a single interior extremum that never
    crosses c when they sit on the same side.  Anything else raises
    InconsistentProfileError.  Pass c=None for a shape-only label.
    """
    v = solution.values
    slack = 1e-8 * max(1.0, float(np.max(np.abs(v))))
    d = np.diff(v)
    if float(np.max(v) - np.min(v)) <= slack:
        return "constant"
    if np.all(d >= -slack):
        return "increasing"
    if np.all(d <= slack):
        return "decreasing"
    k = int(np.argmin(v))
    if np.all(d[:k] <= slack) and np.all(d[k:] >= -slack):
        if c is not None and v[k] < c - slack:
            raise InconsistentProfileError(
                "interior minimum dips below the bulk root"
            )
        return "interior-min"
    k = int(np.argmax(v))
    if np.all(d[:k] >= -slack) and np.all(d[k:] <= slack):
        if c is not None and v[k] > c + slack:
            raise InconsistentProfileError(
                "interior maximum rises above the bulk root"
            )
        return "interior-max"
    raise InconsistentProfileError(
        "profile is neither monotone nor single-humped"
    )


def bounds_check(solution, c):
    """Pointwise bounds min(data, c) <= phi <= max(data, c); returns a report."""
    bc = solution.bc
    lo = min(bc.phi0_left, bc.phi0_right, c)
    hi = max(bc.phi0_left, bc.phi0_right, c)
    slack = 1e-8 * max(1.0, abs(lo), abs(hi))
    vmin = float(np.min(solution.values))
    vmax = float(np.max(solution.values))
    return {
        "lower": lo,
        "upper": hi,
        "min": vmin,
        "max": vmax,
        "satisfied": (vmin >= lo - slack) and (vmax <= hi + slack),
    }


def envelope_check(solution, rhs, c):
    """Exponential interior envelope (phi - c)^2 <= A^2 * (decaying edges).

    A is the larger boundary offset |phi0 - c|; the decay rate is
    sqrt(2*alpha0/eps) with alpha0 the smallest slope of f over the
    attained potential range.  Returns a report with the worst margin.
    """
    v = solution.values
    x = solution.nodes
    bc = solution.bc
    lo = min(float(np.min(v)), c)
    hi = max(float(np.max(v)), c)
    alpha0 = _min_derivative(rhs, lo, hi)
    if alpha0 <= 0:
        raise DomainError(
            "envelope requires a strictly increasing right-hand side "
            "over the attained range (alpha0 = %g)" % alpha0
        )
    amp = max(abs(bc.phi0_left - c), abs(bc.phi0_right - c), 0.0)
    rate = math.sqrt(2.0 * alpha0 / solution.epsilon)
    envelope = amp * amp * (np.exp(-(1.0 + x) * rate) + np.exp(-(1.0 - x) * rate))
    margin = (v - c) ** 2 - envelope
    worst = float(np.max(margin))
    return {
        "alpha0": alpha0,
        "amplitude": amp,
        "rate": rate,
        "worst_margin": worst,
        "satisfied": worst <= 1e-10 * max(1.0, amp * amp),
    }


def boundary_layer_limits(rhs, c, bc, gamma):
    """Limiting boundary values in the vanishing-eps Robin regime.

    With eta = sqrt(eps/(2*gamma)), the boundary value at each end tends
    to the s between c and the datum solving

        gamma * (phi0 - s)^2 = integral of f from c to s.

    Both sides are monotone in s on that interval, so the root is
    unique.  The integral is P(s) - P(c) when rhs carries a primitive P
    (rhs.assemble builds it in closed form: one segment inversion per
    pair and evaluation), else adaptive Simpson quadrature of f.  The
    quadrature also takes integrals so close to 0 that the rounding of
    P(s) - P(c) would exceed its relative tolerance (data within about
    1e-3 of c).  Either way s is checked against the domain of rhs.
    gamma must be finite and nonnegative (DomainError); gamma = 0, the
    Neumann limit, gives (c, c).  A datum equal to c raises SignError
    (no layer to match).
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise DomainError("gamma must be finite and nonnegative, got %r" % (gamma,))

    def quadrature(s):
        return adaptive_simpson(lambda t: float(rhs(t)), c, s)

    if rhs.primitive is None:
        integral = quadrature
    else:
        base = float(rhs.antiderivative(c))
        floor = _PRIMITIVE_ROUNDING * max(1.0, abs(base)) / _REL_TOL

        def integral(s):
            closed = float(rhs.antiderivative(s)) - base
            return closed if abs(closed) >= floor else quadrature(s)

    def limit(phi0):
        if phi0 == c:
            raise SignError("boundary datum coincides with the bulk root")

        def mismatch(s):
            return gamma * (phi0 - s) ** 2 - integral(s)

        a, b = (c, phi0) if phi0 > c else (phi0, c)
        return brentq(mismatch, a, b, xtol=1e-13)

    return limit(bc.phi0_left), limit(bc.phi0_right)


def _factor_shifted(main, off, shift, d, e):
    """Factor T - shift*I in place into (d, e) by LAPACK pttrf; True iff positive definite.

    pttrf succeeds iff every pivot of the LDL^T recurrence is positive,
    the same recurrence whose negative pivots count the eigenvalues
    below the shift in Sturm bisection: success certifies shift < lambda_1.
    """
    np.subtract(main, shift, out=d)
    e[:] = off
    return dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2] == 0


def _smallest_tridiagonal_eigenvalue(main, off, start):
    """Bottom eigenvalue of the symmetric tridiagonal T = (main, off).

    Shifted inverse iteration inside a bracket sigma < lambda_1 <= rho.
    sigma holds only while pttrf factors T - sigma*I (_factor_shifted);
    it starts at start, or at stebz's widened Gerschgorin bound when
    that does not factor.  rho is the smallest of the Rayleigh quotients
    of the iterates and the shifts that failed to factor.  Each step
    solves (T - sigma*I) y = v with the factors (pttrs) and then tries to
    raise sigma to rho - r^2/(rho - sigma), rho - r and the bracket's
    midpoint in turn, r the residual norm of the iterate: the first that
    factors becomes sigma, one that does not becomes rho.  The midpoint
    halves the bracket when the others do not apply.  Returns the
    bracket's midpoint once it is at most 4 ulp * ||T|| wide, ||T|| the
    larger magnitude of the two Gerschgorin bounds as in stebz;
    NonconvergenceError after _EIGEN_MAX_ITER steps.  Certification is
    what keeps the iteration on lambda_1 when the spectrum is clustered,
    where plain Rayleigh quotient iteration can settle on lambda_2.

    The steps allocate nothing: one (7, n) workspace holds the held
    factors, a trial's factors, the iterate v, w = (T - sigma*I) v and
    scratch.
    """
    n = main.size
    radius = np.zeros(n)
    radius[:-1] = np.abs(off)
    radius[1:] += np.abs(off)
    lower = float(np.min(main - radius))
    rho = float(np.max(main + radius))
    norm = max(abs(lower), abs(rho))
    tol = 4.0 * _EIGEN_ULP * norm
    work = np.empty((7, n))
    held, spare = (work[0], work[1, :-1]), (work[2], work[3, :-1])
    v, w, scratch = work[4], work[5], work[6]
    sigma = start
    if not _factor_shifted(main, off, sigma, *held):
        sigma = lower - 2.1 * n * _EIGEN_ULP * norm
        if not _factor_shifted(main, off, sigma, *held):
            raise NonconvergenceError(
                "no shift below the Gerschgorin bound %.17g factors" % lower
            )
    v.fill(1.0)
    for _ in range(_EIGEN_MAX_ITER):
        dpttrs(*held, v, overwrite_b=1)
        v /= np.linalg.norm(v)
        # (T - sigma*I) v: the quotient in the shifted operator keeps its
        # rounding at the size of rho - sigma, not of ||T||
        np.subtract(main, sigma, out=w)
        w *= v
        np.multiply(off, v[1:], out=scratch[1:])
        w[:-1] += scratch[1:]
        np.multiply(off, v[:-1], out=scratch[1:])
        w[1:] += scratch[1:]
        vv = float(v @ v)
        gap = float(v @ w) / vv
        rho = min(rho, sigma + gap)
        if rho - sigma <= tol:
            break
        np.multiply(v, gap, out=scratch)
        np.subtract(w, scratch, out=scratch)
        r = float(np.linalg.norm(scratch)) / math.sqrt(vv)
        for trial in (rho - r * r / (rho - sigma), rho - r, 0.5 * (sigma + rho)):
            if not sigma < trial < rho:
                continue
            if _factor_shifted(main, off, trial, *spare):
                sigma, held, spare = trial, spare, held
                break
            rho = trial
        if rho - sigma <= tol:
            break
    else:
        raise NonconvergenceError(
            "stability eigenvalue bracket [%.17g, %.17g] still wider than %.3e "
            "after %d inverse iteration steps" % (sigma, rho, tol, _EIGEN_MAX_ITER)
        )
    return 0.5 * (sigma + rho)


def linearized_smallest_eigenvalue(solution, rhs):
    """Smallest eigenvalue of -eps v'' + f'(phi) v with homogeneous data.

    The homogeneous Robin rows (_robin_row) eliminate the boundary
    values, v0 = -(b*v1 + d*v2)/a and its mirror, leaving an
    (n-2) x (n-2) tridiagonal operator with main[0] += c*b/a and the
    off-diagonal pairs (-c*(1 - d/a), -c) at its ends, c = eps/h^2 and
    0 <= d/a < 1/3.  Each pair has a positive product, so a diagonal
    similarity makes the operator symmetric with off-diagonal
    -c*sqrt(1 - d/a) there.  Its bottom eigenvalue is found by certified
    shifted inverse iteration (_smallest_tridiagonal_eigenvalue) to
    within 4 ulp of the operator's norm, starting from the lower bound
    min f' (the symmetrised Robin Laplacian is positive semidefinite).
    A non-finite f' on the profile (a potential at the turning point,
    where f' is infinite) raises DomainError.
    """
    phi = solution.values
    x = solution.nodes
    h = x[1] - x[0]
    eps = solution.epsilon
    n = phi.size
    fp = np.asarray(rhs.derivative(phi[1:-1]), dtype=float)
    bad = np.count_nonzero(~np.isfinite(fp))
    if bad:
        raise DomainError(
            "f' is not finite at %d of the %d interior nodes" % (bad, fp.size)
        )

    c = eps / (h * h)
    a, b, d = _robin_row(h, solution.bc.eta)
    main = 2.0 * c + fp
    main[0] += c * b / a
    main[-1] += c * b / a
    off = np.full(n - 3, -c)
    off[0] = off[-1] = -c * math.sqrt(1.0 - d / a)
    return _smallest_tridiagonal_eigenvalue(main, off, float(np.min(fp)))


def unbounded_growth_probe(rhs, epsilons):
    """Document sup-norm blowup when f has no root.

    Verifies f keeps one sign on (a finite window of) its domain, then
    solves the problem with zero Dirichlet data on the default grid for
    each eps and reports sup norms and their consecutive growth factors
    as eps shrinks.  A sign change raises RootPresentError: bounded
    solutions exist in that case.
    """
    lo, hi = rhs.domain
    wlo = lo if math.isfinite(lo) else -50.0
    whi = hi if math.isfinite(hi) else 50.0
    sample = np.asarray(rhs(np.linspace(wlo, whi, 2001)))
    if float(np.min(sample)) < 0.0 < float(np.max(sample)):
        raise RootPresentError(
            "right-hand side changes sign: the probe hypothesis fails"
        )
    bc = RobinBC(0.0, 0.0)
    eps_sorted = sorted(epsilons, reverse=True)
    norms = []
    for eps in eps_sorted:
        sol = solve(BvpProblem(eps, rhs, bc))
        norms.append(float(np.max(np.abs(sol.values))))
    growth = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
    return {
        "epsilons": eps_sorted,
        "sup_norms": norms,
        "growth_factors": growth,
    }
