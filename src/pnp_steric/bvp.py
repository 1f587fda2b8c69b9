"""Singularly perturbed two-point boundary value solver.

Solves eps * phi'' = f(phi) on (-1, 1) with Robin data

    phi(1) + eta * phi'(1)  = phi0_right
    phi(-1) - eta * phi'(-1) = phi0_left

on a uniform grid with second-order central differences inside and
second-order one-sided stencils for the boundary derivatives, by damped
Newton iteration at the target eps; f is increasing, so the discrete
problem has one solution and Newton needs no continuation in eps to
reach it.  Each Newton step is one banded LU solve with two bands on
either side of the diagonal (the one-sided stencils reach two nodes
in).  The companion routines verify the qualitative structure the
maximum principle forces on the solution: classification against the
bulk root, pointwise bounds, an exponential interior envelope, boundary
layer limits, linearised stability (the bottom eigenvalue of the
symmetrised tridiagonal operator, by bisection), and unbounded growth
when f has no root.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import (
    DomainError,
    DomainEscapeError,
    InconsistentProfileError,
    NonconvergenceError,
    RootPresentError,
    SignError,
)
from .quadrature import adaptive_simpson

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
    if getattr(rhs, "root", None) is not None:
        vals.append(rhs.root)
    return min(vals), max(vals)


def _min_derivative(rhs, lo, hi, n=401):
    if hi <= lo:
        return float(rhs.derivative(np.asarray(lo)))
    pts = np.linspace(lo, hi, n)
    return float(np.min(rhs.derivative(pts)))


def _residual(phi, h, eps, rhs, bc):
    r = np.empty_like(phi)
    r[1:-1] = eps * (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / (h * h) - rhs(phi[1:-1])
    two_h = 2.0 * h
    r[0] = (
        phi[0]
        - bc.eta * (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / two_h
        - bc.phi0_left
    )
    r[-1] = (
        phi[-1]
        + bc.eta * (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / two_h
        - bc.phi0_right
    )
    return r


def _jacobian(phi, h, eps, rhs, bc):
    """Jacobian J of _residual in solve_banded (2, 2) storage: ab[2 + i - j, j] = J[i, j]."""
    n = phi.size
    c = eps / (h * h)
    two_h = 2.0 * h
    ab = np.zeros((5, n))
    ab[1, 1:] = c
    ab[3, :-1] = c
    ab[2, 1:-1] = -2.0 * c - rhs.derivative(phi[1:-1])
    ab[2, 0] = 1.0 + 3.0 * bc.eta / two_h
    ab[1, 1] = -4.0 * bc.eta / two_h
    ab[0, 2] = bc.eta / two_h
    ab[2, -1] = 1.0 + 3.0 * bc.eta / two_h
    ab[3, -2] = -4.0 * bc.eta / two_h
    ab[4, -3] = bc.eta / two_h
    return ab


def _newton(phi, h, eps, rhs, bc, domain, tol):
    lo, hi = domain
    finite_lo = math.isfinite(lo)
    finite_hi = math.isfinite(hi)
    clamps = 0
    # The central-difference rows amplify rounding by eps/h^2 and the Robin
    # rows by eta/h; below that floor the residual is pure noise.
    noise = 50.0 * np.finfo(float).eps * max(eps / (h * h), bc.eta / h)
    res = _residual(phi, h, eps, rhs, bc)
    norm = float(np.max(np.abs(res)))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        floor = noise * max(1.0, float(np.max(np.abs(phi))))
        if norm <= max(tol, floor):
            return phi, norm, it - 1
        delta = solve_banded((2, 2), _jacobian(phi, h, eps, rhs, bc), -res)
        lam = 1.0
        while True:
            trial = phi + lam * delta
            clipped = False
            if finite_lo and np.any(trial < lo):
                trial = np.maximum(trial, lo)
                clipped = True
            if finite_hi and np.any(trial > hi):
                trial = np.minimum(trial, hi)
                clipped = True
            trial_res = _residual(trial, h, eps, rhs, bc)
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
        phi, res, norm = trial, trial_res, trial_norm
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
    elif getattr(rhs, "root", None) is not None:
        phi = np.full(n, float(rhs.root))
    else:
        phi = bc.phi0_left + (nodes + 1.0) * (bc.phi0_right - bc.phi0_left) / 2.0

    fscale = max(
        1.0,
        abs(float(rhs(np.asarray(bc.phi0_left)))),
        abs(float(rhs(np.asarray(bc.phi0_right)))),
    )
    tol = 1e-10 * fscale

    phi, norm, iters = _newton(phi, h, eps, rhs, bc, (lo, hi), tol)

    root = getattr(rhs, "root", None)
    sol = BvpSolution(nodes, phi, norm, iters, "", eps, bc)
    sol.classification = classify_solution(sol, root)
    return sol


def classify_solution(solution, c, slack=None):
    """Label the discrete profile relative to the bulk root c.

    Returns one of "constant", "increasing", "decreasing",
    "interior-min", "interior-max".  The admissible patterns are exactly
    those a maximum principle allows: monotone profiles when the
    boundary values straddle c, a single interior extremum that never
    crosses c when they sit on the same side.  Anything else raises
    InconsistentProfileError.  Pass c=None for a shape-only label.
    """
    v = solution.values
    scale = max(1.0, float(np.max(np.abs(v))))
    if slack is None:
        slack = 1e-8 * scale
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


def bounds_check(solution, c, slack=None):
    """Pointwise bounds min(data, c) <= phi <= max(data, c); returns a report."""
    bc = solution.bc
    lo = min(bc.phi0_left, bc.phi0_right, c)
    hi = max(bc.phi0_left, bc.phi0_right, c)
    scale = max(1.0, abs(lo), abs(hi))
    if slack is None:
        slack = 1e-8 * scale
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
    unique.  A datum equal to c raises SignError (no layer to match).
    """

    def limit(phi0):
        if phi0 == c:
            raise SignError("boundary datum coincides with the bulk root")

        def mismatch(s):
            accumulated = adaptive_simpson(lambda t: float(rhs(np.asarray(t))), c, s)
            return gamma * (phi0 - s) ** 2 - accumulated

        a, b = (c, phi0) if phi0 > c else (phi0, c)
        from scipy.optimize import brentq

        return brentq(mismatch, a, b, xtol=1e-13)

    return limit(bc.phi0_left), limit(bc.phi0_right)


def linearized_smallest_eigenvalue(solution, rhs):
    """Smallest eigenvalue of -eps v'' + f'(phi) v with homogeneous data.

    The homogeneous Robin conditions eliminate the boundary values in
    favour of the first interior nodes, leaving an (n-2) x (n-2)
    tridiagonal operator whose end rows carry the off-diagonal pairs
    (-c + c*w, -c), c = eps/h^2 and w = eta/(2h + 3 eta) < 1/3.  Each
    pair has a positive product, so a diagonal similarity makes the
    operator symmetric with off-diagonal -c*sqrt(1 - w) there; the
    bottom of its spectrum is then found by symmetric tridiagonal
    bisection.
    """
    phi = solution.values
    x = solution.nodes
    h = x[1] - x[0]
    eps = solution.epsilon
    eta = solution.bc.eta
    n = phi.size
    fp = np.asarray(rhs.derivative(phi[1:-1]), dtype=float)
    if fp.ndim == 0:
        fp = np.full(n - 2, float(fp))

    c = eps / (h * h)
    # Eliminate v0 = eta*(4 v1 - v2)/(2h + 3 eta) and its mirror.
    w = eta / (2.0 * h + 3.0 * eta)
    main = 2.0 * c + fp
    main[0] -= c * 4.0 * w
    main[-1] -= c * 4.0 * w
    off = np.full(n - 3, -c)
    off[0] = off[-1] = -c * math.sqrt(1.0 - w)
    vals = eigh_tridiagonal(
        main, off, eigvals_only=True, select="i", select_range=(0, 0)
    )
    return float(vals[0])


def unbounded_growth_probe(rhs, epsilons, bc=None, n_nodes=None):
    """Document sup-norm blowup when f has no root.

    Verifies f keeps one sign on (a finite window of) its domain, then
    solves the problem for each eps and reports sup norms and their
    consecutive growth factors as eps shrinks.  A sign change raises
    RootPresentError: bounded solutions exist in that case.
    """
    lo, hi = rhs.domain
    wlo = lo if math.isfinite(lo) else -50.0
    whi = hi if math.isfinite(hi) else 50.0
    sample = np.asarray(rhs(np.linspace(wlo, whi, 2001)))
    if float(np.min(sample)) < 0.0 < float(np.max(sample)):
        raise RootPresentError(
            "right-hand side changes sign: the probe hypothesis fails"
        )
    if bc is None:
        bc = RobinBC(0.0, 0.0, 0.0)
    eps_sorted = sorted(epsilons, reverse=True)
    norms = []
    for eps in eps_sorted:
        sol = solve(BvpProblem(eps, rhs, bc, n_nodes))
        norms.append(float(np.max(np.abs(sol.values))))
    growth = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
    return {
        "epsilons": eps_sorted,
        "sup_norms": norms,
        "growth_factors": growth,
    }
