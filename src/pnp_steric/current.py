"""Excess electric current carried by the steric interactions.

At steady state the total current through any cross-section splits into
an ideal (Nernst-Planck) part and an excess part proportional to the
steric couplings.  The excess part admits two independent evaluations:

* the x route: a pointwise current density I(x) along the solved
  potential profile, integrated over a window with grid quadrature;
* the sigma route: a change of variables onto the total concentration
  of each pair, integrated with adaptive quadrature between the window
  endpoint images.

Which steric pairs contribute, and on which branch, comes from
rhs.charge_terms; the Boltzmann ions carry no excess current.

Both routes read the pair algebra (E, |c1 - c2| and f_tilde) from
branch and share no quadrature; agreement between them is the
package's primary correctness check for this module.  A third,
configuration-agnostic formula evaluates the excess current directly
from concentration profiles and the steric coupling matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import branch, rhs
from .errors import BoundsError, ConsistencyError, DomainError
from .quadrature import adaptive_simpson

__all__ = [
    "DiffusionSet",
    "CurrentProfile",
    "pointwise_current",
    "pointwise_current_three",
    "pointwise_current_four",
    "integral_current_x",
    "integral_current_sigma",
    "integral_current_sigma_three",
    "integral_current_sigma_four",
    "generic_current",
    "grid_derivative",
]


@dataclass(frozen=True)
class DiffusionSet:
    """Diffusion coefficients per species and the elementary charge scale."""

    coefficients: tuple
    charge_scale: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(d) for d in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        for d in coeffs:
            if not (math.isfinite(d) and d > 0):
                raise DomainError("diffusion coefficients must be positive")
        if not (math.isfinite(self.charge_scale) and self.charge_scale > 0):
            raise DomainError("charge_scale must be positive")


@dataclass
class CurrentProfile:
    """Pointwise excess current density sampled on the solver grid."""

    nodes: np.ndarray
    values: np.ndarray


def grid_derivative(x, y):
    """Second-order derivative on a uniform grid (one-sided at the ends).

    The end stencils are written in differences: constants give exactly 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = x[1] - x[0]
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (3.0 * (y[1] - y[0]) - (y[2] - y[1])) / (2.0 * h)
    d[-1] = (3.0 * (y[-1] - y[-2]) - (y[-2] - y[-3])) / (2.0 * h)
    return d


def _nodes_values(solution):
    if isinstance(solution, tuple):
        x, v = solution
        return np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return np.asarray(solution.nodes, float), np.asarray(solution.values, float)


def _pair_current_factor(sigma, pair, d_small_label, branch_label):
    """Per-pair mobility factor i(sigma) multiplying q * e * dphi/dx.

    branch_label "A" has concentration difference +s, "B" has -s; the
    rest of the expression is shared:

        i = q*[sgn*(D2-D1)/2*s - (D1+D2)/2*(sigma + 2*(g+z)*E)] / f_tilde
            + q*[(D1+D2)/2*sigma - sgn*(D2-D1)/2*s]

    The first (Fickian) term carries the q of dsigma/dphi = q*s/f_tilde.
    """
    d1, d2 = d_small_label
    g, z, q = pair.g, pair.z, pair.q
    sigma = np.asarray(sigma, dtype=float)
    E, s, tilde = branch._pair_state(sigma, pair)
    sgn = 1.0 if branch_label == "A" else -1.0
    half_diff = 0.5 * (d2 - d1) * sgn * s
    half_sum = 0.5 * (d1 + d2)
    return q * (half_diff - half_sum * (sigma + 2.0 * (g + z) * E)) / tilde + q * (
        half_sum * sigma - half_diff
    )


def _pair_diffusions(diffusion, n_pairs):
    """Diffusion coefficient pairs (D1, D2) of each steric pair, in order."""
    d = diffusion.coefficients
    if len(d) < 2 * n_pairs:
        raise DomainError(
            "%d diffusion coefficients required for %d steric pair(s)"
            % (2 * n_pairs, n_pairs)
        )
    return [(d[2 * k], d[2 * k + 1]) for k in range(n_pairs)]


def pointwise_current(solution, config, diffusion, label):
    """Excess current density I(x) = e * sum_pairs q * i(sigma(phi)) * dphi/dx.

    Each steric pair rides the segment given by rhs.charge_terms; the
    steric-free Boltzmann ions carry no excess current.  The factor
    sum_pairs q * i(sigma(phi)) is evaluated once per run of equal
    consecutive potentials and scattered back before it multiplies
    dphi/dx.
    """
    x, phi = _nodes_values(solution)
    pairs, _, _ = rhs.charge_terms(config, label)
    d_pairs = _pair_diffusions(diffusion, len(pairs))
    runs, back = branch._runs(phi)
    total = 0.0
    for (pair, lab), d_pair in zip(pairs, d_pairs):
        sig = branch.inverse_sigma(runs, pair, lab + "1")
        total = total + pair.q * _pair_current_factor(sig, pair, d_pair, lab)
    values = total[back] * diffusion.charge_scale * grid_derivative(x, phi)
    return CurrentProfile(x, values)


def _check_window(x1, x2):
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise BoundsError("window bounds must be finite")
    if x1 > x2:
        raise BoundsError("window bounds out of order: %g > %g" % (x1, x2))
    if x1 < -1.0 or x2 > 1.0:
        raise BoundsError("window must lie inside [-1, 1]")


def _grid_simpson(y, x):
    """Composite Simpson's rule for samples y at distinct increasing nodes x.

    The operations of scipy.integrate.simpson(y, x=x) on 1-D input, in
    its order, as of scipy 1.11 (before it, an even node count averaged
    two rules), so the sum is the same to the last bit: nonuniform
    Simpson panels over pairs of intervals, Cartwright's correction for
    the last interval when the node count is even, and the trapezoid
    for two nodes.
    """
    n = len(y)
    h = np.diff(x)
    if n == 2:
        return 0.0 + 0.5 * h[0] * (y[1] + y[0])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - 1.0 / h0divh1)
            + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
            + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
        )
    )
    if n % 2 == 0:
        # 0-d arrays, as in scipy, so ** is numpy's power ufunc as there
        h0, h1 = h[-2, ...], h[-1, ...]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        # scipy then adds its zero trapezoid term, which turns -0.0 into 0.0
        result = result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0
    return result


def integral_current_x(profile, x1, x2):
    """Integrate a pointwise current profile over [x1, x2] on its grid.

    Composite Simpson quadrature over the grid nodes inside the window,
    with linearly interpolated values at the window endpoints; nodes
    within 1e-9*h of an endpoint are dropped, leaving no sliver panel.
    """
    _check_window(x1, x2)
    if x1 == x2:
        return 0.0
    x, v = profile.nodes, profile.values
    gap = 1e-9 * abs(x[1] - x[0])
    inside = (x > x1 + gap) & (x < x2 - gap)
    xs = np.concatenate(([x1], x[inside], [x2]))
    vs = np.concatenate(
        ([np.interp(x1, x, v)], v[inside], [np.interp(x2, x, v)])
    )
    return float(_grid_simpson(vs, xs))


def _sigma_integrand(pair, d_pair, branch_label):
    """Integrand of the sigma route for one pair on one branch.

    It is q*i(sigma)*dphi/dsigma with the f_tilde of i's denominator
    cancelled against the one in dphi/dsigma = +/-f_tilde/(q*s):

        q*[(D2-D1)/2*(1 - f_tilde)
            -/+ (D1+D2)/2*(sigma + 2*(g+z)*E - sigma*f_tilde)/s]

    with the minus on branch "A" and the plus on "B".  Composing the x
    route's _pair_current_factor with dphi_dsigma instead would give
    inf*0 at the turning point; this form is finite there, so it is
    integrable through sigma_c and singular only at sigma_z.
    """
    d1, d2 = d_pair
    g, z, q = pair.g, pair.z, pair.q
    sgn = -1.0 if branch_label == "A" else 1.0

    def integrand(sigma):
        E, s, tilde = branch._pair_state(sigma, pair)
        first = 0.5 * (d2 - d1) * (1.0 - tilde)
        second = 0.5 * (d1 + d2) / s * (sigma + 2.0 * (g + z) * E - sigma * tilde)
        return float(q * (first + sgn * second))

    return integrand


def integral_current_sigma(solution, config, diffusion, label, x1, x2):
    """Window-integrated excess current via the sigma change of variables.

    One term per steric pair (see rhs.charge_terms), each integrated
    between that pair's own sigma images of the window endpoints.
    """
    _check_window(x1, x2)
    if x1 == x2:
        return 0.0
    pairs, _, _ = rhs.charge_terms(config, label)
    d_pairs = _pair_diffusions(diffusion, len(pairs))
    x, phi = _nodes_values(solution)
    ends = np.interp([x1, x2], x, phi)
    total = 0.0
    for (pair, lab), d_pair in zip(pairs, d_pairs):
        s1, s2 = branch.inverse_sigma(ends, pair, lab + "1").tolist()
        integrand = _sigma_integrand(pair, d_pair, lab)
        total += diffusion.charge_scale * adaptive_simpson(integrand, s1, s2)
    return total


# Configuration-specific names, kept for callers written against them.
pointwise_current_three = pointwise_current
pointwise_current_four = pointwise_current
integral_current_sigma_three = integral_current_sigma
integral_current_sigma_four = integral_current_sigma


def generic_current(solution, concentrations, valences, diffusion, coupling):
    """Excess current from raw concentration profiles and couplings.

    Evaluates I(x) = sum_i z_i * e * D_i * (dc_i/dx + z_i * c_i * dphi/dx)
    with grid derivatives, for any number of species.  Before doing so,
    the profiles are checked against the defining algebraic relations

        ln(c_i) + z_i * phi + sum_j G_ij * c_j = 0

    to 1e-8 along the grid; violations raise ConsistencyError.  Species
    with a zero coupling row and Boltzmann statistics contribute nothing.
    """
    x, phi = _nodes_values(solution)
    conc = [np.asarray(c, dtype=float) for c in concentrations]
    valences = [float(z) for z in valences]
    coupling = np.asarray(coupling, dtype=float)
    nspec = len(conc)
    if coupling.shape != (nspec, nspec):
        raise DomainError("coupling matrix must be %d x %d" % (nspec, nspec))
    if len(valences) != nspec or len(diffusion.coefficients) < nspec:
        raise DomainError("species count mismatch")

    for i in range(nspec):
        resid = np.log(conc[i]) + valences[i] * phi
        for j in range(nspec):
            resid += coupling[i, j] * conc[j]
        worst = float(np.max(np.abs(resid)))
        if worst > 1e-8:
            raise ConsistencyError(
                "species %d violates the algebraic relations by %.3e"
                % (i + 1, worst)
            )

    dphi = grid_derivative(x, phi)
    e = diffusion.charge_scale
    total = np.zeros_like(phi)
    for i in range(nspec):
        di = diffusion.coefficients[i]
        dci = grid_derivative(x, conc[i])
        total += valences[i] * e * di * (dci + valences[i] * conc[i] * dphi)
    return CurrentProfile(x, total)
