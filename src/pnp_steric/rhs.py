"""Assembly of the reduced Poisson right-hand sides.

After eliminating the concentrations through the branch inverses, the
steady-state potential satisfies eps * phi'' = f(phi) where f collects
the net charge density as a function of phi alone.  Every configuration
decomposes into the same three kinds of charge term (charge_terms):

* steric pairs, each contributing q*(c1 - c2) along the outer segment
  ("A1" or "B1") of one branch;
* Boltzmann ions of valence z, each contributing -z*exp(-z*phi);
* a constant background charge.

Two configurations are supported:

* three species: one steric pair plus a third, steric-free counter-ion
  of valence z3, balanced against a background density +rho0;
* four species: two independent steric pairs balanced against a
  background -rho0 of either sign.

Each configuration yields one right-hand side per outer branch label
("A" or "B"); the two generally admit distinct bulk roots and hence
distinct steady states.  The first pair rides the labelled branch and a
second pair the mirrored one, so every term is increasing in phi.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import branch
from .branch import TwoSpeciesParams
from .errors import (
    DomainError,
    EmptyDomainError,
    NoIntersectionError,
    SubcriticalError,
)
from .roots import brentq

__all__ = [
    "ThreeSpeciesConfig",
    "FourSpeciesConfig",
    "RhsFunction",
    "charge_terms",
    "assemble",
    "assemble_three_species",
    "assemble_four_species",
    "third_species_concentration",
]

# The branch potentials grow without bound; cap the usable sigma range of
# each unbounded segment at sigma_c + SPAN_SCALE/(g+z) so the decay factor
# exp(-(g+z)*sigma) stays representable with lots of headroom.
_SPAN_SCALE = 50.0


@dataclass(frozen=True)
class ThreeSpeciesConfig:
    """One steric pair plus a steric-free third species.

    z3 is the third-species valence (positive); rho0 the constant
    background density.  A positive rho0 is required for the assembled
    right-hand sides to cross zero; nonpositive values are accepted here
    so the missing-root diagnostics can be exercised.
    """

    pair: TwoSpeciesParams
    z3: float
    rho0: float

    def __post_init__(self):
        if not (math.isfinite(self.z3) and self.z3 > 0):
            raise DomainError("z3 must be a positive finite number")
        if not math.isfinite(self.rho0):
            raise DomainError("rho0 must be finite")


@dataclass(frozen=True)
class FourSpeciesConfig:
    """Two independent steric pairs over a constant background rho0 != 0."""

    pair12: TwoSpeciesParams
    pair34: TwoSpeciesParams
    rho0: float

    def __post_init__(self):
        if not (math.isfinite(self.rho0) and self.rho0 != 0):
            raise DomainError("rho0 must be finite and nonzero")


@dataclass
class RhsFunction:
    """A reduced right-hand side f(phi) on an interval.

    Fields
    ------
    label : outer branch label, "A" or "B"
    domain : (lo, hi) interval of admissible potentials
    root : bulk root of f inside the domain (None only for probe
        functions constructed by hand)
    evaluator / derivative : vectorised callables for f and f'
    combined : optional vectorised callable phi -> (f, f'), cheaper than
        evaluator and derivative apart (assemble builds both halves from
        it).  It evaluates f and f' once per run of equal consecutive
        potentials and scatters them back, so a solved profile, the bulk
        root at nearly every node, costs a few hundred evaluations; each
        node gets the bits it would get alone.  None for hand-built
        probes.  Replacing evaluator/derivative alone
        leaves combined in charge of value_and_derivative.
    primitive : optional vectorised antiderivative P of f, P' = f, in
        closed form from one segment inversion per pair (see assemble);
        None for hand-built probes.

    Calling the function, value_and_derivative or antiderivative checks
    phi against the domain (up to roundoff slack) and clips it onto it.
    A float phi, a root search's scalar call, is checked and clipped as a
    float and reaches the callables as one; assemble's combined then
    returns float scalars, the bits a one-element array would hold.
    """

    label: str
    domain: tuple
    root: float | None
    evaluator: Callable = field(repr=False)
    derivative: Callable = field(repr=False)
    combined: Callable | None = field(default=None, repr=False)
    primitive: Callable | None = field(default=None, repr=False)

    def _in_domain(self, phi):
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                            abs(hi) if math.isfinite(hi) else 0.0)
        scalar = isinstance(phi, float)
        if scalar:
            outside = phi < lo - slack or phi > hi + slack
        else:
            phi = np.asarray(phi, dtype=float)
            outside = np.any(phi < lo - slack) or np.any(phi > hi + slack)
        if outside:
            raise DomainError(
                "potential outside the right-hand side domain [%g, %g]" % (lo, hi)
            )
        if scalar:
            return lo if phi < lo else hi if phi > hi else phi
        return np.clip(phi, lo, hi)

    def __call__(self, phi):
        return self.evaluator(self._in_domain(phi))

    def value_and_derivative(self, phi):
        """(f, f') at phi, from one segment inversion per pair when combined is set."""
        phi = self._in_domain(phi)
        if self.combined is None:
            return self.evaluator(phi), self.derivative(phi)
        return self.combined(phi)

    def antiderivative(self, phi):
        """The primitive P at phi; P(b) - P(a) is the integral of f from a to b."""
        return self.primitive(self._in_domain(phi))


def third_species_concentration(phi, z3):
    """Boltzmann concentration exp(-z3*phi) of the steric-free species."""
    return np.exp(-z3 * np.asarray(phi, dtype=float))


def _segment_window(pair, segment):
    """Usable phi window of an unbounded outer segment, after truncation.

    "A1" runs from -phi_crit up to the potential at sigma_c + span;
    "B1" from the mirrored lower cap up to +phi_crit.
    """
    pac = branch.phi_crit(pair)
    span = _SPAN_SCALE / (pair.g + pair.z)
    cap = branch.phi_on_branch(branch.sigma_c(pair) + span, pair, segment[0])
    if segment == "A1":
        return -pac, cap
    return cap, pac


def _locate_root(fn, lo, hi):
    """Bracketed root of a scalar function on [lo, hi], or None.

    brentq starts by evaluating both ends; it is handed the end values
    already computed here instead of evaluating them again.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    known = {lo: flo, hi: fhi}
    return brentq(lambda p: known[p] if p in known else fn(p), lo, hi, xtol=1e-12)


def charge_terms(config, label):
    """Charge terms summed into f for one configuration and outer label.

    Returns (pairs, valences, background): pairs lists each steric pair in
    species order with the branch ("A" or "B") of the outer segment it
    rides, valences the Boltzmann ions, background the fixed charge.
    Label "A" puts the first pair on its A1 segment; any second pair
    rides the mirrored segment (B1 on label "A", A1 on label "B") so that
    every charge term is increasing in phi.  Three species contribute the
    background +rho0, four species -rho0.  This is the only place that
    knows the mirror rule and the sign convention for rho0.
    """
    if label not in ("A", "B"):
        raise DomainError("label must be 'A' or 'B', got %r" % (label,))
    if isinstance(config, ThreeSpeciesConfig):
        return ((config.pair, label),), (config.z3,), config.rho0
    mirror = "B" if label == "A" else "A"
    return ((config.pair12, label), (config.pair34, mirror)), (), -config.rho0


def assemble(config, label):
    """Right-hand side f(phi) of a configuration on one outer label.

    f(phi) = sum_pairs q*(c1 - c2)(sigma(phi)) - sum_ions z*exp(-z*phi)
    + background, each pair composed with the inverse of its outer
    segment (see charge_terms).  Its primitive is, term by term,
    sum_pairs branch.pressure(sigma(phi)) + sum_ions exp(-z*phi)
    + background*phi.  Every pair must be supercritical
    (z > g_crit(g)).  The domain is the overlap of the pairs' segment
    windows; an empty overlap raises EmptyDomainError and a missing sign
    change NoIntersectionError.
    """
    pairs, valences, background = charge_terms(config, label)
    segments = [(pair, lab + "1") for pair, lab in pairs]
    lo, hi = -math.inf, math.inf
    for pair, segment in segments:
        if pair.z <= branch.g_crit(pair.g):
            raise SubcriticalError(
                "assembly requires supercritical pairs; (g, z) = (%g, %g) has "
                "z <= g_crit(g) = %.6g" % (pair.g, pair.z, branch.g_crit(pair.g))
            )
        seg_lo, seg_hi = _segment_window(pair, segment)
        lo, hi = max(lo, seg_lo), min(hi, seg_hi)
        if lo >= hi:
            raise EmptyDomainError(
                "segment window [%g, %g] leaves an empty overlap" % (seg_lo, seg_hi)
            )

    def combined(phi):
        scalar = isinstance(phi, float)
        if scalar:
            runs = phi
        else:
            phi = np.asarray(phi, dtype=float)
            runs, back = branch._runs(phi.ravel())
        f = fp = 0.0
        for pair, segment in segments:
            diff, slope = branch.c_diff_and_slope_on_segment(runs, pair, segment)
            f = f + pair.q * diff
            fp = fp + pair.q * slope
        for z in valences:
            boltzmann = np.exp(-z * runs)
            f = f - z * boltzmann
            fp = fp + z * z * boltzmann
        f = f + background
        if scalar:
            return f, fp
        return f[back].reshape(phi.shape), fp[back].reshape(phi.shape)

    def primitive(phi):
        p = background * phi
        for pair, segment in segments:
            p = p + branch.pressure(branch.inverse_sigma(phi, pair, segment), pair)
        for z in valences:
            p = p + np.exp(-z * phi)
        return p

    def evaluator(phi):
        return combined(phi)[0]

    def derivative(phi):
        return combined(phi)[1]

    root = _locate_root(lambda p: float(evaluator(p)), lo, hi)
    if root is None:
        raise NoIntersectionError(
            "f_%s has no sign change on [%g, %g]" % (label, lo, hi)
        )
    return RhsFunction(label, (lo, hi), root, evaluator, derivative, combined,
                       primitive)


# Configuration-specific names, kept for callers written against them.
assemble_three_species = assemble
assemble_four_species = assemble
