"""Steady-state Poisson-Nernst-Planck solver with steric interactions.

Layers, from the bottom up:

* :mod:`pnp_steric.branch` - algebra of one oppositely charged ion pair:
  solution branches, critical constants, monotone segment inverses;
* :mod:`pnp_steric.rhs` - reduced Poisson right-hand sides: one
  ``assemble`` for the three- and four-species configurations, which
  differ only in the charge terms (``charge_terms``) summed into f;
* :mod:`pnp_steric.bvp` - singularly perturbed boundary value solver
  with Robin data, plus structural checks (classification, envelope,
  boundary layers, linearised stability, unbounded growth);
* :mod:`pnp_steric.current` - excess electric current, evaluated by two
  independent quadrature routes that must agree (``pointwise_current``
  with ``integral_current_x``, and ``integral_current_sigma``);
* :mod:`pnp_steric.cli` - command line front end.

Helpers: :mod:`pnp_steric.roots` (Brent's bracketed root finder, the
same arithmetic as scipy's) and :mod:`pnp_steric.quadrature` (adaptive
Simpson).  No scipy module is imported: :mod:`pnp_steric.bvp` loads
scipy's compiled LAPACK extension ``scipy/linalg/_flapack`` from its
file for the three routines it calls (gtsv, pttrf, pttrs).
"""

from .branch import (
    CriticalSet,
    TwoSpeciesParams,
    c_diff,
    c_diff_and_slope_on_segment,
    c_diff_on_segment,
    c_diff_segment_derivative,
    concentrations,
    critical_set,
    dphi_dsigma,
    g_crit,
    inverse_sigma,
    phi_crit,
    phi_on_branch,
    sigma_c,
    sigma_z,
    stability_indicator,
    unified_sigma,
)
from .bvp import (
    BvpProblem,
    BvpSolution,
    RobinBC,
    boundary_layer_limits,
    bounds_check,
    classify_solution,
    envelope_check,
    linearized_smallest_eigenvalue,
    solve,
    unbounded_growth_probe,
)
from .current import (
    CurrentProfile,
    DiffusionSet,
    generic_current,
    integral_current_sigma,
    integral_current_sigma_four,
    integral_current_sigma_three,
    integral_current_x,
    pointwise_current,
    pointwise_current_four,
    pointwise_current_three,
)
from .errors import (
    BoundsError,
    BranchMismatchError,
    ConfigError,
    ConsistencyError,
    DomainError,
    DomainEscapeError,
    EmptyDomainError,
    InconsistentProfileError,
    NoIntersectionError,
    NonconvergenceError,
    PnpStericError,
    RootPresentError,
    SignError,
    SubcriticalError,
    SupercriticalError,
)
from .rhs import (
    FourSpeciesConfig,
    RhsFunction,
    ThreeSpeciesConfig,
    assemble,
    assemble_four_species,
    assemble_three_species,
    charge_terms,
    third_species_concentration,
)

__version__ = "0.1.0"
