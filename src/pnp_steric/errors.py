"""Exception types shared across the package."""


class PnpStericError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PnpStericError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class SubcriticalError(PnpStericError, ValueError):
    """Cross coupling too weak: the turning point does not exist."""


class SupercriticalError(PnpStericError, ValueError):
    """Cross coupling too strong for the single-valued branch map."""


class NoIntersectionError(PnpStericError, ValueError):
    """Assembled right-hand side has no sign change on its domain."""


class EmptyDomainError(PnpStericError, ValueError):
    """Intersection of segment domains is empty."""


class NonconvergenceError(PnpStericError, RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class DomainEscapeError(PnpStericError, RuntimeError):
    """Newton iterates repeatedly left the right-hand side domain."""


class InconsistentProfileError(PnpStericError, RuntimeError):
    """Discrete profile matches none of the admissible monotone patterns."""


class SignError(PnpStericError, ValueError):
    """Boundary datum coincides with the bulk root: no layer to resolve."""


class RootPresentError(PnpStericError, ValueError):
    """Right-hand side has a sign change, violating the probe hypothesis."""


class BranchMismatchError(DomainError):
    """Potential profile leaves the domain of the requested segment."""


class BoundsError(PnpStericError, ValueError):
    """Integration bounds are out of order or outside the interval."""


class ConsistencyError(PnpStericError, ValueError):
    """Concentration profiles do not satisfy the algebraic system."""


class ConfigError(PnpStericError, ValueError):
    """Run configuration failed validation."""
