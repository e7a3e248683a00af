"""Exception types shared across the package."""


class HypervolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HypervolError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateGeometryError(DomainError):
    """Parameters at which a geometric construction collapses (t = 0 or ideal)."""


class ConvergenceError(HypervolError):
    """Quadrature failed to reach the requested tolerance.

    The best estimate obtained so far is attached as ``estimate`` (a
    VolumeEstimate) so callers can still report a value.  A batch that
    stalls sets ``row`` to the index of the row the estimate belongs to.
    """

    def __init__(self, message, estimate=None, row=None):
        super().__init__(message)
        self.estimate = estimate
        self.row = row
