"""Exception types shared across the package."""


class VortexBlobError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(VortexBlobError, ValueError):
    """Invalid static configuration (unsupported order, bad grid, ...)."""


class DomainError(VortexBlobError):
    """Function argument outside its mathematical domain."""


class PairDegeneracyError(VortexBlobError):
    """Two strength-bearing vortices exactly coincide.

    Carries the offending pair so callers can report which vortices
    collided instead of silently skipping the interaction.
    """

    def __init__(self, i, j):
        self.i = int(i)
        self.j = int(j)
        super().__init__(f"vortices {i} and {j} coincide with nonzero strengths")


class SolverFailureError(VortexBlobError):
    """A step failed: the fixed-point iteration did not converge within the
    iteration cap, or the step produced non-finite positions (a blow-up)."""

    def __init__(self, iterations, residual, last_state=None, message=None):
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.last_state = last_state
        super().__init__(
            message
            or f"fixed-point solver did not converge: {iterations} iterations, "
            f"residual {residual:.3e}"
        )
