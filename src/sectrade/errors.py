"""Exception types shared across the package."""


class InvalidInstanceError(ValueError):
    """Raised for malformed market instances (empty buyer list, negative or
    non-finite prices)."""


class ProtocolError(RuntimeError):
    """Raised when episode events reach a policy out of order."""


class SizeCapError(ValueError):
    """Raised when an exact computation is requested above its size cap."""


class NumericError(ArithmeticError):
    """Raised when an iterative numeric routine fails to converge."""


class UnboundedProblem(RuntimeError):
    """Raised by the simplex solver for unbounded programs."""
