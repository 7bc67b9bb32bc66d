"""Exception types shared across the package.  The CLI exits 3 on every
``ArithmeticError`` and 2 on every ``ValueError``, ``KeyError`` or ``OSError``.
"""


class InvalidInstanceError(ValueError):
    """Raised for malformed market instances (empty buyer list, negative or
    non-finite prices)."""


class ProtocolError(RuntimeError):
    """Raised when episode events reach a policy out of order."""


class SizeCapError(ValueError):
    """Raised when an exact computation is requested above its size cap."""


class NumericError(ArithmeticError):
    """Raised when an iterative numeric routine fails to converge."""


class UnboundedProblem(NumericError):
    """Raised by the simplex solver for unbounded programs."""
