"""Exception types shared across the package.

Every class derives from LindriveError, which the CLI reports with exit
code 4 whatever the subclass; library callers can tell them apart.
"""


class LindriveError(Exception):
    """Base class for all package errors."""


class ShapeError(LindriveError, ValueError):
    """Array dimensions are inconsistent with the operation's contract."""


class ConfigError(LindriveError, ValueError):
    """Invalid configuration value (unknown mode, probability out of range, ...)."""


class ContractError(LindriveError, ValueError):
    """A documented precondition was violated by the caller."""


class NumericError(LindriveError, ArithmeticError):
    """Non-finite values reached a numeric kernel."""


class DataError(LindriveError, ValueError):
    """Input data is unusable (too few samples, degenerate scene, ...)."""
