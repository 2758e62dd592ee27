"""Exception hierarchy shared across the package.

Errors are categorized by the CLI exit code each carries: parse errors (3)
for malformed input files, validation errors (4) for inputs that parse but
violate a contract, numeric errors (5) for failed computations.  The base
class exits 4.
"""


class CoresponseError(Exception):
    """Base class for all package errors."""
    exit_code = 4


class ParseError(CoresponseError):
    """Raised when an input file cannot be parsed (bad cell, ragged row, ...)."""
    exit_code = 3


class ValidationError(CoresponseError):
    """Raised when parsed data or configuration violates an invariant."""
    exit_code = 4


class NumericError(CoresponseError):
    """Raised when a numeric procedure fails (e.g. non-convergence)."""
    exit_code = 5
