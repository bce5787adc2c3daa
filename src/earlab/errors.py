"""Exception taxonomy shared by the library and the CLI.

The CLI maps every error to one of four statuses with fixed exit codes:
ok = 0, property_failed = 1, invalid_input = 2, cap_exceeded = 3.
"""


class EarlabError(Exception):
    """Base class; carries the CLI status and exit code."""

    status = "property_failed"
    exit_code = 1


class PropertyFailedError(EarlabError):
    """A required mathematical property does not hold for the input."""


class VerificationError(PropertyFailedError):
    """A constructed certificate failed its own re-verification.

    Raised instead of returning an unverified object; signals either a bug
    or a genuine counterexample, never swallowed.
    """


class InvalidInputError(EarlabError):
    """Malformed or contradictory input (files, arguments, vertex ids)."""

    status = "invalid_input"
    exit_code = 2


class ParseError(InvalidInputError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapExceededError(EarlabError):
    """Input exceeds a hard size cap: an exact oracle's, or MAX_VERTICES."""

    status = "cap_exceeded"
    exit_code = 3


class BudgetExceededError(CapExceededError):
    """Search stopped by the node budget; distinct from 'provably none'."""
