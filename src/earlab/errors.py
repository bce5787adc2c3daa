"""Exception taxonomy shared by the library and the CLI.

The CLI maps every error to one of four statuses with fixed exit codes:
ok = 0, property_failed = 1, invalid_input = 2, cap_exceeded = 3.
Malformed input of every kind (edge-list syntax, JSON shape, bad ids) is one
class, InvalidInputError; an edge-list refusal's text starts "line N: ".
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


class CapExceededError(EarlabError):
    """Input exceeds a hard size cap; README "Oracle caps" lists them."""

    status = "cap_exceeded"
    exit_code = 3


class BudgetExceededError(CapExceededError):
    """Search stopped by the node budget; distinct from 'provably none'."""
