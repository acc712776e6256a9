"""Exception taxonomy shared across the package.

Two broad groups matter to callers (and to the CLI exit codes): malformed
inputs, and requests that are mathematically impossible or over budget.
"""


class TreedetError(Exception):
    """Base class for all package errors."""


class InputError(TreedetError):
    """Malformed, inconsistent, or unresolvable inputs."""


class InfeasibilityError(TreedetError):
    """Requests that are infeasible or exceed a hard resource cap."""


class EquivalenceViolation(InputError):
    """A distribution pair (or push-forward) has a one-sided zero."""


class UnknownSymbol(InputError):
    """A symbol was used that is not part of the relevant alphabet."""


class InvalidParams(InputError):
    """Structural parameters out of range or mutually inconsistent."""


class DegenerateFamily(InfeasibilityError):
    """Every quantizer in the family destroys all information."""


class EnumerationTooLarge(InfeasibilityError):
    """A requested exhaustive enumeration exceeds the cap."""


class NotUniform(InfeasibilityError):
    """An operation requires all leaves at the same depth."""


class EpsilonTooLarge(InfeasibilityError):
    """Slack parameter is not inside (0, best achievable exponent)."""


class StateSpaceTooLarge(InfeasibilityError):
    """Exact evaluation would materialize too many atoms."""


class InfeasibleThreshold(InfeasibilityError):
    """A quantizer threshold lies outside its feasible open interval."""

    def __init__(self, level: int, message: str = ""):
        self.level = level
        detail = message or "threshold outside the feasible interval"
        super().__init__(f"level {level}: {detail}")
