"""Exception types shared across the package, and the value checks that raise them.

Every error raised on a user-facing path derives from :class:`GridclearError`
so callers can catch one base class at the CLI boundary.
"""

import math
import numbers


class GridclearError(Exception):
    """Base class for all package errors."""


class SchemaError(GridclearError):
    """A document is malformed: wrong tag, missing field, bad value type."""


class TopologyError(GridclearError):
    """The line graph is not a tree rooted at a single head bus."""


class ShapeError(GridclearError):
    """An array argument has the wrong shape for the feeder it refers to."""


class DomainError(GridclearError):
    """A numeric value is outside its admissible range."""


class ConfigError(GridclearError):
    """A scenario configuration is inconsistent or incomplete."""


class InfeasibleError(GridclearError):
    """A required optimization has no feasible point.

    `hint` names the constraint families whose removal restores
    feasibility, when a small set of culprits could be identified.
    """

    def __init__(self, message: str, hint: tuple = ()):
        super().__init__(message)
        self.hint = tuple(hint)


class StateError(GridclearError):
    """An operation was called before its inputs were computed."""


class InternalError(GridclearError):
    """An invariant the code relies on failed; indicates a bug, not bad input."""


def require_real(where: str, value, *, positive: bool = False) -> None:
    """Raise DomainError unless `value` is a finite real number (bools are not),
    and above zero when `positive` is set."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DomainError(f"{where} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise DomainError(f"{where} must be positive, got {value!r}")


def require_int(where: str, value, minimum: int) -> None:
    """Raise DomainError unless `value` is an integer (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{where} must be an integer >= {minimum}, got {value!r}")
