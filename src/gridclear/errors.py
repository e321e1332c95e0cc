"""Exception types shared across the package, the value checks that raise
them, and the one reader of JSON documents.

Every error raised on a user-facing path derives from :class:`GridclearError`
so callers can catch one base class at the CLI boundary.  Every document the
package reads (scenario, feeder, DERs, a dispatch to check, a finished run's
files) goes through :func:`read_document`, so a file that cannot be read or
parsed is a `ConfigError` and a document of the wrong shape a `SchemaError`.
"""

import json
import math
import numbers
import os
from pathlib import Path


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


def require_real(where: str, value, *, positive: bool = False) -> float:
    """`value` as a float; DomainError unless it is a finite real number
    (bools are not), and above zero when `positive` is set."""
    # float and int are listed first because the numbers.Real check alone
    # costs about a microsecond, and documents hold thousands of numbers
    if (isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real))
            or not math.isfinite(value)):
        raise DomainError(f"{where} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise DomainError(f"{where} must be positive, got {value!r}")
    return float(value)


def require_int(where: str, value, minimum: int) -> None:
    """Raise DomainError unless `value` is an integer (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{where} must be an integer >= {minimum}, got {value!r}")


def read_document(source, schema: str | None, what: str, base_dir=None) -> dict:
    """The JSON object `source` holds: a parsed dict, returned as it is
    (not copied), or a path to a UTF-8 JSON file, resolved against `base_dir`
    when relative.

    ConfigError when the file cannot be read or parsed; SchemaError when
    the document is not an object or, unless `schema` is None, does not
    carry that schema tag.  `what` names the document in messages.
    """
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            with open(path, encoding="utf-8") as fh:
                source = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {what} file {path}: "
                              f"{exc.strerror or exc}") from None
        except ValueError as exc:  # invalid UTF-8 or invalid JSON
            raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(source, dict):
        raise SchemaError(f"{what} document must be a JSON object, "
                          f"got {type(source).__name__}")
    if schema is not None and source.get("schema") != schema:
        raise SchemaError(f"{what} document must carry schema {schema!r}, "
                          f"got {source.get('schema')!r}")
    return source
