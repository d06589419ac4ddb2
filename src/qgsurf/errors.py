"""Exception hierarchy shared across the package, the violation record
that validation errors carry, and the recognition of the interpreter's
digit limit."""

import sys
from typing import NamedTuple


class Violation(NamedTuple):
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}[{self.subject}]: {self.detail}"


class QgsurfError(Exception):
    """Base class for all package errors."""


class SchemaError(QgsurfError):
    """Malformed input document: unknown field, missing field, bad type."""


class UnknownCurveError(QgsurfError):
    """A curve name does not resolve in the configuration."""


class ValidationError(QgsurfError):
    """A configuration failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class SingularMatrixError(QgsurfError):
    """solve_unique was given a square matrix with zero determinant."""


class InvalidFractionError(QgsurfError):
    """chain_from_fraction needs m > q >= 1 with gcd(m, q) = 1."""


class NotClassTError(QgsurfError):
    """index() was asked for a chain the recognizer rejects."""


class UnknownTagError(QgsurfError):
    """Unrecognized Kodaira fiber tag."""


class UnknownExampleError(QgsurfError):
    """No built-in example with that name."""


class MissingPointDataError(QgsurfError):
    """A positive pairing entry inside an SNC divisor has no declared points."""


class PlanInvalidError(ValidationError):
    """A contraction plan with outstanding violations was used for invariants."""


class DomainError(QgsurfError):
    """Operation invoked outside its stated domain (e.g. chi != 1)."""


def digit_limit(exc: Exception) -> int | None:
    """The interpreter's digit limit for conversion between integers and
    text when ``exc`` is its refusal to convert, either way, else None; a
    Python without the limit (3.10 before 3.10.7) has no refusal."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit is not None else 0
    if limit and str(exc).startswith(f"Exceeds the limit ({limit} digits)"):
        return limit
    return None
