"""Exception hierarchy shared across the package.

Two families matter for the command line contract: configuration or
precondition problems (user error, exit code 2) and numerical failures
(a theory check did not hold or an iteration did not converge, exit
code 1).
"""

from contextlib import contextmanager

import numpy as np


class ConfigError(ValueError):
    """Bad configuration, malformed input, or a violated precondition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: no certificate, divergence, NaN."""


@contextmanager
def overflow_is_numerical(stage: str):
    """Raise :class:`NumericalError` naming ``stage`` at the first
    floating-point overflow in the block (or the decorated function),
    where numpy would warn and carry an inf on."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as err:
        raise NumericalError(f"{stage}: {err}") from None


class ExprParseError(ConfigError):
    """Expression source could not be parsed.

    Carries the character offset of the first offending position.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprParseError):
    pass


class ArityError(ExprParseError):
    pass


class UnboundVariableError(ConfigError):
    """Evaluation requested with a free variable missing from the bindings."""


class DomainFaultError(NumericalError):
    """Evaluation hit a numeric domain fault (log of a nonpositive value,
    zero to a negative power, division by zero, non-integer power of a
    negative base, overflow).  ``point`` holds the bindings at the first
    point where the fault occurs."""

    def __init__(self, message: str, expression: str, point: dict | None = None):
        where = ""
        if point:
            where = " at " + ", ".join(f"{k}={v!r}" for k, v in sorted(point.items()))
        super().__init__(f"{message} in '{expression}'{where}")
        self.expression = expression
        self.point = point
