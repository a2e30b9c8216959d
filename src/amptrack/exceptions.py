"""Exception types shared across the package, and the rule for numbers.

Invalid input raises ValueError, of which ConfigError is the config
parser's and the CLI flags' kind; a solve that cannot meet its target
raises NumericalError.  A numeric argument is checked by `_require`.
"""

import math

_RULES = {None: lambda value: True, "positive": lambda value: value > 0,
          "nonnegative": lambda value: value >= 0}


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration input."""


class NumericalError(Exception):
    """A solve failed: no convergence, no solution, or no feature found.

    ``residual`` is the solver's residual when it has one.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _require(rule: str | None = None, **values) -> None:
    """Raise ValueError naming the first of ``values`` that is not a finite
    real number (a string or None is not), or that breaks ``rule``:
    ``"positive"`` or ``"nonnegative"``.  So the CLI reports it as bad
    input (exit 2), not as a TypeError."""
    holds = _RULES[rule]
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")
        if not holds(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")
