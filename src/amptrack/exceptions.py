"""Exception types shared across the package, and the rule for numbers.

Invalid input raises ValueError, of which ConfigError is the config
parser's kind; a solve that cannot meet its target raises
NumericalError.  A number from outside is checked by `_require`, a
whole number and its bounds by `_require_int`, a sequence of samples by
`_check_samples`, and nothing else checks any of them: a config key, a
CLI flag or a CSV column only adds its name.
"""

import math
import operator

import numpy as np

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


def _require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int (by `operator.index`, so 2.0 and "2" are not),
    else ValueError naming ``name``; it must lie in [lo, hi], or be at
    least ``lo`` when ``hi`` is None."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < lo or hi is not None and n > hi:
        bound = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{name} must {bound}, got {n}")
    return n


def _check_samples(what: str, values) -> None:
    """Reject a sequence holding NaN or inf, naming the count and first step."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{what} has {bad.size} non-finite samples, the first at step {bad[0]}"
        )
