"""Exception types shared across the package.

Invalid input raises ValueError, of which ConfigError is the config
parser's and the CLI flags' kind; a solve that cannot meet its target
raises NumericalError.
"""


class ConfigError(ValueError):
    """Invalid, missing, or unknown configuration input."""


class NumericalError(Exception):
    """A solve failed: no convergence, no solution, or no feature found.

    ``residual`` is the solver's residual when it has one.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
