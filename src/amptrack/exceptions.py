"""Exception types shared across the package."""


class AmptrackError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AmptrackError):
    """Invalid, missing, or unknown configuration input."""


class InfeasibleTargetError(AmptrackError, ValueError):
    """An intensity-matching target cannot be reached with a real field."""


class CalibrationError(AmptrackError):
    """Softening-parameter calibration failed (target not bracketed)."""


class ConvergenceError(AmptrackError):
    """An iterative solver missed its tolerance, or a solve had no solution."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class StepSizeError(AmptrackError):
    """A propagation step could not meet its accuracy target at the given dt."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DetectionError(AmptrackError):
    """Spectral feature detection failed (featureless or degenerate input)."""


class GridMismatchError(AmptrackError):
    """Reference signal and driven propagation do not share one time grid."""
