"""Uniformly sampled real time series."""

from dataclasses import dataclass

import numpy as np

from .exceptions import _require

_GRID_TOL = 1e-12  # same_grid's tolerance, relative to dt and to max(1, |t0|)


@dataclass
class TimeSeries:
    """A real signal sampled on a uniform time grid.

    Parameters
    ----------
    t0 : float
        Time of the first sample, finite.
    dt : float
        Sample spacing, positive and finite.
    values : ndarray
        Real samples, at least two.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _require(t0=self.t0)
        _require("positive", dt=self.dt)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need a 1-D series with at least two samples")

    def __len__(self) -> int:
        return self.values.size

    def same_grid(self, other: "TimeSeries") -> bool:
        return (
            len(self) == len(other)
            and abs(self.t0 - other.t0) <= _GRID_TOL * max(1.0, abs(self.t0))
            and abs(self.dt - other.dt) <= _GRID_TOL * self.dt
        )

