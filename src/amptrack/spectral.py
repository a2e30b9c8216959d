"""Windowed power spectra and harmonic-comb analysis.

The emission spectrum of a driven system is the power spectrum of the
time derivative of its tracked observable (the acceleration for a grid
atom, the current derivative for a lattice).  This module computes such
spectra, locates the harmonic plateau, and detects the cutoff order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .exceptions import NumericalError
from .series import TimeSeries

__all__ = [
    "Spectrum",
    "OrderPeak",
    "SpectrumComparison",
    "power_spectrum",
    "harmonic_peaks",
    "detect_cutoff_order",
    "compare_spectra",
]


@dataclass
class Spectrum:
    """One-sided power spectrum on an ascending nonnegative frequency grid."""

    omega: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        if self.omega.ndim != 1 or self.omega.shape != self.power.shape:
            raise ValueError("omega and power must be matching 1-D arrays")
        if self.omega.size == 0:
            raise ValueError("frequency grid is empty")
        bad = np.flatnonzero(~np.isfinite(self.omega))
        if bad.size:
            raise ValueError(f"frequency grid has a non-finite value at index {bad[0]}")
        if self.omega[0] < 0 or np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be nonnegative and ascending")


@dataclass(frozen=True)
class OrderPeak:
    """Peak power of one harmonic order and whether it is an interior maximum."""

    order: int
    power_db: float
    interior: bool


@dataclass
class SpectrumComparison:
    cutoff_a: float
    cutoff_b: float
    delta_orders: int
    orders: list
    ratios_db: list

    def as_dict(self) -> dict:
        return {
            "cutoff_a": self.cutoff_a,
            "cutoff_b": self.cutoff_b,
            "delta_orders": self.delta_orders,
            "plateau_orders": list(self.orders),
            "peak_ratios_db": list(self.ratios_db),
        }


_WINDOWS = ("none", "hann")


def power_spectrum(series: TimeSeries, window: str = "hann") -> Spectrum:
    """One-sided power spectrum of a real series, zero-padded to 2^m.

    The normalization makes Parseval exact: the sum of the returned power
    equals the sum of squares of the windowed samples.  A NaN or inf
    sample raises ValueError, which names the first.
    """
    if len(series) < 16:
        raise ValueError("need at least 16 samples for a spectrum")
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}, expected one of {_WINDOWS}")
    x = series.values
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"series has {bad.size} non-finite samples, the first "
                         f"at index {bad[0]} (t = {series.t0 + bad[0] * series.dt:g})")
    n = x.size
    if window == "hann":
        x = x * np.hanning(n)
    nfft = 1 << (n - 1).bit_length()
    amps = sfft.rfft(x, nfft)
    power = np.abs(amps) ** 2 / nfft
    # one-sided: interior bins carry their negative-frequency twins
    power[1:] *= 2.0
    if nfft % 2 == 0:
        power[-1] /= 2.0
    omega = 2.0 * math.pi * sfft.rfftfreq(nfft, d=series.dt)
    return Spectrum(omega=omega, power=power)


def _order_windows(spectrum: Spectrum, omega0: float):
    """Bin ranges [(n-1/2) w0, (n+1/2) w0) for each whole harmonic order."""
    if not omega0 > 0:
        raise ValueError("omega0 must be positive")
    n_max = int(math.floor(spectrum.omega[-1] / omega0 - 0.5))
    edges = (np.arange(1, n_max + 2) - 0.5) * omega0
    idx = np.searchsorted(spectrum.omega, edges)
    return [(n, idx[n - 1], idx[n]) for n in range(1, n_max + 1)]


def harmonic_peaks(spectrum: Spectrum, omega0: float) -> dict:
    """Peak level per harmonic order, in dB, with interior-maximum flags.

    A peak counts as interior when the in-window maximum is strictly inside
    the order window and stands at least 1 dB above both window edges; a
    smooth leakage skirt fails this, a genuine comb line passes.
    """
    peaks = {}
    with np.errstate(divide="ignore"):
        log_power = 10.0 * np.log10(np.maximum(spectrum.power, 1e-300))
    for n, lo, hi in _order_windows(spectrum, omega0):
        if hi - lo < 3:
            continue
        seg = log_power[lo:hi]
        imax = int(np.argmax(seg))
        interior = (
            0 < imax < seg.size - 1
            and seg[imax] >= seg[0] + 1.0
            and seg[imax] >= seg[-1] + 1.0
        )
        peaks[n] = OrderPeak(order=n, power_db=float(seg[imax]), interior=interior)
    return peaks


# plateau selection: band below the strongest usable peak, floor below
# the spectral maximum, and the fewest usable odd orders for a plateau
_PLATEAU_BAND_DB = 30.0
_FLOOR_DB = 100.0
_MIN_PLATEAU_ORDERS = 3


def detect_cutoff_order(
    spectrum: Spectrum, omega0: float, drop_db: float = 20.0
) -> int:
    """Highest odd harmonic order still within ``drop_db`` of the plateau.

    The plateau is the set of odd orders >= 3 whose peaks are interior
    maxima within ``_PLATEAU_BAND_DB`` of the strongest such peak and
    within ``_FLOOR_DB`` of the overall spectral maximum; its median level
    minus ``drop_db`` is the cutoff threshold.  Raises a detection error
    when fewer than ``_MIN_PLATEAU_ORDERS`` odd orders are usable
    (featureless or monochromatic input).
    """
    return _cutoff_order(harmonic_peaks(spectrum, omega0), drop_db)


def _cutoff_order(peaks: dict, drop_db: float) -> int:
    """The cutoff rule of `detect_cutoff_order` on a `harmonic_peaks` table."""
    if not peaks:
        raise NumericalError("spectrum too narrow for harmonic analysis")
    anchor = max(p.power_db for p in peaks.values())
    candidates = [
        p
        for p in peaks.values()
        if p.order >= 3 and p.order % 2 == 1 and p.interior
        and p.power_db >= anchor - _FLOOR_DB
    ]
    if len(candidates) < _MIN_PLATEAU_ORDERS:
        raise NumericalError(
            f"no harmonic plateau: {len(candidates)} usable odd orders"
        )
    top = max(p.power_db for p in candidates)
    plateau = [p for p in candidates if p.power_db >= top - _PLATEAU_BAND_DB]
    threshold = float(np.median([p.power_db for p in plateau])) - drop_db
    above = [p.order for p in candidates if p.power_db >= threshold]
    return max(above)


def compare_spectra(
    a: Spectrum, b: Spectrum, omega0: float, drop_db: float = 20.0
) -> SpectrumComparison:
    """Cutoff difference and per-order peak ratios over the shared plateau."""
    peaks_a = harmonic_peaks(a, omega0)
    order_a = _cutoff_order(peaks_a, drop_db)
    peaks_b = harmonic_peaks(b, omega0)
    order_b = _cutoff_order(peaks_b, drop_db)
    shared = [
        n
        for n in range(3, min(order_a, order_b) + 1, 2)
        if n in peaks_a and n in peaks_b
    ]
    ratios = [peaks_a[n].power_db - peaks_b[n].power_db for n in shared]
    return SpectrumComparison(
        cutoff_a=order_a * omega0,
        cutoff_b=order_b * omega0,
        delta_orders=abs(order_a - order_b),
        orders=shared,
        ratios_db=ratios,
    )
