"""Driving fields and strong-field scaling laws.

Transform-limited sin^2 pulses, the ponderomotive energy, the harmonic
cutoff law, and the two intensity-matching rules that give a new atom the
same cutoff (harmonic route) or the same photoelectron peak comb
(ionization route) as a reference atom.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import _require, _require_int

__all__ = [
    "PulseSpec",
    "CUTOFF_SLOPE",
    "HHG_MATCH_PREFACTOR",
    "evaluate_tl_field",
    "ponderomotive_energy",
    "hhg_cutoff",
    "hhg_matched_field",
    "ati_matched_field",
]

# Cutoff-law slope and field-matching prefactor, kept at their customary
# printed precision rather than the algebraically exact 2/sqrt(3.17); the
# resulting 0.6% round-trip gap is a tested property, not a bug.
CUTOFF_SLOPE = 3.17
HHG_MATCH_PREFACTOR = 1.12


@dataclass(frozen=True)
class PulseSpec:
    """Transform-limited pulse: E0 * cos(omega0 t) * sin^2(pi t / T).

    Parameters
    ----------
    e0 : float
        Peak field amplitude, >= 0 and finite, in program units.
    omega0 : float
        Carrier angular frequency, > 0 and finite, in rad per program
        time unit.
    cycles : int
        Number of carrier cycles under the envelope, >= 1.

    The duration ``T = 2 pi cycles / omega0`` is always derived, never
    stored, so it cannot drift out of sync with the carrier.
    """

    e0: float
    omega0: float
    cycles: int

    def __post_init__(self):
        _require("nonnegative", e0=self.e0)
        _require("positive", omega0=self.omega0)
        object.__setattr__(self, "cycles", _require_int("cycles", self.cycles, 1))

    @property
    def duration(self) -> float:
        return 2.0 * math.pi * self.cycles / self.omega0

    def n_steps(self, dt: float) -> int:
        """Steps of ``dt`` covering the pulse; the 1e-12 allowance keeps a
        rounding error in ``duration / dt`` from adding a step."""
        return int(math.ceil(self.duration / dt - 1e-12))


def evaluate_tl_field(t, spec: PulseSpec):
    """Transform-limited field at time(s) ``t``.

    Exactly zero outside [0, T]; the pulse has compact support by
    construction.  Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    T = spec.duration
    inside = (t >= 0.0) & (t <= T)
    envelope = np.sin(np.pi * np.where(inside, t, 0.0) / T) ** 2
    field = spec.e0 * np.cos(spec.omega0 * t) * envelope
    out = np.where(inside, field, 0.0)
    return float(out) if out.ndim == 0 else out


def ponderomotive_energy(field: float, omega: float) -> float:
    """Cycle-averaged quiver energy Up = (F / 2 omega)^2."""
    _require(field=field)
    _require("positive", omega=omega)
    return (field / (2.0 * omega)) ** 2


def hhg_cutoff(field: float, omega: float, ip: float) -> float:
    """Maximum emitted frequency 3.17 Up + Ip of the harmonic plateau."""
    _require(field=field)
    _require("positive", omega=omega, ip=ip)
    return CUTOFF_SLOPE * ponderomotive_energy(field, omega) + ip


def hhg_matched_field(omega: float, cutoff: float, ip_new: float) -> float:
    """Field that gives a new atom the same harmonic cutoff.

    F' = 1.12 * omega * sqrt(cutoff - ip_new).  Because the prefactor is
    the printed 1.12 rather than 2/sqrt(3.17), recomputing the cutoff from
    F' lands within 1% of the target rather than exactly on it.
    """
    _require(cutoff=cutoff)
    _require("positive", omega=omega, ip_new=ip_new)
    if not cutoff >= ip_new:
        raise ValueError(
            f"target cutoff {cutoff} below the new ionization potential {ip_new}"
        )
    return HHG_MATCH_PREFACTOR * omega * math.sqrt(cutoff - ip_new)


def ati_matched_field(omega: float, field: float, ip: float, ip_new: float) -> float:
    """Field that keeps the photoelectron peak comb of a reference atom.

    F' = 2 omega * sqrt(Up + Ip - Ip'), which enforces Up' + Ip' = Up + Ip
    exactly, so every n-photon peak position is preserved.
    """
    _require(field=field)
    _require("positive", omega=omega, ip=ip, ip_new=ip_new)
    budget = ponderomotive_energy(field, omega) + ip - ip_new
    if not budget >= 0:
        raise ValueError(
            f"Up + Ip = {ponderomotive_energy(field, omega) + ip} is below "
            f"the new ionization potential {ip_new}"
        )
    return 2.0 * omega * math.sqrt(budget)
