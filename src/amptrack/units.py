"""Physical-unit conversions used at the configuration boundary.

All propagation code runs in atomic units (atom platform) or in hopping
units t0 = hbar = a = 1 (lattice platform).  Laboratory units appear only
when a config file is parsed, through the helpers below.
"""

import math

# 1 hartree in eV
HARTREE_EV = 27.2114

# Planck constant in eV*s (photon energy per unit ordinary frequency)
PLANCK_EV_S = 4.135667696e-15

# vacuum speed of light in m/s
SPEED_OF_LIGHT_M_S = 2.99792458e8

# 1 atomic unit of intensity (E^2 in a.u.) in W/cm^2
INTENSITY_AU_W_CM2 = 3.50945e16


def ev_to_au(energy_ev: float) -> float:
    return energy_ev / HARTREE_EV


def thz_to_ev(frequency_thz: float) -> float:
    """Photon energy in eV for an ordinary (not angular) frequency in THz."""
    return PLANCK_EV_S * frequency_thz * 1e12


def intensity_to_au_field(intensity_w_cm2: float) -> float:
    """Peak field amplitude in a.u. for a given intensity in W/cm^2."""
    return math.sqrt(intensity_w_cm2 / INTENSITY_AU_W_CM2)


def wavelength_nm_to_au_angular(wavelength_nm: float) -> float:
    """Angular frequency in a.u. for a vacuum wavelength in nm."""
    photon_ev = PLANCK_EV_S * SPEED_OF_LIGHT_M_S / (wavelength_nm * 1e-9)
    return ev_to_au(photon_ev)
