import pytest

from amptrack import units


def test_hartree_round_trip():
    assert units.ev_to_au(13.9) * units.HARTREE_EV == pytest.approx(13.9, rel=1e-15)
    assert units.ev_to_au(27.2114) == 1.0


def test_argon_ionization_potential():
    # 15.76 eV is 0.579 hartree
    assert units.ev_to_au(15.76) == pytest.approx(0.579, abs=5e-4)


def test_photon_energy_375_thz():
    assert units.thz_to_ev(375.0) == pytest.approx(1.5509, abs=2e-4)


def test_lattice_dimensionless_carrier():
    # hbar omega0 / t0 for a 375 THz carrier on a 0.35 eV bandwidth chain
    assert units.thz_to_ev(375.0) / 0.35 == pytest.approx(4.43, abs=0.005)


def test_800nm_carrier_in_au():
    assert units.wavelength_nm_to_au_angular(800.0) == pytest.approx(0.0569, abs=2e-4)


def test_standard_intensity_field():
    assert units.intensity_to_au_field(1e14) == pytest.approx(0.0534, abs=2e-4)
