"""Each output check passes on a clean record and fails on a corrupted one.

    python3 -m pytest -q perfbench/tests

The records are small synthetic ones with the properties the workloads'
records have, so the suite runs in seconds.
"""

import math

import numpy as np
import pytest

import checks
from amptrack.config import build_system, parse_config
from amptrack.series import TimeSeries
from amptrack.spectral import compare_spectra, power_spectrum
from spans import Tracer

DT = 0.005
K_P = 1000.0


@pytest.fixture
def tracked():
    """A tracking record whose control obeys the closed-form law."""
    t = DT * np.arange(2001)
    y = 3.0 * np.sin(4.43 * t) * np.sin(math.pi * t / t[-1]) ** 2
    response = y + 1e-4 * np.cos(9.0 * t)
    u = K_P * (response - y)
    return {"t": t, "y": y, "response": response, "u": u}


@pytest.fixture
def open_loop():
    """A current and its exact rate, as an open-loop record carries them."""
    t = DT * np.arange(2001)
    omega = 4.43
    current = np.sin(omega * t) + 0.2 * np.sin(3 * omega * t)
    y = omega * np.cos(omega * t) + 0.6 * omega * np.cos(3 * omega * t)
    return current, y


def test_residual(tracked):
    assert checks.residual(tracked["response"], tracked["y"]).ok
    y = tracked["y"].copy()
    y[1000] += 10.0  # one perturbed y sample
    assert not checks.residual(tracked["response"], y).ok


def test_control_law(tracked):
    args = (tracked["response"], tracked["y"], K_P)
    assert checks.control_law(tracked["u"], *args).ok
    u = tracked["u"].copy()
    u[700] += 1e-6
    assert not checks.control_law(u, *args).ok


@pytest.mark.parametrize("channel", ["u", "response", "y"])
def test_finite_and_nan_propagation(tracked, channel):
    assert checks.finite(tracked).ok
    bad = dict(tracked)
    bad[channel] = tracked[channel].copy()
    bad[channel][123] = np.nan
    assert not checks.finite(bad).ok
    assert not checks.control_law(bad["u"], bad["response"], bad["y"], K_P).ok
    if channel != "u":
        assert not checks.residual(bad["response"], bad["y"]).ok


def test_read_back_is_bit_for_bit(tracked):
    y = tracked["y"]
    assert checks.bitwise_equal(y.copy(), y).ok
    read = y.copy()
    read[55] = np.nextafter(read[55], np.inf)
    assert not checks.bitwise_equal(read, y).ok
    assert not checks.bitwise_equal(y[:-1], y).ok


def test_ground_energy():
    assert checks.ground_energy(-0.578987, 0.579).ok
    assert not checks.ground_energy(-0.5788, 0.579).ok
    assert not checks.ground_energy(float("nan"), 0.579).ok


def test_central_difference(open_loop):
    current, y = open_loop
    assert checks.central_difference(current, y, DT).ok
    bad = y.copy()
    bad[900] += 1e-2 * np.sqrt(np.mean(y**2))  # one perturbed y sample
    assert not checks.central_difference(current, bad, DT).ok
    bad_current = current.copy()
    bad_current[900] = np.nan
    assert not checks.central_difference(bad_current, y, DT).ok


def _comb(top_order: int, scale: float = 1.0) -> TimeSeries:
    """Odd harmonics 1..top_order of omega0 = 1 under a sin^2 envelope."""
    dt, cycles = 0.05, 20
    t = dt * np.arange(int(2 * math.pi * cycles / dt) + 1)
    env = np.sin(math.pi * t / t[-1]) ** 2
    x = sum(np.cos(n * t) for n in range(1, top_order + 1, 2))
    return TimeSeries(0.0, dt, scale * env * x)


def test_imposter_spectra():
    reference = power_spectrum(_comb(11))
    same = checks.imposter(compare_spectra(reference, power_spectrum(_comb(11)), 1.0))
    assert all(c.ok for c in same)
    # cutoff moved up by one harmonic of the odd comb
    shifted = checks.imposter(compare_spectra(reference, power_spectrum(_comb(13)), 1.0))
    assert [c.ok for c in shifted] == [False, True]
    # plateau 0.83 dB too strong
    louder = checks.imposter(
        compare_spectra(reference, power_spectrum(_comb(11, 1.1)), 1.0))
    assert [c.ok for c in louder] == [True, False]


def test_gain_ladder():
    assert checks.gain_ladder({10.0: 3.0e-2, 100.0: 3.0e-3, 1000.0: 3.0e-4}).ok
    assert not checks.gain_ladder({10.0: 3.0e-2, 100.0: 3.0e-3, 1000.0: 4.0e-3}).ok
    assert not checks.gain_ladder({10.0: 3.0e-2, 100.0: 1.0e-3, 1000.0: 1.0e-4}).ok
    assert not checks.gain_ladder({10.0: 3.0e-2, 100.0: np.nan, 1000.0: 3e-4}).ok


def test_self_tracking():
    zero = np.zeros(100)
    assert checks.self_tracking(zero, zero).ok
    u = zero.copy()
    u[50] = 1e-300
    assert not checks.self_tracking(u, zero).ok
    assert not checks.self_tracking(zero, np.full(100, np.nan)).ok


def test_dense_oracle_matches_lanczos(tmp_path):
    cfg_text = (
        "[experiment]\nplatform = hubbard\nk_p = 1000\n"
        "[pulse]\nomega0_over_t0 = 4.43\ne0_over_t0 = 2.61\ncycles = 1\n"
        "[lattice]\nsites = 4\n[reference]\nu_over_t0 = 10\n"
        "[driven]\nu_over_t0 = 1\n"
    )
    path = tmp_path / "ring4.cfg"
    path.write_text(cfg_text)
    system = build_system(parse_config(path), "reference")
    system.initial_state()
    dense = checks.dense_hubbard_ground_energy(4, 2, 2, 1.0, 10.0)
    assert checks.dense_energy(system.ground_energy, dense).ok
    assert not checks.dense_energy(system.ground_energy + 1e-7, dense).ok


def test_tracer_self_time():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(10000)))
    outer = tracer.wrap("a.outer", lambda: (inner(), inner()))
    outer()
    totals = tracer.totals()
    count, incl, self_s, top = totals["a.outer"]
    assert count == 1 and incl > 0 and top == incl
    assert totals["b.inner"][0] == 2
    assert self_s == pytest.approx(incl - totals["b.inner"][1], abs=1e-12)
