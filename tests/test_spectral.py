import math
import re

import numpy as np
import pytest

from amptrack import NumericalError, TimeSeries
from amptrack.spectral import (
    Spectrum,
    compare_spectra,
    detect_cutoff_order,
    harmonic_peaks,
    power_spectrum,
)


def make_series(values, dt=0.05):
    return TimeSeries(0.0, dt, np.asarray(values, dtype=float))


def comb_series(omega0=1.0, dt=0.05, n=4096, odd_orders=(), amplitudes=None,
                fundamental=1.0, extra=()):
    t = dt * np.arange(n)
    x = fundamental * np.cos(omega0 * t)
    if amplitudes is None:
        amplitudes = [0.05] * len(odd_orders)
    for order, amp in zip(odd_orders, amplitudes):
        x += amp * np.cos(order * omega0 * t + 0.3 * order)
    for order, amp in extra:
        x += amp * np.cos(order * omega0 * t)
    return make_series(x, dt)


class TestPowerSpectrum:
    def test_single_bin_for_integer_period_cosine(self):
        # 32 periods in 1024 samples, no padding needed, no window
        n, dt = 1024, 0.1
        omega0 = 2 * math.pi * 32 / (n * dt)
        t = dt * np.arange(n)
        spec = power_spectrum(make_series(np.cos(omega0 * t), dt), window="none")
        k = int(np.argmax(spec.power))
        assert abs(spec.omega[k] - omega0) < 1e-12
        rest = np.delete(spec.power, k)
        assert rest.max() < 1e-20 * spec.power[k]

    @pytest.mark.parametrize("window", ["none", "hann"])
    @pytest.mark.parametrize("n", [1000, 1024, 4097])
    def test_parseval(self, window, n):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n)
        series = make_series(x, dt=0.02)
        spec = power_spectrum(series, window=window)
        xw = x * np.hanning(n) if window == "hann" else x
        assert spec.power.sum() == pytest.approx((xw**2).sum(), rel=1e-10)

    def test_axis_peaks_up_to_nyquist(self):
        n, dt = 2048, 0.05
        omega0 = 1.0
        t = dt * np.arange(n)
        nyquist = math.pi / dt
        for order in (1, 5, 17, 43, 61):
            assert order * omega0 < nyquist
            spec = power_spectrum(make_series(np.cos(order * omega0 * t), dt),
                                  window="hann")
            k = int(np.argmax(spec.power))
            domega = spec.omega[1] - spec.omega[0]
            assert abs(spec.omega[k] - order * omega0) <= domega

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            power_spectrum(make_series(np.zeros(8)))

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError):
            power_spectrum(make_series(np.zeros(64)), window="kaiser")

    def test_spectrum_type_rejects_descending_axis(self):
        with pytest.raises(ValueError):
            Spectrum(omega=np.array([1.0, 0.5]), power=np.array([1.0, 1.0]))

    def test_spectrum_type_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError,
                           match="^omega and power must be matching 1-D arrays$"):
            Spectrum(omega=np.array([0.0, 1.0, 2.0]), power=np.array([1.0, 1.0]))

    def test_spectrum_type_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="frequency grid is empty"):
            Spectrum(omega=np.array([]), power=np.array([]))

    @pytest.mark.parametrize("omega", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0]])
    def test_spectrum_type_rejects_nan_frequency(self, omega):
        # NaN fails every comparison, so the ordering check alone passes it
        with pytest.raises(ValueError, match="non-finite value at index"):
            Spectrum(omega=np.array(omega), power=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrum_type_rejects_non_finite_power(self, bad):
        # a NaN bin would reach detect_cutoff_order, which reads past it
        with pytest.raises(ValueError, match="^power has 1 non-finite samples, "
                                             "the first at step 1$"):
            Spectrum(omega=np.array([0.0, 0.5, 1.0]), power=np.array([1.0, bad, 1.0]))


class TestCutoffDetection:
    def test_hard_comb_cutoff(self):
        series = comb_series(odd_orders=range(3, 23, 2))
        spec = power_spectrum(series, window="hann")
        assert detect_cutoff_order(spec, 1.0) * 1.0 == pytest.approx(21.0)

    def test_drop_threshold_is_configurable(self):
        # one weak line 25 dB below the plateau, past the hard comb
        series = comb_series(odd_orders=range(3, 23, 2),
                             extra=[(23, 0.05 * 10 ** (-25 / 20))])
        spec = power_spectrum(series, window="hann")
        assert detect_cutoff_order(spec, 1.0, drop_db=20.0) == 21
        assert detect_cutoff_order(spec, 1.0, drop_db=30.0) == 23

    def test_weak_even_lines_do_not_set_the_cutoff(self):
        series = comb_series(odd_orders=range(3, 23, 2),
                             extra=[(n, 0.05 * 10 ** (-30 / 20))
                                    for n in range(4, 24, 2)])
        spec = power_spectrum(series, window="hann")
        assert detect_cutoff_order(spec, 1.0) == 21

    def test_monochromatic_input_raises(self):
        t = 0.05 * np.arange(937)
        spec = power_spectrum(make_series(np.cos(1.37 * t), dt=0.05), window="hann")
        with pytest.raises(NumericalError, match="no harmonic plateau"):
            detect_cutoff_order(spec, 1.37) * 1.37

    def test_spectrum_without_a_harmonic_raises(self):
        # at omega0 = 1 no order window on the grid [0, 3] spans three bins
        spec = Spectrum(omega=[0.0, 1.0, 2.0, 3.0], power=[1.0] * 4)
        with pytest.raises(NumericalError,
                           match="^spectrum too narrow for harmonic analysis$"):
            detect_cutoff_order(spec, 1.0)

    def test_noise_free_flat_input_raises(self):
        spec = power_spectrum(make_series(np.ones(512), dt=0.05), window="none")
        with pytest.raises(NumericalError, match="no harmonic plateau"):
            detect_cutoff_order(spec, 1.0) * 1.0

    def test_peak_table_flags_interior_maxima(self):
        series = comb_series(odd_orders=(3, 5, 7))
        spec = power_spectrum(series, window="hann")
        peaks = harmonic_peaks(spec, 1.0)
        for n in (3, 5, 7):
            assert peaks[n].interior
        # levels of the constructed lines are equal to within a fraction of a dB
        assert abs(peaks[3].power_db - peaks[7].power_db) < 0.5

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_omega0(self, omega0):
        # inf is bad input (a ValueError), not a spectrum too narrow to analyse
        spec = power_spectrum(comb_series(odd_orders=(3, 5)), window="hann")
        rule = "positive" if math.isfinite(omega0) else "finite"
        for find in (detect_cutoff_order, harmonic_peaks):
            with pytest.raises(ValueError, match=f"^omega0 must be {rule}, got"):
                find(spec, omega0)

    @pytest.mark.parametrize("drop_db", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_nonpositive_drop_db(self, drop_db):
        spec = power_spectrum(comb_series(odd_orders=range(3, 23, 2)), window="hann")
        rule = "positive" if math.isfinite(drop_db) else "finite"
        message = f"drop_db must be {rule}, got {drop_db!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            detect_cutoff_order(spec, 1.0, drop_db=drop_db)
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_spectra(spec, spec, 1.0, drop_db=drop_db)


class TestCompareSpectra:
    def test_identical_spectra_have_zero_difference(self):
        series = comb_series(odd_orders=range(3, 23, 2))
        spec = power_spectrum(series, window="hann")
        report = compare_spectra(spec, spec, 1.0)
        assert report.delta_orders == 0
        assert all(r == 0.0 for r in report.ratios_db)

    def test_shorter_comb_reports_order_gap(self):
        a = power_spectrum(comb_series(odd_orders=range(3, 23, 2)), window="hann")
        b = power_spectrum(comb_series(odd_orders=range(3, 19, 2)), window="hann")
        report = compare_spectra(a, b, 1.0)
        assert report.delta_orders == 4
        assert report.orders == list(range(3, 18, 2))
        assert max(abs(r) for r in report.ratios_db) < 1.0

    def test_non_finite_sample_is_named_not_a_missing_plateau(self):
        series = comb_series(odd_orders=range(3, 23, 2))
        series.values[1000] = math.nan
        with pytest.raises(ValueError, match=re.escape(
                "series has 1 non-finite samples, the first at step 1000")):
            compare_spectra(power_spectrum(series), power_spectrum(series), 1.0)
