"""Round-trip and determinism tests for the CSV/JSON writers."""

import numpy as np
import pytest

from amptrack.feedback import RunRecord
from amptrack.spectral import Spectrum
from amptrack import storage


def reference_record(n=7, platform="atom"):
    rng = np.random.default_rng(11)
    names = ("p", "force") if platform == "atom" else ("current", "kinetic", "phase")
    channels = {name: rng.normal(size=n) for name in names}
    channels["e_total"] = rng.normal(size=n)
    channels["y"] = rng.normal(size=n)
    return RunRecord(dt=0.05, channels=channels)


def tracking_record(n=9):
    rng = np.random.default_rng(5)
    names = ("p", "force", "e_total", "u", "response", "y")
    channels = {name: rng.normal(size=n) for name in names}
    channels["residual"] = channels["response"] - channels["y"]
    channels["guard"] = np.zeros(n)
    channels["guard"][[2, 5]] = 1.0
    return RunRecord(dt=0.01, channels=channels, k_p=10.0)


class TestReferenceCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        record = reference_record()
        path = tmp_path / "reference.csv"
        storage.write_reference_csv(path, record, "atom")
        table = storage.read_table(path)
        assert table.header == storage.REFERENCE_COLUMNS["atom"]
        for name in ("p", "force", "e_total", "y"):
            assert np.array_equal(table.columns[name], record.channels[name])

    def test_hubbard_column_order(self, tmp_path):
        record = reference_record(platform="hubbard")
        path = tmp_path / "reference.csv"
        storage.write_reference_csv(path, record, "hubbard")
        header = path.read_text().splitlines()[0]
        assert header == "t,current,kinetic,phase,e_total,y"

    def test_writes_are_byte_identical(self, tmp_path):
        record = reference_record()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        storage.write_reference_csv(a, record, "atom")
        storage.write_reference_csv(b, record, "atom")
        assert a.read_bytes() == b.read_bytes()

    def test_stride_keeps_every_kth_row(self, tmp_path):
        record = reference_record(n=10)
        path = tmp_path / "reference.csv"
        storage.write_reference_csv(path, record, "atom", stride=3)
        table = storage.read_table(path)
        assert len(table) == 4  # rows 0, 3, 6, 9
        assert np.array_equal(table.columns["y"], record.channels["y"][::3])
        series = table.series("y")
        assert series.dt == pytest.approx(3 * record.dt)


class TestTrackingCsv:
    def test_round_trip_and_guard_flags(self, tmp_path):
        result = tracking_record()
        path = tmp_path / "tracking.csv"
        storage.write_tracking_csv(path, result, "atom")
        table = storage.read_table(path)
        assert table.header == storage.TRACKING_COLUMNS["atom"]
        assert np.array_equal(table.columns["u"], result.u)
        assert np.array_equal(table.columns["residual"], result.residual)
        guard = table.columns["guard"]
        assert np.array_equal(np.flatnonzero(guard), [2, 5])
        assert np.array_equal(result.guard_trips, [2, 5])
        assert set(np.unique(guard)) <= {0.0, 1.0}

    def test_series_reconstruction(self, tmp_path):
        result = tracking_record()
        path = tmp_path / "tracking.csv"
        storage.write_tracking_csv(path, result, "atom")
        series = storage.read_table(path).series("response")
        assert series.t0 == 0.0
        assert series.dt == result.dt
        assert np.array_equal(series.values, result.response)

    def test_missing_column_names_the_alternatives(self, tmp_path):
        record = reference_record()
        path = tmp_path / "reference.csv"
        storage.write_reference_csv(path, record, "atom")
        with pytest.raises(ValueError, match="no column 'response'.*e_total"):
            storage.read_table(path).series("response")


class TestSpectrumCsv:
    def test_harmonic_order_axis(self, tmp_path):
        omega = np.linspace(0.0, 4.0, 33)
        spectrum = Spectrum(omega=omega, power=np.exp(-omega))
        path = tmp_path / "spectrum.csv"
        storage.write_spectrum_csv(path, spectrum, omega0=0.5)
        table = storage.read_table(path)
        assert table.header == storage.SPECTRUM_COLUMNS
        assert np.array_equal(table.columns["harmonic_order"],
                              table.columns["omega"] / 0.5)

    def test_rejects_nonpositive_omega0(self, tmp_path):
        spectrum = Spectrum(omega=np.arange(4.0), power=np.ones(4))
        with pytest.raises(ValueError):
            storage.write_spectrum_csv(tmp_path / "s.csv", spectrum, omega0=0.0)


class TestReadTable:
    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n0.1\n")
        with pytest.raises(ValueError, match="ragged"):
            storage.read_table(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            storage.read_table(path)

    def test_series_needs_uniform_time(self, tmp_path):
        path = tmp_path / "warped.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
        with pytest.raises(ValueError, match="uniform"):
            storage.read_table(path).series("y")


class TestMetadata:
    def test_round_trip_and_sorted_keys(self, tmp_path):
        path = tmp_path / "metadata.json"
        payload = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}, "k_p": 1000.0}
        storage.write_metadata(path, payload)
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"k_p"') < text.index('"zeta"')
        assert storage.read_metadata(path) == payload

    def test_writes_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        storage.write_metadata(a, {"x": 0.1, "y": [1, 2, 3]})
        storage.write_metadata(b, {"x": 0.1, "y": [1, 2, 3]})
        assert a.read_bytes() == b.read_bytes()
