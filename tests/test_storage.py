"""Round-trip and determinism tests for the CSV/JSON writers."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from amptrack.feedback import RunRecord
from amptrack.spectral import Spectrum
from amptrack import storage

FORMATS_DOC = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


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


class TestTrackingCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        result = tracking_record()
        path = tmp_path / "tracking.csv"
        storage.write_tracking_csv(path, result, "atom")
        table = storage.read_table(path)
        assert table.header == storage.TRACKING_COLUMNS["atom"]
        assert np.array_equal(table.columns["u"], result.u)
        assert np.array_equal(table.columns["residual"], result.residual)

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

    def test_rejects_nan_omega0(self, tmp_path):
        # NaN fails every comparison, so the check is written as not > 0
        spectrum = Spectrum(omega=np.arange(4.0), power=np.ones(4))
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="omega0 must be positive"):
            storage.write_spectrum_csv(path, spectrum, omega0=float("nan"))
        assert not path.exists()


class TestReadTable:
    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n0.1\n")
        message = f"{path}: line 3 has 1 cells, header has 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            storage.read_table(path)

    @pytest.mark.parametrize("text,message", [
        ("t,y\n0.0,1.0\n\n0.1,2.0,3.0\n0.2\n", "line 4 has 3 cells, header has 2"),
        ("t,y,u\n0.0,1.0,0.0\n0.1,abc\n", "line 3 has 2 cells, header has 3"),
    ], ids=["long-row-first", "short-row-with-bad-cell"])
    def test_names_the_first_ragged_row(self, tmp_path, text, message):
        # line numbers count the file's lines, blank ones included; a row
        # with the wrong count fails on its count before its cells are read
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            storage.read_table(path)

    def test_names_the_line_and_column_of_a_bad_cell(self, tmp_path):
        # line numbers count the file's lines, blank ones included
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.0,1.0\n\n0.1,abc\n")
        message = f"{path}: line 4, column 'y': 'abc' is not a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            storage.read_table(path)

    def test_rejects_repeated_column_name(self, tmp_path):
        # two columns named y: series("y") would read the second
        path = tmp_path / "twice.csv"
        path.write_text("t,y,y\n0.0,1.0,2.0\n0.1,1.0,2.0\n")
        message = f"{path}: header names column 'y' twice"
        with pytest.raises(ValueError, match=re.escape(message)):
            storage.read_table(path)

    def test_rejects_empty_column_name(self, tmp_path):
        path = tmp_path / "unnamed.csv"
        path.write_text("t,,y\n0.0,1.0,2.0\n0.1,1.0,2.0\n")
        message = f"{path}: header column 2 has no name"
        with pytest.raises(ValueError, match=re.escape(message)):
            storage.read_table(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            storage.read_table(path)

    def test_rejects_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("t,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            storage.read_table(path)

    def test_series_needs_uniform_time(self, tmp_path):
        path = tmp_path / "warped.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
        with pytest.raises(ValueError, match="uniform"):
            storage.read_table(path).series("y")

    def test_reads_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"t,y\r\n0.0,1.0\r\n0.1,2.0\r\n")
        table = storage.read_table(path)
        assert table.header == ("t", "y")
        np.testing.assert_array_equal(table.series("y").values, [1.0, 2.0])

    @pytest.mark.parametrize("t", ["nan,nan,nan", "0.0,nan,0.2", "nan,0.1,0.2"])
    def test_series_needs_finite_time(self, tmp_path, t):
        # NaN fails the uniformity test and the grid checks of TimeSeries
        path = tmp_path / "nan.csv"
        path.write_text("t,y\n" + "".join(f"{ti},1.0\n" for ti in t.split(",")))
        with pytest.raises(ValueError):
            storage.read_table(path).series("y")


class TestMetadata:
    def test_round_trip_and_sorted_keys(self, tmp_path):
        path = tmp_path / "metadata.json"
        payload = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}, "k_p": 1000.0}
        storage.write_metadata(path, payload)
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"k_p"') < text.index('"zeta"')
        assert json.loads(path.read_text()) == payload

    def test_writes_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        storage.write_metadata(a, {"x": 0.1, "y": [1, 2, 3]})
        storage.write_metadata(b, {"x": 0.1, "y": [1, 2, 3]})
        assert a.read_bytes() == b.read_bytes()


def documented_columns(section):
    """The platform -> column table under the doc's ``## `section``` heading."""
    body = FORMATS_DOC.read_text().split(f"## `{section}`\n", 1)[1]
    body = body.split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+) \| `([^`]*)` \|$", body, flags=re.M)
    return {platform: tuple(columns.split(", ")) for platform, columns in rows}


@pytest.mark.parametrize("section, layout", [
    ("reference.csv", storage.REFERENCE_COLUMNS),
    ("tracking.csv", storage.TRACKING_COLUMNS),
])
def test_formats_doc_lists_the_column_layouts(section, layout):
    assert documented_columns(section) == layout
