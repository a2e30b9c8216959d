"""End-to-end CLI tests: artifacts, determinism, and exit codes."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from amptrack import config, feedback, grid, lattice, storage
from amptrack.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ATOM_CFG = """
[experiment]
platform = atom
k_p = 50

[pulse]
omega0_au = 0.8
e0_au = 0.08
cycles = 2

[reference]
ip_au = 0.579

[driven]
ip_au = 0.5

[numerics]
box_half_width = 60
n_points = 512
dt = 0.05
"""

HUBBARD_CFG = """
[experiment]
platform = hubbard
k_p = 100

[pulse]
omega0_over_t0 = 4.43
e0_over_t0 = 2.61
cycles = 2

[lattice]
sites = 2

[reference]
u_over_t0 = 8

[driven]
u_over_t0 = 1
"""


@pytest.fixture
def atom_cfg(tmp_path):
    path = tmp_path / "atom.cfg"
    path.write_text(ATOM_CFG)
    return path


@pytest.fixture
def hubbard_cfg(tmp_path):
    path = tmp_path / "hubbard.cfg"
    path.write_text(HUBBARD_CFG)
    return path


def write_harmonic_csv(path, orders=(1, 3, 5, 7, 9), weak=(11, 13),
                       omega0=0.3, dt=0.05, n=4096, jitter=0.0):
    t = dt * np.arange(n)
    y = sum(np.cos(k * omega0 * t) for k in orders)
    y += sum(1e-4 * np.cos(k * omega0 * t) for k in weak)
    if jitter:
        y = y + jitter * np.sin(0.5 * omega0 * t)
    with open(path, "w") as fh:
        fh.write("t,y\n")
        for ti, yi in zip(t, y):
            fh.write(f"{float(ti)!r},{float(yi)!r}\n")
    return path


def poison_y(src, dst, value="nan", row=5):
    """Copy a run CSV with one ``y`` cell replaced by ``value``."""
    lines = src.read_text().splitlines()
    j = lines[0].split(",").index("y")
    cells = lines[row].split(",")
    cells[j] = value
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def read_json(path):
    return json.loads(path.read_text())


def write_constant_csv(path, value, n=16, dt=0.05):
    with open(path, "w") as fh:
        fh.write("t,y\n")
        for i in range(n):
            fh.write(f"{float(i * dt)!r},{value!r}\n")
    return path


class TestRunReference:
    def test_writes_csv_and_metadata(self, atom_cfg, tmp_path, capsys):
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(atom_cfg),
                     "--out", str(out)]) == 0
        record = storage.read_table(out / "reference.csv")
        assert ("t", *record.channels) == storage.REFERENCE_COLUMNS["atom"]
        meta = read_json(out / "metadata.json")
        assert meta["command"] == "run-reference"
        assert meta["config"]["platform"] == "atom"
        assert meta["summary"]["ground_energy"] == pytest.approx(-0.579, abs=5e-3)
        assert "softening_alpha" in meta["summary"]
        assert "reference.csv" in capsys.readouterr().out

    def test_runs_are_byte_identical(self, hubbard_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run-reference", "--config", str(hubbard_cfg),
                     "--out", str(out1)]) == 0
        assert main(["run-reference", "--config", str(hubbard_cfg),
                     "--out", str(out2)]) == 0
        assert (out1 / "reference.csv").read_bytes() == \
               (out2 / "reference.csv").read_bytes()
        assert (out1 / "metadata.json").read_bytes() == \
               (out2 / "metadata.json").read_bytes()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(ATOM_CFG + "\nchirp = 1\n")
        assert main(["run-reference", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "chirp" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run-reference", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("dt", ["0", "-0.05", "nan"])
    def test_non_positive_dt_exits_2(self, dt, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(ATOM_CFG.replace("dt = 0.05", f"dt = {dt}"))
        assert main(["run-reference", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        message = ("[numerics] dt: 'nan' is not finite" if dt == "nan"
                   else "[numerics] dt must be positive")
        assert message in capsys.readouterr().err

    def test_smallest_grid_checks_its_box_edge(self, tmp_path, capsys):
        # 16 points: n // 20 is 0, so each edge is checked at one point
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ATOM_CFG.replace("box_half_width = 60", "box_half_width = 20")
                       .replace("n_points = 512", "n_points = 16"))
        assert main(["run-reference", "--config", str(cfg),
                     "--out", str(tmp_path / "ref")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not decay at the box edge" in err

    def test_bad_box_half_width_names_its_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(ATOM_CFG.replace("box_half_width = 60",
                                        "box_half_width = -60"))
        assert main(["run-reference", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "[numerics] box_half_width must be positive" in \
            capsys.readouterr().err


class TestRunTracking:
    def test_in_process_reference_and_residual(self, hubbard_cfg, tmp_path, capsys):
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out)]) == 0
        assert (out / "reference.csv").exists()
        record = storage.read_table(out / "tracking.csv")
        assert ("t", *record.channels) == storage.TRACKING_COLUMNS["hubbard"]
        meta = read_json(out / "metadata.json")
        assert meta["summary"]["residual_kind"] == "relative"
        assert meta["summary"]["rms_residual"] < 0.05
        assert "rms residual" in capsys.readouterr().out

    def test_explicit_reference_path_matches_in_process(self, hubbard_cfg, tmp_path):
        first = tmp_path / "first"
        main(["run-tracking", "--config", str(hubbard_cfg), "--out", str(first)])
        second = tmp_path / "second"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(second),
                     "--reference", str(first / "reference.csv")]) == 0
        assert (first / "tracking.csv").read_bytes() == \
               (second / "tracking.csv").read_bytes()
        # metadata names the tracked file, or null for an in-process reference
        assert read_json(first / "metadata.json")["reference"] is None
        assert read_json(second / "metadata.json")["reference"] == \
               str(first / "reference.csv")

    def test_crlf_reference_tracks_like_the_original(self, hubbard_cfg, tmp_path):
        ref = tmp_path / "ref"
        assert main(["run-reference", "--config", str(hubbard_cfg),
                     "--out", str(ref)]) == 0
        lf = ref / "reference.csv"
        crlf = tmp_path / "reference-crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for path in (lf, crlf):
            out = tmp_path / path.stem
            assert main(["run-tracking", "--config", str(hubbard_cfg),
                         "--out", str(out), "--reference", str(path)]) == 0
            outputs.append((out / "tracking.csv").read_bytes())
        assert b"\r" not in outputs[0]
        assert outputs[0] == outputs[1]

    def test_gate_failure_exits_4(self, hubbard_cfg, tmp_path, capsys):
        out = tmp_path / "gated"
        code = main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out), "--gate", "1e-12"])
        assert code == 4
        assert "gate failed" in capsys.readouterr().out
        # artifacts are still written for post-mortem
        assert (out / "tracking.csv").exists()

    def test_generous_gate_passes(self, hubbard_cfg, tmp_path):
        out = tmp_path / "ok"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out), "--gate", "0.5"]) == 0

    def test_singular_control_law_exits_3(self, hubbard_cfg, tmp_path,
                                          monkeypatch, capsys):
        # a coupling of 1/k_p makes 1 - k_p coupling exactly zero
        def control(self, obs, e_tl, y, cfg):
            return feedback.control_field(0.0, 1.0 / cfg.k_p, y, cfg)

        monkeypatch.setattr(lattice.HubbardSystem, "control", control)
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(tmp_path / "trk")]) == 3
        assert "control law is singular" in capsys.readouterr().err

    @pytest.mark.parametrize("platform", ["atom", "hubbard"])
    def test_metadata_records_the_driven_system(self, platform, request,
                                                tmp_path):
        cfg = request.getfixturevalue(f"{platform}_cfg")
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg),
                     "--out", str(out)]) == 0
        summary = read_json(out / "metadata.json")["summary"]
        if platform == "atom":
            # the driven atom of ATOM_CFG: Ip 0.5 on its 512-point grid
            alpha = grid.calibrate_softening(0.5, grid.AtomNumerics(60.0, 512))
            assert summary["softening_alpha"] == alpha
            assert summary["ground_energy"] == pytest.approx(-0.5, abs=1e-4)
        else:
            assert "softening_alpha" not in summary
            assert summary["ground_energy"] < 0.0

    @pytest.mark.parametrize("cfg_name, rows, dt, value, message", [
        ("atom_default.cfg", 3, 0.02, 0.0, "has 3 samples"),
        ("atom.cfg", 316, 0.04, 0.0, "grid does not match"),
        ("atom.cfg", 316, 0.05, float("nan"), "316 non-finite"),
    ])
    def test_bad_reference_is_rejected_before_calibration(
            self, cfg_name, rows, dt, value, message, atom_cfg, tmp_path,
            monkeypatch, capsys):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrate_softening was called")

        monkeypatch.setattr(config, "calibrate_softening", calibrate)
        cfg = atom_cfg if cfg_name == "atom.cfg" else CONFIG_DIR / cfg_name
        ref = write_constant_csv(tmp_path / "ref.csv", value, n=rows, dt=dt)
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out),
                     "--reference", str(ref)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "tracking.csv").exists()


    def test_degenerate_sector_exits_2(self, tmp_path, capsys):
        # three sites with two up and one down spin: the lowest level lies
        # at K = +-2pi/3, so no unique ground state exists to start from
        cfg = tmp_path / "run.cfg"
        cfg.write_text(HUBBARD_CFG.replace("sites = 2", "sites = 3\nn_up = 2\nn_down = 1"))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no unique ground state" in err
        assert "sector (L=3, N_up=2, N_down=1)" in err
        assert not (out / "reference.csv").exists()


class TestArtifactDigests:
    """SHA-256 digests of the run-tracking CSVs, pinned per library build.

    A change that keeps the arithmetic keeps these bytes.  A change that
    alters the arithmetic updates the digests and says so in CHANGES.md.
    """

    # numpy and scipy versions the digests were computed with
    VERSIONS = ("2.4.6", "1.17.1")
    DIGESTS = {
        "atom": (
            "0ac596f0c53a910f692ae83dc20569c44131fc36bbd78f3f0e02508b21b3982d",
            "ef86db586a389cdb7fb2ec8498de1d87793b49c75d9899e484282ab9d591f154",
        ),
        "hubbard-2": (
            "5de471121306774063aa7f9adce5a59919628758574e5d97f298d162946bd981",
            "297d1c25e505955f860ee5886e068f561a64acf9976151622fca67895762d252",
        ),
        "hubbard-6": (
            "faf552b5e966a4b5b11a645866b0c4c5a7f0b87f377eecfe093ee8bca34dca34",
            "427aac63f4eab05a7c6f80102767c6881a6e26967230c2d36ad47baf05d87963",
        ),
        "hubbard-6-4-2": (
            "3a73ed8f73a734e727550b917d8809accb489af0a4363b91e49a0ad54eb44f12",
            "df850f3274a4367af2739f9833fdac35523c825da92d4752e5bcb6aa2377f3df",
        ),
    }
    CONFIGS = {
        "atom": ATOM_CFG,
        "hubbard-2": HUBBARD_CFG,
        "hubbard-6": HUBBARD_CFG.replace("sites = 2", "sites = 6"),
        # outside half filling: no spin-flip parity, the whole K = pi block
        "hubbard-6-4-2": HUBBARD_CFG.replace("sites = 2",
                                             "sites = 6\nn_up = 4\nn_down = 2"),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_csv_digests(self, case, tmp_path):
        versions = (np.__version__, scipy.__version__)
        if versions != self.VERSIONS:
            pytest.skip(f"digests pinned for numpy {self.VERSIONS[0]} and scipy "
                        f"{self.VERSIONS[1]}, found {versions[0]} and {versions[1]}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIGS[case])
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("reference.csv", "tracking.csv"))
        assert digests == self.DIGESTS[case]


class TestMatchIntensity:
    def test_ati_value(self, capsys):
        assert main(["match-intensity", "--mode", "ati", "--omega", "0.05",
                     "--field", "0.05", "--ip", "0.9", "--ip-new", "0.5"]) == 0
        out = capsys.readouterr().out
        matched = float(out.strip().splitlines()[-1].split()[-1])
        assert matched == pytest.approx(2 * 0.05 * np.sqrt(0.65), rel=1e-12)

    def test_hhg_from_cutoff(self, capsys):
        assert main(["match-intensity", "--mode", "hhg", "--omega", "0.9",
                     "--cutoff", "1.8", "--ip", "1.3", "--ip-new", "1.0"]) == 0
        out = capsys.readouterr().out
        matched = float(out.strip().splitlines()[-1].split()[-1])
        assert matched == pytest.approx(1.12 * 0.9 * np.sqrt(0.8), rel=1e-12)

    def test_infeasible_target_exits_2(self, capsys):
        assert main(["match-intensity", "--mode", "hhg", "--omega", "0.9",
                     "--cutoff", "0.7", "--ip", "1.3", "--ip-new", "1.0"]) == 2
        assert "cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--mode", "hhg", "--omega", "0.9", "--cutoff", "1.8", "--ip", "1.3",
         "--ip-new", "-1.0"],
        ["--mode", "ati", "--omega", "0.05", "--field", "0.05", "--ip", "0.9",
         "--ip-new", "0"],
        ["--mode", "hhg", "--omega", "0.9", "--cutoff", "1.8", "--ip", "-1.3",
         "--ip-new", "1.0"],
        ["--mode", "ati", "--omega", "0.05", "--field", "0.05", "--ip", "-1.3",
         "--ip-new", "0.5"],
    ], ids=["hhg-ip-new", "ati-ip-new", "hhg-ip-cutoff", "ati-ip"])
    def test_nonpositive_ip_exits_2(self, args, capsys):
        assert main(["match-intensity", *args]) == 2
        captured = capsys.readouterr()
        assert "matched field" not in captured.out
        assert captured.err.startswith("error:")
        assert "must be positive" in captured.err

    @pytest.mark.parametrize("args", [
        ["--mode", "hhg", "--omega", "nan", "--ip", "0.579", "--ip-new", "0.5",
         "--field", "0.05"],
        ["--mode", "ati", "--omega", "0.057", "--ip", "nan", "--ip-new", "0.5",
         "--field", "0.05"],
        ["--mode", "hhg", "--omega", "0.057", "--ip", "0.579", "--ip-new", "nan",
         "--cutoff", "1.2"],
        ["--mode", "hhg", "--omega", "nan", "--ip", "0.579", "--ip-new", "0.5",
         "--cutoff", "1.2"],
    ], ids=["hhg-omega", "ati-ip", "hhg-ip-new", "hhg-omega-cutoff"])
    def test_nan_input_exits_2(self, args, capsys):
        assert main(["match-intensity", *args]) == 2
        assert "matched field" not in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--mode", "hhg", "--omega", "inf", "--ip", "0.579", "--ip-new", "0.5",
         "--field", "0.05"],
        ["--mode", "ati", "--omega", "0.057", "--ip", "0.579", "--ip-new", "0.5",
         "--field", "inf"],
        ["--mode", "hhg", "--omega", "0.057", "--ip", "inf", "--ip-new", "0.5",
         "--field", "0.05"],
        ["--mode", "hhg", "--omega", "0.057", "--ip", "0.579", "--ip-new", "0.5",
         "--cutoff", "inf"],
        ["--mode", "ati", "--omega", "0.057", "--ip", "0.579", "--ip-new=-inf",
         "--field", "0.05"],
    ], ids=["hhg-omega", "ati-field", "hhg-ip", "hhg-cutoff", "ati-ip-new"])
    def test_infinite_input_exits_2(self, args, capsys):
        assert main(["match-intensity", *args]) == 2
        captured = capsys.readouterr()
        assert "matched field" not in captured.out
        assert "must be finite" in captured.err


class TestSpectrum:
    def test_detects_synthetic_cutoff(self, tmp_path, capsys):
        csv = write_harmonic_csv(tmp_path / "run.csv")
        out = tmp_path / "spec"
        assert main(["spectrum", "--in", str(csv), "--out", str(out),
                     "--omega0", "0.3"]) == 0
        assert "cutoff order: 9" in capsys.readouterr().out
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == storage.SPECTRUM_COLUMNS
        meta = read_json(out / "metadata.json")
        assert meta["cutoff_order"] == 9
        assert meta["window"] == "hann"

    def test_monochromatic_input_exits_3(self, tmp_path, capsys):
        # detection runs before anything is written
        csv = write_harmonic_csv(tmp_path / "mono.csv", orders=(1,), weak=())
        assert main(["spectrum", "--in", str(csv), "--out",
                     str(tmp_path / "s"), "--omega0", "0.3"]) == 3
        assert "failure" in capsys.readouterr().err
        assert list((tmp_path / "s").glob("*")) == []


class TestCompare:
    def test_json_report(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        b = write_harmonic_csv(tmp_path / "b.csv", jitter=1e-3)
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--omega0", "0.3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_rms"] == pytest.approx(1e-3 / np.sqrt(2) / 1.582, rel=0.2)
        assert payload["spectra"]["delta_orders"] == 0

    def test_gate_exits_4(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        b = write_harmonic_csv(tmp_path / "b.csv", jitter=1e-3)
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--gate", "1e-9"]) == 4

    def test_identical_runs_have_zero_residual(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        assert main(["compare", "--a", str(a), "--b", str(a)]) == 0
        out = capsys.readouterr().out
        assert "relative rms difference: 0.0" in out

    def test_grid_mismatch_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        b = write_harmonic_csv(tmp_path / "b.csv", dt=0.04)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_cell_is_located_and_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        bad = poison_y(a, tmp_path / "bad.csv", value="abc")
        assert main(["compare", "--a", str(a), "--b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 6, column 'y': 'abc' is not a number" in err

    def test_ragged_row_is_located_and_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("t,current,kinetic,y\n0.0,1.0,2.0,3.0\n0.1\n")
        assert main(["compare", "--a", str(a), "--b", str(ragged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{ragged}: line 3 has 1 cells, header has 4" in err

    def test_repeated_column_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        twice = tmp_path / "twice.csv"
        twice.write_text("t,y,y\n0.0,1.0,2.0\n0.1,1.0,2.0\n")
        assert main(["compare", "--a", str(a), "--b", str(twice)]) == 2
        assert f"{twice}: header names column 'y' twice" in capsys.readouterr().err

    def test_unknown_column_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        assert main(["compare", "--a", str(a), "--b", str(a),
                     "--column", "response"]) == 2
        assert "no column 'response'" in capsys.readouterr().err


class TestFailClosed:
    @pytest.mark.parametrize("platform", ["atom", "hubbard"])
    def test_non_finite_reference_is_rejected(self, platform, request, tmp_path,
                                              capsys):
        cfg = request.getfixturevalue(f"{platform}_cfg")
        ref = tmp_path / "ref"
        assert main(["run-reference", "--config", str(cfg), "--out", str(ref)]) == 0
        bad = poison_y(ref / "reference.csv", tmp_path / "bad.csv")
        out = tmp_path / "trk"
        capsys.readouterr()
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out),
                     "--reference", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not (out / "tracking.csv").exists()
        assert main(["compare", "--a", str(bad), "--b", str(ref / "reference.csv"),
                     "--gate", "0.01"]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_spectrum_names_non_finite_samples(self, value, tmp_path, capsys):
        # a NaN or inf used to surface as "no harmonic plateau" (exit 3)
        csv = write_harmonic_csv(tmp_path / "run.csv")
        bad = poison_y(csv, tmp_path / "bad.csv", value=value)
        out = tmp_path / "spec"
        assert main(["spectrum", "--in", str(bad), "--out", str(out),
                     "--omega0", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert (f"{bad}: column 'y' has 1 non-finite samples, the first at row 4 "
                f"(t = 0.2)") in err
        assert not out.exists()

    @pytest.mark.parametrize("gate", [None, "1e9"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_compare_checks_its_residual_before_the_spectra(self, value, gate,
                                                            tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        bad = poison_y(a, tmp_path / "bad.csv", value=value)
        args = ["compare", "--a", str(bad), "--b", str(a), "--omega0", "0.3"]
        assert main(args + (["--gate", gate] if gate else [])) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: residual {value} is not finite\n"

    @pytest.mark.parametrize("command", ["run-tracking", "compare"])
    @pytest.mark.parametrize("gate", ["nan", "inf", "0"])
    def test_gate_option_must_be_positive_and_finite(self, command, gate,
                                                     hubbard_cfg, tmp_path, capsys):
        # a NaN gate would pass every residual: NaN compares false
        a = write_harmonic_csv(tmp_path / "a.csv")
        args = {"run-tracking": ["--config", str(hubbard_cfg),
                                 "--out", str(tmp_path / "trk")],
                "compare": ["--a", str(a), "--b", str(a)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--gate", gate])
        assert exc.value.code == 2
        assert "--gate: must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "trk").exists()

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    @pytest.mark.parametrize("flag", ["--drop-db", "--omega0"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-40"])
    def test_spectral_options_must_be_positive_and_finite(
            self, command, flag, value, tmp_path, capsys):
        # an infinite drop reads the cutoff off the noise floor and writes
        # Infinity, which is not JSON, into metadata.json
        csv = write_harmonic_csv(tmp_path / "run.csv")
        out = tmp_path / "spec"
        args = {"spectrum": ["--in", str(csv), "--out", str(out)],
                "compare": ["--a", str(csv), "--b", str(csv)]}[command]
        options = {"--omega0": "0.3", "--drop-db": "20", flag: value}
        with pytest.raises(SystemExit) as exc:
            main([command, *args, *(x for item in options.items() for x in item)])
        assert exc.value.code == 2
        assert f"{flag}: must be positive and finite" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("k_p = 100", "k_p = 100\ngate = nan",
         "unknown key 'gate' in section [experiment]"),
        ("u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\ndt = nan\n",
         "[numerics] dt: 'nan' is not finite"),
        ("u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\nkrylov_tol = nan\n",
         "unknown key 'krylov_tol' in section [numerics]"),
    ])
    def test_nan_config_value_exits_2(self, old, new, message, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(HUBBARD_CFG.replace(old, new))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key, old, new", [
        ("k_p", "k_p = 50", "k_p = {}"),
        ("gate", "k_p = 50", "k_p = 50\ngate = {}"),
        ("e0_au", "e0_au = 0.08", "e0_au = {}"),
        ("intensity_w_cm2", "e0_au = 0.08", "intensity_w_cm2 = {}"),
        ("dt", "dt = 0.05", "dt = {}"),
        ("u_over_t0", "u_over_t0 = 1\n", "u_over_t0 = {}\n"),
    ])
    def test_non_finite_config_number_exits_2(self, key, old, new, value,
                                              tmp_path, capsys):
        text = HUBBARD_CFG if key == "u_over_t0" else ATOM_CFG
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new.format(value)))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(bad), "--out", str(out)]) == 2
        message = ("unknown key 'gate' in section [experiment]" if key == "gate"
                   else f"{key}: '{value}' is not finite")
        assert message in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_nan_time_grid_is_rejected(self, hubbard_cfg, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["run-reference", "--config", str(hubbard_cfg),
                     "--out", str(ref)]) == 0
        lines = (ref / "reference.csv").read_text().splitlines()
        bad = tmp_path / "nan_t.csv"
        bad.write_text("\n".join([lines[0]] + ["nan," + line.split(",", 1)[1]
                                               for line in lines[1:]]) + "\n")
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(hubbard_cfg), "--out", str(out),
                     "--reference", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "tracking.csv").exists()

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_header_only_csv_exits_2(self, command, tmp_path, capsys):
        empty = tmp_path / "header.csv"
        empty.write_text("t,y\n")
        good = write_harmonic_csv(tmp_path / "run.csv")
        args = {"spectrum": ["--in", str(empty), "--out", str(tmp_path / "spec"),
                             "--omega0", "0.3"],
                "compare": ["--a", str(empty), "--b", str(good)]}[command]
        assert main([command, *args]) == 2
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_csv_without_t_column_exits_2(self, command, tmp_path, capsys):
        csv = tmp_path / "y.csv"
        csv.write_text("y\n0.0\n1.0\n0.5\n")
        args = {"spectrum": ["--in", str(csv), "--out", str(tmp_path / "spec"),
                             "--omega0", "0.3"],
                "compare": ["--a", str(csv), "--b", str(csv)]}[command]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no column 't'; file has y" in err

    def test_exhausted_calibration_exits_3(self, atom_cfg, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(grid, "_CALIBRATION_MAX_ITER", 0)
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(atom_cfg),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: calibration exhausted its iteration budget\n")
        assert not (out / "reference.csv").exists()

    def test_oversized_ring_step_exits_3(self, tmp_path, capsys):
        # six sites at U/t0 = 8: a step of 100 is beyond 20 Lanczos vectors
        # even after six halvings.  The slow carrier spreads the pulse over
        # three steps, so the first step's midpoint phase is not zero and
        # the ground state does not simply stand still.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(HUBBARD_CFG.replace("sites = 2", "sites = 6")
                       .replace("omega0_over_t0 = 4.43", "omega0_over_t0 = 0.05")
                       + "\n[numerics]\ndt = 100\n")
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Krylov residual ")
        assert err.endswith(" after 6 halvings of the step; reduce dt\n")
        assert not (out / "reference.csv").exists()

    def test_overflowing_rms_exits_3(self, tmp_path, capsys):
        a = write_constant_csv(tmp_path / "a.csv", 1e308)
        b = write_constant_csv(tmp_path / "b.csv", -1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["compare", "--a", str(a), "--b", str(b)]) == 3
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_tracking_residual_exits_3(self, atom_cfg, tmp_path, capsys):
        # a finite reference of 1e300 cells drives the atom with a finite
        # control, but the residual RMS overflows; no gate is given
        ref = tmp_path / "ref"
        assert main(["run-reference", "--config", str(atom_cfg), "--out", str(ref)]) == 0
        n = len(storage.read_table(ref / "reference.csv"))
        huge = write_constant_csv(tmp_path / "huge.csv", 1e300, n=n)
        out = tmp_path / "trk"
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run-tracking", "--config", str(atom_cfg), "--out", str(out),
                         "--reference", str(huge)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert (out / "tracking.csv").exists()
        # the overflowed residual is written as null, and the sidecar is
        # strict JSON: a bare NaN or Infinity token fails to parse
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        meta = json.loads((out / "metadata.json").read_text(), parse_constant=reject)
        assert meta["summary"]["rms_residual"] is None
