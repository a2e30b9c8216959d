"""End-to-end CLI tests: artifacts, determinism, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from amptrack import grid, storage
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
        table = storage.read_table(out / "reference.csv")
        assert table.header == storage.REFERENCE_COLUMNS["atom"]
        meta = storage.read_metadata(out / "metadata.json")
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
        assert "[numerics] dt must be positive" in capsys.readouterr().err


class TestRunTracking:
    def test_in_process_reference_and_residual(self, hubbard_cfg, tmp_path, capsys):
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out)]) == 0
        assert (out / "reference.csv").exists()
        table = storage.read_table(out / "tracking.csv")
        assert table.header == storage.TRACKING_COLUMNS["hubbard"]
        meta = storage.read_metadata(out / "metadata.json")
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

    @pytest.mark.parametrize("platform", ["atom", "hubbard"])
    def test_metadata_records_the_driven_system(self, platform, request,
                                                tmp_path):
        cfg = request.getfixturevalue(f"{platform}_cfg")
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg),
                     "--out", str(out)]) == 0
        summary = storage.read_metadata(out / "metadata.json")["summary"]
        if platform == "atom":
            # the driven atom of ATOM_CFG: Ip 0.5 on its 512-point grid
            alpha = grid.calibrate_softening(0.5, grid.Grid1D(60.0, 512))
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

        monkeypatch.setattr(grid, "calibrate_softening", calibrate)
        cfg = atom_cfg if cfg_name == "atom.cfg" else CONFIG_DIR / cfg_name
        ref = write_constant_csv(tmp_path / "ref.csv", value, n=rows, dt=dt)
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out),
                     "--reference", str(ref)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "tracking.csv").exists()


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
        table = storage.read_table(out / "spectrum.csv")
        assert table.header == storage.SPECTRUM_COLUMNS
        meta = storage.read_metadata(out / "metadata.json")
        assert meta["cutoff_order"] == 9
        assert meta["window"] == "hann"

    def test_monochromatic_input_exits_3(self, tmp_path, capsys):
        csv = write_harmonic_csv(tmp_path / "mono.csv", orders=(1,), weak=())
        assert main(["spectrum", "--in", str(csv), "--out",
                     str(tmp_path / "s"), "--omega0", "0.3"]) == 3
        assert "failure" in capsys.readouterr().err


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
        ("k_p = 100", "k_p = 100\ngate = nan", "[experiment] gate must be positive"),
        ("u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\ndt = nan\n",
         "[numerics] dt must be positive"),
        ("u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\nkrylov_tol = nan\n",
         "[numerics] krylov_tol must be positive"),
    ])
    def test_nan_config_value_exits_2(self, old, new, message, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(HUBBARD_CFG.replace(old, new))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
