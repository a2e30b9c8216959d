"""End-to-end CLI tests: artifacts, determinism, and exit codes."""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from amptrack import cli, config, feedback, grid, lattice, storage
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


def header(path) -> list:
    """The column names on the first line of a CSV."""
    return path.read_text().splitlines()[0].split(",")


def write_constant_csv(path, value, n=16, dt=0.05):
    with open(path, "w") as fh:
        fh.write("t,y\n")
        for i in range(n):
            fh.write(f"{float(i * dt)!r},{value!r}\n")
    return path


def write_p_only_csv(path):
    """A run CSV that reads, but holds no ``y`` column."""
    path.write_text("t,p\n0.0,1.0\n0.05,1.0\n")
    return path


class TestRunReference:
    def test_writes_csv_and_metadata(self, atom_cfg, tmp_path, capsys):
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(atom_cfg),
                     "--out", str(out)]) == 0
        record = storage.read_table(out / "reference.csv")
        assert list(record.channels) == ["p", "force", "e_total", "y"]
        meta = read_json(out / "metadata.json")
        assert meta["columns"] == header(out / "reference.csv")
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
        rule = "finite" if dt == "nan" else "positive"
        assert capsys.readouterr().err == \
            f"error: [numerics] dt must be {rule}, got {float(dt)!r}\n"

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

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # sector (4, 2, 2) has no unique ground state at U = 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(HUBBARD_CFG.replace("sites = 2", "sites = 4")
                       .replace("u_over_t0 = 8", "u_over_t0 = 0"))
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no unique ground state" in capsys.readouterr().err
        assert not out.exists()


class TestRunTracking:
    def test_in_process_reference_and_residual(self, hubbard_cfg, tmp_path, capsys):
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out)]) == 0
        assert (out / "reference.csv").exists()
        record = storage.read_table(out / "tracking.csv")
        assert list(record.channels) == ["current", "kinetic", "phase", "e_total",
                                         "u", "response", "y", "residual"]
        meta = read_json(out / "metadata.json")
        assert meta["columns"] == header(out / "tracking.csv")
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

    def test_reference_without_y_names_its_file(self, hubbard_cfg, tmp_path, capsys):
        bad = write_p_only_csv(tmp_path / "bad.csv")
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(tmp_path / "trk"), "--reference", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: no column 'y'; record has p\n"

    @pytest.mark.parametrize("fault, message", [
        ("nan", "reference has 1 non-finite samples, the first at step 4"),
        ("short", "reference has 5 samples, propagation needs 569"),
    ], ids=["nan", "short"])
    def test_rejected_reference_names_its_file(self, fault, message, hubbard_cfg,
                                               tmp_path, capsys):
        if fault == "nan":
            ref = tmp_path / "ref"
            assert main(["run-reference", "--config", str(hubbard_cfg),
                         "--out", str(ref)]) == 0
            bad = poison_y(ref / "reference.csv", tmp_path / "bad.csv")
        else:
            bad = write_constant_csv(tmp_path / "bad.csv", 0.0, n=5, dt=0.005)
        capsys.readouterr()
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(hubbard_cfg),
                     "--out", str(out), "--reference", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
        assert not out.exists()

    def test_failed_driven_run_writes_nothing(self, tmp_path, capsys):
        # the U/t0 = 8 reference runs; the U = 0 driven ring, sector
        # (4, 2, 2), has no unique ground state
        cfg = tmp_path / "run.cfg"
        cfg.write_text(HUBBARD_CFG.replace("sites = 2", "sites = 4")
                       .replace("u_over_t0 = 1", "u_over_t0 = 0"))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no unique ground state" in capsys.readouterr().err
        assert not out.exists()

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


class TestCommandLine:
    """The command-line surface, recorded before the flags that two
    subcommands share were declared once: per subcommand, each option's
    (dest, default, required, choices, type)."""

    OPTIONS = {
        "run-reference": {
            ("--config",): ("config", None, True, None, None),
            ("--out",): ("out", None, True, None, None),
        },
        "run-tracking": {
            ("--config",): ("config", None, True, None, None),
            ("--out",): ("out", None, True, None, None),
            ("--reference",): ("reference", None, False, None, None),
            ("--gate",): ("gate", None, False, None, float),
        },
        "match-intensity": {
            ("--mode",): ("mode", None, True, ("hhg", "ati"), None),
            ("--omega",): ("omega", None, True, None, float),
            ("--ip",): ("ip", None, True, None, float),
            ("--ip-new",): ("ip_new", None, True, None, float),
            ("--field",): ("field", None, False, None, float),
            ("--cutoff",): ("cutoff", None, False, None, float),
        },
        "spectrum": {
            ("--in",): ("input", None, True, None, None),
            ("--out",): ("out", None, True, None, None),
            ("--omega0",): ("omega0", None, True, None, float),
            ("--column",): ("column", "y", False, None, None),
            ("--window",): ("window", "hann", False, ("none", "hann"), None),
            ("--drop-db",): ("drop_db", 20.0, False, None, float),
        },
        "compare": {
            ("--a",): ("a", None, True, None, None),
            ("--b",): ("b", None, True, None, None),
            ("--column",): ("column", "y", False, None, None),
            ("--omega0",): ("omega0", None, False, None, float),
            ("--window",): ("window", "hann", False, ("none", "hann"), None),
            ("--drop-db",): ("drop_db", 20.0, False, None, float),
            ("--gate",): ("gate", None, False, None, float),
            ("--json",): ("json", False, False, None, None),
        },
    }

    @staticmethod
    def subcommands():
        parser = cli._build_parser()
        return next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices

    def test_each_subcommand_keeps_its_options(self):
        found = {
            name: {tuple(action.option_strings):
                   (action.dest, action.default, action.required,
                    action.choices, action.type)
                   for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)}
            for name, sub in self.subcommands().items()
        }
        assert found == self.OPTIONS

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]]
                             + [[name, "--help"] for name in sorted(OPTIONS)],
                             ids=" ".join)
    def test_help_and_version_exit_0(self, argv, capsys):
        # argparse formats a help text only when it prints one
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        if argv == ["--version"]:
            assert out == f"{cli.__version__}\n"
        for flags in self.OPTIONS.get(argv[0], ()):
            assert all(flag in out for flag in flags)


class TestArtifactDigests:
    """SHA-256 digests of the run-tracking CSVs and their sidecar, pinned
    per library build.

    A change that keeps the arithmetic keeps these bytes.  A change that
    alters the arithmetic updates the digests and says so in CHANGES.md.
    """

    # numpy and scipy versions the digests were computed with; every atom
    # digest was re-recorded when imaginary time began to stop on the level
    # -ln|psi'|^2 / (2 dtau) and each solve to start from the Gaussian
    VERSIONS = ("2.4.6", "1.17.1")
    DIGESTS = {
        "atom": (
            "cda261dfbce850ffbdef8ddf4c0e9efae5c196d886f50dec375883ef4a453c4e",
            "f8348faf4eb7a3e8eb2c9cbc19a720615a882bb72ce5cf5b2fcdd112912746b6",
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

    # the metadata.json of each case, recorded before the CSV writer took
    # its header from the record
    METADATA_DIGESTS = {
        "atom": "c63cbc9418fc0619376aa29d8da0b09a1b1e49c796c5a0078e3100a3d0712715",
        "hubbard-2":
            "647a6c8e8e07187e348c5e16ce3296fd683c0065c63e116e0e6545a5e3954d5a",
        "hubbard-6":
            "78a1c5a419a686304c753c37a3fe235db26712d8e321219b8909f744319fe927",
        "hubbard-6-4-2":
            "0018ecb5b3d415093521f0abee84e9306e33daf1d908865421f74c7eb02ca8cb",
    }

    # the metadata.json of `run-reference` on each config, recorded before
    # every sidecar was built by one function
    REFERENCE_METADATA_DIGESTS = {
        "atom": "c80eaba8be6b09baffe1706ee298adef794e91419a4150d21accdc2c8d9c4efd",
        "hubbard-2":
            "da6414021eb988cd5ec9dfd2fca48772b0d7e8e1322f543a12f8f69d9668619c",
    }

    # spectrum.csv and metadata.json of `spectrum` on the synthetic harmonic
    # CSV of TestSpectrum, recorded before the spectral argument checks
    # moved to one rule
    SPECTRUM_DIGESTS = (
        "7c7b21594f0f4a5fd92d3124d49d0a9953fa2f82fe08e74bbbdc643c37caceb5",
        "0bd3c334000a331bf95c9e21eab2dabc80ab949551d9eab98d2bdb705dbf9e86",
    )

    # stdout of `compare` and of both `match-intensity` modes, recorded
    # before the CLI flags were checked through the one numeric rule;
    # "compare-text" and "match-hhg" (the README's example) recorded before
    # whole numbers were checked through it
    STDOUT_DIGESTS = {
        "compare-json":
            "39d30e2eaeb6156c384b6441dfb514dd51cdc45886a80b02e2e3de8592be45af",
        "compare-text":
            "2c91a76d212050d98a388d498f5616b24e659aa9db24362b99796789ddbb5ea7",
        "match-ati":
            "2357a2ba4a7c89eb6b55aeba5925f1e52d6cfebd201d9f22ad20574ca9484e43",
        "match-hhg":
            "50eabcb1493abd63f7d2ede53dc6584c2ac5a2600ea2be7ead697d6691fd19e1",
        "match-hhg-cutoff":
            "94d196568efe4f2b14f075b48ca584f1a6fc638bec226ee80bce63f7b18f977b",
    }
    STDOUT_ARGS = {
        "compare-json": ["compare", "--a", "a.csv", "--b", "b.csv", "--json",
                         "--omega0", "0.3"],
        "compare-text": ["compare", "--a", "a.csv", "--b", "b.csv",
                         "--omega0", "0.3"],
        "match-hhg": ["match-intensity", "--mode", "hhg", "--omega", "0.056954",
                      "--ip", "0.579", "--ip-new", "0.5", "--field", "0.05338"],
        "match-ati": ["match-intensity", "--mode", "ati", "--omega", "0.05",
                      "--field", "0.05", "--ip", "0.9", "--ip-new", "0.5"],
        "match-hhg-cutoff": ["match-intensity", "--mode", "hhg", "--omega", "0.9",
                             "--cutoff", "1.8", "--ip", "1.3", "--ip-new", "1.0"],
    }

    def require_pinned_versions(self):
        versions = (np.__version__, scipy.__version__)
        if versions != self.VERSIONS:
            pytest.skip(f"digests pinned for numpy {self.VERSIONS[0]} and scipy "
                        f"{self.VERSIONS[1]}, found {versions[0]} and {versions[1]}")

    @pytest.fixture(scope="class", params=sorted(DIGESTS))
    def run(self, request, tmp_path_factory):
        """One run-tracking output directory per case, shared by the tests."""
        self.require_pinned_versions()
        case = request.param
        tmp_path = tmp_path_factory.mktemp(case)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIGS[case])
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out)]) == 0
        return case, out

    @staticmethod
    def digest(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_csv_digests(self, run):
        case, out = run
        digests = tuple(self.digest(out / name)
                        for name in ("reference.csv", "tracking.csv"))
        assert digests == self.DIGESTS[case]

    def test_metadata_digests(self, run):
        case, out = run
        assert self.digest(out / "metadata.json") == self.METADATA_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(REFERENCE_METADATA_DIGESTS))
    def test_reference_metadata_digests(self, case, tmp_path):
        self.require_pinned_versions()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIGS[case])
        out = tmp_path / "ref"
        assert main(["run-reference", "--config", str(cfg), "--out", str(out)]) == 0
        assert self.digest(out / "reference.csv") == self.DIGESTS[case][0]
        assert (self.digest(out / "metadata.json")
                == self.REFERENCE_METADATA_DIGESTS[case])

    def test_spectrum_digests(self, tmp_path, monkeypatch):
        # relative paths, so that the sidecar's "input" is the same in any
        # directory
        self.require_pinned_versions()
        monkeypatch.chdir(tmp_path)
        write_harmonic_csv(Path("run.csv"))
        assert main(["spectrum", "--in", "run.csv", "--out", "spec",
                     "--omega0", "0.3"]) == 0
        digests = tuple(self.digest(Path("spec") / name)
                        for name in ("spectrum.csv", "metadata.json"))
        assert digests == self.SPECTRUM_DIGESTS

    @pytest.mark.parametrize("case", sorted(STDOUT_DIGESTS))
    def test_stdout_digests(self, case, tmp_path, monkeypatch, capsys):
        self.require_pinned_versions()
        monkeypatch.chdir(tmp_path)
        write_harmonic_csv(Path("a.csv"))
        write_harmonic_csv(Path("b.csv"), jitter=1e-3)
        assert main(self.STDOUT_ARGS[case]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_DIGESTS[case]


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

    def test_ati_needs_a_field(self, capsys):
        assert main(["match-intensity", "--mode", "ati", "--omega", "0.05",
                     "--cutoff", "1.2", "--ip", "0.9", "--ip-new", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ati mode needs --field (no cutoff form exists)\n"

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
        meta = read_json(out / "metadata.json")
        assert meta["columns"] == header(out / "spectrum.csv") == \
            ["omega", "harmonic_order", "power"]
        assert meta["cutoff_order"] == 9
        assert meta["window"] == "hann"

    def test_window_none_leaves_the_samples_unwindowed(self, tmp_path, capsys):
        csv = write_harmonic_csv(tmp_path / "run.csv")
        spectra = {}
        for window in ("hann", "none"):
            out = tmp_path / window
            assert main(["spectrum", "--in", str(csv), "--out", str(out),
                         "--omega0", "0.3", "--window", window]) == 0
            assert read_json(out / "metadata.json")["window"] == window
            spectra[window] = (out / "spectrum.csv").read_bytes()
        assert spectra["none"] != spectra["hann"]

    def test_monochromatic_input_exits_3(self, tmp_path, capsys):
        # detection runs before anything is written
        csv = write_harmonic_csv(tmp_path / "mono.csv", orders=(1,), weak=())
        assert main(["spectrum", "--in", str(csv), "--out",
                     str(tmp_path / "s"), "--omega0", "0.3"]) == 3
        assert "failure" in capsys.readouterr().err
        assert list((tmp_path / "s").glob("*")) == []


    def test_missing_column_names_its_file(self, tmp_path, capsys):
        bad = write_p_only_csv(tmp_path / "bad.csv")
        out = tmp_path / "s"
        assert main(["spectrum", "--in", str(bad), "--out", str(out),
                     "--omega0", "0.3"]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: no column 'y'; record has p\n"
        assert not out.exists()


class TestCompare:
    def test_json_report(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        b = write_harmonic_csv(tmp_path / "b.csv", jitter=1e-3)
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--omega0", "0.3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_rms"] == pytest.approx(1e-3 / np.sqrt(2) / 1.582, rel=0.2)
        assert payload["spectra"]["delta_orders"] == 0

    def test_window_none_compares_unwindowed_spectra(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        b = write_harmonic_csv(tmp_path / "b.csv", jitter=1e-3)
        spectra = {}
        for window in ("hann", "none"):
            assert main(["compare", "--a", str(a), "--b", str(b), "--omega0", "0.3",
                         "--window", window, "--json"]) == 0
            spectra[window] = json.loads(capsys.readouterr().out)["spectra"]
        assert spectra["none"] != spectra["hann"]

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

    def test_zero_reference_is_named_absolute(self, tmp_path, capsys):
        # an identically zero --b column, as u of a self-tracking run:
        # relative_rms falls back to the absolute RMS, and the text says so
        a = write_constant_csv(tmp_path / "a.csv", 0.5)
        b = write_constant_csv(tmp_path / "b.csv", 0.0)
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "absolute rms difference: 0.5"
        assert main(["compare", "--a", str(a), "--b", str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_rms"] == payload["rms_difference"] == 0.5
        assert payload["reference_rms"] == 0.0

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

    @pytest.mark.parametrize("side", ["--a", "--b"])
    @pytest.mark.parametrize("t, dt", [("0.0,0.0,0.0", "0.0"),
                                       ("0.0,-0.1,-0.2", "-0.1")],
                             ids=["standing", "falling"])
    def test_time_column_must_advance(self, side, t, dt, tmp_path, capsys):
        good = write_harmonic_csv(tmp_path / "good.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n" + "".join(f"{ti},1.0\n" for ti in t.split(",")))
        files = {"--a": good, "--b": good, side: bad}
        assert main(["compare", *(str(x) for item in files.items() for x in item)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: dt must be positive, got {dt}\n"

    def test_unknown_column_exits_2(self, tmp_path, capsys):
        a = write_harmonic_csv(tmp_path / "a.csv")
        assert main(["compare", "--a", str(a), "--b", str(a),
                     "--column", "response"]) == 2
        assert "no column 'response'" in capsys.readouterr().err


    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_missing_column_names_its_file(self, side, tmp_path, capsys):
        good = write_harmonic_csv(tmp_path / "good.csv")
        bad = write_p_only_csv(tmp_path / "bad.csv")
        files = {"--a": good, "--b": good, side: bad}
        assert main(["compare", *(str(x) for item in files.items() for x in item)]) == 2
        assert capsys.readouterr() == \
            ("", f"error: {bad}: no column 'y'; record has p\n")


class TestFailClosed:
    @pytest.mark.parametrize("command", ["spectrum", "compare", "run-tracking",
                                         "run-reference"])
    def test_os_error_exits_2_naming_its_path(self, command, hubbard_cfg,
                                             tmp_path, capsys):
        # a missing input, or an --out that is a file, is bad input: one
        # error line, not a traceback
        missing = tmp_path / "missing.csv"
        run = write_harmonic_csv(tmp_path / "run.csv")
        argv = {
            "spectrum": ["--in", str(missing), "--out", str(tmp_path / "s"),
                         "--omega0", "0.3"],
            "compare": ["--a", str(missing), "--b", str(run)],
            "run-tracking": ["--config", str(hubbard_cfg), "--out",
                             str(tmp_path / "t"), "--reference", str(missing)],
            "run-reference": ["--config", str(hubbard_cfg), "--out", str(run)],
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        path = run if command == "run-reference" else missing
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert sorted(tmp_path.iterdir()) == [hubbard_cfg, run]

    @pytest.mark.parametrize("command", ["run-reference", "run-tracking",
                                         "spectrum"])
    def test_out_that_is_a_file_fails_before_any_run(self, command, hubbard_cfg,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # a run that could not write its result is not started
        calls = []
        monkeypatch.setattr(cli, "run_open_loop", lambda *a: calls.append(a))
        monkeypatch.setattr(storage, "read_table", lambda *a: calls.append(a))
        run = write_harmonic_csv(tmp_path / "run.csv")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        argv = {"run-reference": ["--config", str(hubbard_cfg)],
                "run-tracking": ["--config", str(hubbard_cfg)],
                "spectrum": ["--in", str(run), "--omega0", "0.3"]}[command]
        assert main([command, *argv, "--out", str(afile)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out {afile}: exists and is not a directory\n"
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [afile, hubbard_cfg, run]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["run-reference", "run-tracking",
                                         "spectrum"])
    def test_out_below_a_file_fails_before_any_run(self, command, hubbard_cfg,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        # the nearest part of --out that exists is checked, not only the
        # path itself: a directory cannot be made below a file
        calls = []
        monkeypatch.setattr(cli, "run_open_loop", lambda *a: calls.append(a))
        monkeypatch.setattr(storage, "read_table", lambda *a: calls.append(a))
        run = write_harmonic_csv(tmp_path / "run.csv")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" / "deeper"
        argv = {"run-reference": ["--config", str(hubbard_cfg)],
                "run-tracking": ["--config", str(hubbard_cfg)],
                "spectrum": ["--in", str(run), "--omega0", "0.3"]}[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out {out}: {afile} exists and is not a directory\n"
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [afile, hubbard_cfg, run]
        assert afile.read_text() == "kept\n"

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
        assert f"{bad}: column 'y' has 1 non-finite samples, the first at step 4" in err
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
        assert main([command, *args, "--gate", gate]) == 2
        rule = "positive" if gate == "0" else "finite"
        assert capsys.readouterr().err == \
            f"error: --gate must be {rule}, got {float(gate)!r}\n"
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
        assert main([command, *args,
                     *(x for item in options.items() for x in item)]) == 2
        rule = "finite" if value in ("inf", "nan") else "positive"
        assert capsys.readouterr().err == \
            f"error: {flag} must be {rule}, got {float(value)!r}\n"
        assert not out.exists()

    # every numeric flag, each on one command that reads it, with its rule
    FLAGS = [("run-tracking", "--gate", "positive"),
             ("spectrum", "--omega0", "positive"),
             ("spectrum", "--drop-db", "positive"),
             ("match-intensity", "--omega", "positive"),
             ("match-intensity", "--ip", "positive"),
             ("match-intensity", "--ip-new", "positive"),
             ("match-intensity", "--field", None),
             ("match-intensity", "--cutoff", None)]

    @pytest.mark.parametrize("command, flag, value, form", [
        pytest.param(command, flag, value, form, id=f"{flag}={value}")
        for command, flag, rule in FLAGS
        for value, form in [("nan", "finite")] + ([("0", rule)] if rule else [])])
    def test_numeric_flag_is_named(self, command, flag, value, form,
                                   hubbard_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_harmonic_csv(Path("run.csv"))
        options = {
            "run-tracking": {"--config": str(hubbard_cfg), "--out": "out"},
            "spectrum": {"--in": "run.csv", "--out": "out", "--omega0": "0.3"},
            "match-intensity": {"--mode": "hhg", "--omega": "0.057", "--ip": "0.579",
                                "--ip-new": "0.5",
                                "--cutoff" if flag == "--cutoff" else "--field": "0.05"},
        }[command]
        options[flag] = value
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *(x for item in options.items() for x in item)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be {form}, got {float(value)!r}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("old, new, message", [
        ("k_p = 100", "k_p = 100\ngate = nan",
         "unknown key 'gate' in section [experiment]"),
        ("u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\ndt = nan\n",
         "[numerics] dt must be finite, got nan"),
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
                   else f"{key} must be finite, got {value}")
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

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_time_column_is_not_a_channel(self, command, tmp_path, capsys):
        # a run CSV's t column is its grid; asked for as a channel, the
        # error says so
        csv = write_p_only_csv(tmp_path / "p.csv")
        args = {"spectrum": ["--in", str(csv), "--out", str(tmp_path / "spec"),
                             "--omega0", "0.3"],
                "compare": ["--a", str(csv), "--b", str(csv)]}[command]
        assert main([command, *args, "--column", "t"]) == 2
        assert capsys.readouterr() == ("", f"error: {csv}: 't' is the record's "
                                           "time grid, not a channel; record has p\n")
        assert not (tmp_path / "spec").exists()

    def test_driven_sector_fails_before_the_reference_runs(self, tmp_path,
                                                           monkeypatch, capsys):
        # the U = 0 driven ring, sector (4, 2, 2), has no unique ground
        # state: the U/t0 = 8 reference is not propagated first
        calls = []
        monkeypatch.setattr(cli, "run_open_loop", lambda *a: calls.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(HUBBARD_CFG.replace("sites = 2", "sites = 4")
                       .replace("u_over_t0 = 1", "u_over_t0 = 0"))
        out = tmp_path / "trk"
        assert main(["run-tracking", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "error: sector (L=4, N_up=2, N_down=2) has no unique ground state: "
            "blocks K = 0 and K = pi share the lowest level -4 to 1e-8\n"))
        assert calls == []
        assert not out.exists()

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
