"""Config parsing: strict validation and unit conversion at the boundary."""

import json
import math
import re
from pathlib import Path

import pytest

from amptrack.config import build_system, parse_config
from amptrack.exceptions import ConfigError
from amptrack.grid import AtomNumerics, AtomSystem
from amptrack.lattice import HubbardSystem, LatticeNumerics

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text) -> Path:
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


MINIMAL_ATOM = """
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

MINIMAL_HUBBARD = """
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


# json.dumps(cfg.as_dict(), indent=2, sort_keys=True) of the two shipped
# configs: the config echo that every metadata.json sidecar carries
ECHO = {
    "atom_default.cfg": """\
{
  "atom": {
    "driven_ip": 0.5,
    "numerics": {
      "absorber_exponent": 0.125,
      "absorber_fraction": 0.1,
      "box_half_width": 200.0,
      "dt": 0.02,
      "n_points": 4096
    },
    "reference_ip": 0.579
  },
  "feedback": {
    "k_p": 1000.0
  },
  "physical_inputs": {
    "intensity_w_cm2": 100000000000000.0,
    "wavelength_nm": 800.0
  },
  "platform": "atom",
  "pulse": {
    "cycles": 10,
    "duration": 1103.200381123387,
    "e0": 0.05338023364424596,
    "omega0": 0.05695416186116098
  }
}""",
    "hubbard_default.cfg": """\
{
  "feedback": {
    "k_p": 1000.0
  },
  "hubbard": {
    "a_angstrom": 3.8,
    "n_down": 5,
    "n_up": 5,
    "numerics": {
      "dt": 0.005
    },
    "sites": 10,
    "t0_ev": 0.35,
    "u_driven": 1.0,
    "u_reference": 10.0
  },
  "physical_inputs": {
    "e0_mv_cm": 24.0,
    "frequency_thz": 375.0
  },
  "platform": "hubbard",
  "pulse": {
    "cycles": 10,
    "duration": 14.179829516701444,
    "e0": 2.605714285714286,
    "omega0": 4.431072531428573
  }
}""",
}


class TestBundledConfigs:
    def test_atom_default_lab_units(self):
        cfg = parse_config(CONFIG_DIR / "atom_default.cfg")
        assert cfg.platform == "atom"
        assert cfg.feedback.k_p == 1000.0
        # 800 nm and 1e14 W/cm^2 in atomic units
        assert cfg.pulse.omega0 == pytest.approx(0.05695, abs=2e-4)
        assert cfg.pulse.e0 == pytest.approx(0.0534, abs=2e-4)
        assert cfg.pulse.cycles == 10
        assert cfg.atom.reference_ip == 0.579
        assert cfg.atom.driven_ip == 0.5
        assert cfg.atom.numerics.n_points == 4096
        assert cfg.physical["wavelength_nm"] == 800.0

    def test_hubbard_default_lab_units(self):
        cfg = parse_config(CONFIG_DIR / "hubbard_default.cfg")
        assert cfg.platform == "hubbard"
        # 375 THz against t0 = 0.35 eV, 24 MV/cm against a = 3.8 angstrom
        assert cfg.pulse.omega0 == pytest.approx(4.431, abs=2e-3)
        assert cfg.pulse.e0 == pytest.approx(2.606, abs=2e-3)
        assert cfg.hubbard.sites == 10
        assert cfg.hubbard.n_up == 5 and cfg.hubbard.n_down == 5
        assert cfg.hubbard.u_reference == 10.0
        assert cfg.hubbard.u_driven == 1.0
        assert cfg.hubbard.numerics.dt == 0.005

    def test_as_dict_materializes_defaults(self):
        cfg = parse_config(CONFIG_DIR / "hubbard_default.cfg")
        echo = cfg.as_dict()
        assert echo["feedback"] == {"k_p": 1000.0}
        assert echo["hubbard"]["numerics"] == {"dt": 0.005}
        assert echo["pulse"]["duration"] == cfg.pulse.duration
        assert echo["physical_inputs"]["frequency_thz"] == 375.0

    @pytest.mark.parametrize("name", sorted(ECHO))
    def test_metadata_echo_is_pinned(self, name):
        cfg = parse_config(CONFIG_DIR / name)
        assert json.dumps(cfg.as_dict(), indent=2, sort_keys=True) == ECHO[name]


class TestStrictValidation:
    def test_unknown_key_is_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL_ATOM + "\nchirp = 3\n")
        with pytest.raises(ConfigError, match="chirp"):
            parse_config(path)

    def test_unknown_section_is_named(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL_ATOM + "\n[detector]\ngain = 1\n")
        with pytest.raises(ConfigError, match="detector"):
            parse_config(path)

    def test_platform_specific_keys_do_not_leak(self, tmp_path):
        # a lattice section is meaningless for the atom platform
        path = write_cfg(tmp_path, MINIMAL_ATOM + "\n[lattice]\nsites = 4\n")
        with pytest.raises(ConfigError, match="lattice"):
            parse_config(path)

    def test_both_unit_alternatives_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace(
            "omega0_au = 0.8", "omega0_au = 0.8\nwavelength_nm = 800"
        )
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_section_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("[driven]\nip_au = 0.5\n", "")
        with pytest.raises(ConfigError, match=r"\[driven\]"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_experiment_section_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("[experiment]\nplatform = atom\nk_p = 50\n", "")
        with pytest.raises(ConfigError,
                           match=r"^missing required section \[experiment\]$"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_key_rejected(self, tmp_path):
        text = MINIMAL_HUBBARD.replace("k_p = 100", "")
        with pytest.raises(ConfigError, match="k_p"):
            parse_config(write_cfg(tmp_path, text))

    def test_negative_amplitude_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("e0_au = 0.08", "e0_au = -0.08")
        with pytest.raises(ConfigError, match="e0_au must be nonnegative"):
            parse_config(write_cfg(tmp_path, text))

    def test_non_numeric_value_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("k_p = 50", "k_p = strong")
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(write_cfg(tmp_path, text))

    def test_bad_platform_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("platform = atom", "platform = spin")
        with pytest.raises(ConfigError, match="spin"):
            parse_config(write_cfg(tmp_path, text))

    def test_removed_seed_key_rejected(self, tmp_path):
        text = MINIMAL_ATOM.replace("k_p = 50", "k_p = 50\nseed = -1")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_cfg(tmp_path, text))

    def test_overfilled_sector_rejected(self, tmp_path):
        text = MINIMAL_HUBBARD.replace("sites = 2", "sites = 2\nn_up = 3")
        with pytest.raises(ConfigError,
                           match=r"^\[lattice\] n_up must lie in \[0, 2\], got 3$"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("base, old, new, message", [
        ("atom", "omega0_au = 0.8", "wavelength_nm = 0",
         "[pulse] wavelength_nm must be positive"),
        ("hubbard", "omega0_over_t0 = 4.43", "frequency_thz = -375",
         "[pulse] frequency_thz must be positive"),
        ("atom", "e0_au = 0.08", "intensity_w_cm2 = -1e14",
         "[pulse] intensity_w_cm2 must be nonnegative"),
        ("hubbard", "e0_over_t0 = 2.61", "e0_mv_cm = -24",
         "[pulse] e0_mv_cm must be nonnegative"),
        ("atom", "ip_au = 0.5\n", "ip_au = 0\n",
         "[driven] ip_au must be positive, got 0.0"),
        ("atom", "ip_au = 0.579", "ip_ev = -15.8",
         "[reference] ip_ev must be positive, got -15.8"),
        ("atom", "k_p = 50", "k_p = 50\ngate = 0",
         "unknown key 'gate' in section [experiment]"),
        ("atom", "k_p = 50", "k_p = 50\noutput_stride = 0",
         "unknown key 'output_stride' in section [experiment]"),
        ("hubbard", "sites = 2", "sites = 1",
         "[lattice] sites must be at least 2, got 1"),
        ("hubbard", "sites = 2", "sites = 2\nt0_ev = 0",
         "[lattice] t0_ev must be positive, got 0.0"),
        ("hubbard", "sites = 2", "sites = 2\na_angstrom = -3.8",
         "[lattice] a_angstrom must be positive, got -3.8"),
        ("atom", "cycles = 2", "cycles = 2.5",
         "[pulse] cycles: '2.5' is not an integer"),
        ("atom", "[pulse]", "[pulse", "malformed config file"),
        # a non-finite number fails as it is read, naming section and key
        ("atom", "omega0_au = 0.8", "wavelength_nm = nan",
         "[pulse] wavelength_nm must be finite, got nan"),
        ("atom", "e0_au = 0.08", "intensity_w_cm2 = nan",
         "[pulse] intensity_w_cm2 must be finite, got nan"),
        ("atom", "omega0_au = 0.8", "omega0_au = nan",
         "[pulse] omega0_au must be finite, got nan"),
        ("atom", "e0_au = 0.08", "e0_au = nan", "[pulse] e0_au must be finite, got nan"),
        ("atom", "ip_au = 0.579", "ip_au = nan",
         "[reference] ip_au must be finite, got nan"),
        ("atom", "k_p = 50", "k_p = nan", "[experiment] k_p must be finite, got nan"),
        ("atom", "k_p = 50", "k_p = 50\nepsilon = nan",
         "unknown key 'epsilon' in section [experiment]"),
        ("atom", "k_p = 50", "k_p = 50\ngate = nan",
         "unknown key 'gate' in section [experiment]"),
        ("atom", "dt = 0.05", "dt = nan", "[numerics] dt must be finite, got nan"),
        ("atom", "box_half_width = 60", "box_half_width = nan",
         "[numerics] box_half_width must be finite, got nan"),
        ("atom", "dt = 0.05", "dt = 0.05\nabsorber_exponent = nan",
         "[numerics] absorber_exponent must be finite, got nan"),
        ("hubbard", "sites = 2", "sites = 2\nt0_ev = nan",
         "[lattice] t0_ev must be finite, got nan"),
        ("hubbard", "u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\ndt = nan\n",
         "[numerics] dt must be finite, got nan"),
        ("hubbard", "u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\nkrylov_tol = nan\n",
         "unknown key 'krylov_tol' in section [numerics]"),
        # the control law has no threshold, and the Krylov step control is fixed
        ("atom", "k_p = 50", "k_p = 50\nepsilon = 1e-6",
         "unknown key 'epsilon' in section [experiment]"),
        ("hubbard", "u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\nkrylov_dim = 20\n",
         "unknown key 'krylov_dim' in section [numerics]"),
        ("hubbard", "u_over_t0 = 1\n", "u_over_t0 = 1\n[numerics]\nmax_substeps = 64\n",
         "unknown key 'max_substeps' in section [numerics]"),
    ])
    def test_bad_value_is_rejected(self, tmp_path, base, old, new, message):
        text = {"atom": MINIMAL_ATOM, "hubbard": MINIMAL_HUBBARD}[base]
        assert old in text
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(write_cfg(tmp_path, text.replace(old, new)))

    @pytest.mark.parametrize("old, new, message", [
        ("dt = 0.05", "dt = 0", "[numerics] dt must be positive"),
        ("dt = 0.05", "dt = -0.05", "[numerics] dt must be positive"),
        ("n_points = 512", "n_points = 500", "[numerics] n_points must be a power of two, got 500"),
        ("box_half_width = 60", "box_half_width = 0",
         "[numerics] box_half_width must be positive"),
        ("dt = 0.05", "dt = 0.05\nabsorber_fraction = 0.5",
         "[numerics] absorber_fraction must lie in [0, 0.5), got 0.5"),
        ("dt = 0.05", "dt = 0.05\nabsorber_exponent = 0",
         "[numerics] absorber_exponent must be positive"),
    ])
    def test_bad_atom_numerics_fail_at_parse(self, tmp_path, old, new, message):
        text = MINIMAL_ATOM.replace(old, new)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(write_cfg(tmp_path, text))


# each platform's minimal config, a section it does not read, its [driven]
# section and the numerics it takes without a [numerics] section
LAYOUTS = {
    "atom": (MINIMAL_ATOM, "lattice", "[driven]\nip_au = 0.5\n", AtomNumerics()),
    "hubbard": (MINIMAL_HUBBARD, "detector", "[driven]\nu_over_t0 = 1\n",
                LatticeNumerics()),
}


def unknown_section(platform) -> str:
    unknown = LAYOUTS[platform][1]
    return rf"^unknown section \[{unknown}\] for platform '{platform}'$"


@pytest.mark.parametrize("platform", sorted(LAYOUTS))
class TestSectionLayout:
    def test_unknown_section_message(self, tmp_path, platform):
        text, unknown, _, _ = LAYOUTS[platform]
        path = write_cfg(tmp_path, f"{text}\n[{unknown}]\ngain = 1\n")
        with pytest.raises(ConfigError, match=unknown_section(platform)):
            parse_config(path)

    def test_missing_section_message(self, tmp_path, platform):
        text, _, driven, _ = LAYOUTS[platform]
        assert driven in text
        with pytest.raises(ConfigError,
                           match=r"^missing required section \[driven\]$"):
            parse_config(write_cfg(tmp_path, text.replace(driven, "")))

    def test_unknown_section_is_reported_before_missing(self, tmp_path, platform):
        text, unknown, driven, _ = LAYOUTS[platform]
        text = f"{text.replace(driven, '')}\n[{unknown}]\ngain = 1\n"
        with pytest.raises(ConfigError, match=unknown_section(platform)):
            parse_config(write_cfg(tmp_path, text))

    def test_numerics_section_is_optional(self, tmp_path, platform):
        text, _, _, defaults = LAYOUTS[platform]
        text = text.split("[numerics]")[0]
        cfg = parse_config(write_cfg(tmp_path, text))
        assert (cfg.atom or cfg.hubbard).numerics == defaults


# every number the parser reads: platform, section, the line it replaces,
# the key's line (the value goes in the braces), and the key's sign rule
NUMERIC_KEYS = [
    ("atom", "experiment", "k_p = 50", "k_p = {}", "nonnegative"),
    ("atom", "pulse", "omega0_au = 0.8", "omega0_au = {}", "positive"),
    ("atom", "pulse", "omega0_au = 0.8", "wavelength_nm = {}", "positive"),
    ("atom", "pulse", "e0_au = 0.08", "e0_au = {}", "nonnegative"),
    ("atom", "pulse", "e0_au = 0.08", "intensity_w_cm2 = {}", "nonnegative"),
    ("hubbard", "pulse", "omega0_over_t0 = 4.43", "omega0_over_t0 = {}", "positive"),
    ("hubbard", "pulse", "omega0_over_t0 = 4.43", "frequency_thz = {}", "positive"),
    ("hubbard", "pulse", "e0_over_t0 = 2.61", "e0_over_t0 = {}", "nonnegative"),
    ("hubbard", "pulse", "e0_over_t0 = 2.61", "e0_mv_cm = {}", "nonnegative"),
    ("atom", "pulse", "cycles = 2", "cycles = {}", "positive"),
    ("atom", "reference", "ip_au = 0.579", "ip_au = {}", "positive"),
    ("atom", "driven", "ip_au = 0.5\n", "ip_ev = {}\n", "positive"),
    ("hubbard", "lattice", "sites = 2", "sites = 2\nt0_ev = {}", "positive"),
    ("hubbard", "lattice", "sites = 2", "sites = 2\na_angstrom = {}", "positive"),
    ("hubbard", "driven", "u_over_t0 = 1\n", "u_over_t0 = {}\n", None),
    ("atom", "numerics", "dt = 0.05", "dt = {}", "positive"),
    ("atom", "numerics", "box_half_width = 60", "box_half_width = {}", "positive"),
    ("atom", "numerics", "dt = 0.05", "dt = 0.05\nabsorber_exponent = {}", "positive"),
]


def numeric_key_cases():
    """NaN for every key, and 0 (positive) or -1 (nonnegative) for each key
    with a sign rule.  The integer key ``cycles`` reads "nan" as not an
    integer, so it has only its sign case."""
    for base, section, old, new, rule in NUMERIC_KEYS:
        key = re.search(r"(\w+) = \{\}", new).group(1)
        kind = int if key == "cycles" else float
        values = [] if kind is int else [("nan", "finite")]
        if rule is not None:
            values.append(("0" if rule == "positive" else "-1", rule))
        for value, form in values:
            message = f"[{section}] {key} must be {form}, got {kind(value)!r}"
            yield pytest.param(base, old, new.format(value), message,
                               id=f"{key}={value}")


class TestNumericKeys:
    @pytest.mark.parametrize("base, old, new, message", numeric_key_cases())
    def test_message_names_section_and_key(self, tmp_path, base, old, new,
                                           message):
        text = {"atom": MINIMAL_ATOM, "hubbard": MINIMAL_HUBBARD}[base]
        assert old in text
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_cfg(tmp_path, text.replace(old, new)))

    @pytest.mark.parametrize("new, message", [
        ("sites = 1", "[lattice] sites must be at least 2, got 1"),
        ("sites = 4\nn_up = 5", "[lattice] n_up must lie in [0, 4], got 5"),
        ("sites = 4\nn_up = -1", "[lattice] n_up must lie in [0, 4], got -1"),
        ("sites = 4\nn_down = 5", "[lattice] n_down must lie in [0, 4], got 5"),
        ("sites = 4\nn_down = -1", "[lattice] n_down must lie in [0, 4], got -1"),
    ], ids=["sites=1", "n_up=5", "n_up=-1", "n_down=5", "n_down=-1"])
    def test_integer_keys_keep_their_bounds(self, tmp_path, new, message):
        text = MINIMAL_HUBBARD.replace("sites = 2", new)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_cfg(tmp_path, text))

    # a lab value that passes its rule but not once converted is named by
    # its key: 1e-320 nm underflows to a zero wavelength in metres, 375 THz
    # over t0 = 1e-320 eV overflows, 1e-323 eV underflows to 0 hartree
    @pytest.mark.parametrize("base, edits, message", [
        ("atom", {"omega0_au = 0.8": "wavelength_nm = 1e-320"},
         "[pulse] wavelength_nm must convert to a finite, positive omega0_au, "
         "got 1e-320"),
        ("hubbard", {"omega0_over_t0 = 4.43": "frequency_thz = 375",
                     "sites = 2": "sites = 2\nt0_ev = 1e-320"},
         "[pulse] frequency_thz must convert to a finite, positive "
         "omega0_over_t0, got 375.0"),
        ("atom", {"ip_au = 0.579": "ip_ev = 1e-323"},
         "[reference] ip_ev must convert to a finite, positive ip_au, "
         "got 1e-323"),
    ], ids=["wavelength_nm", "frequency_thz", "ip_ev"])
    def test_lab_value_must_convert(self, tmp_path, base, edits, message):
        text = {"atom": MINIMAL_ATOM, "hubbard": MINIMAL_HUBBARD}[base]
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_cfg(tmp_path, text))


class TestBuildSystem:
    def test_atom_systems_are_calibrated(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL_ATOM))
        driven = build_system(cfg, "driven")
        assert isinstance(driven, AtomSystem)
        # ip = 0.5 calibrates to the textbook softening sqrt(2)
        assert driven.alpha == pytest.approx(math.sqrt(2), abs=0.02)
        assert driven.dt == 0.05

    def test_hubbard_roles_differ_in_interaction(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL_HUBBARD))
        ref = build_system(cfg, "reference")
        driven = build_system(cfg, "driven")
        assert isinstance(ref, HubbardSystem)
        assert ref.u == 8.0 and driven.u == 1.0
        assert ref.n_sites == driven.n_sites == 2
        assert ref.basis.block.n_up == 1 and ref.basis.block.n_down == 1

    def test_role_is_checked(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL_HUBBARD))
        with pytest.raises(ValueError, match="role"):
            build_system(cfg, "witness")
