"""Experiment configuration files and their strict parser.

Configs are INI files.  Laboratory units (eV, THz, MV/cm, angstrom,
W/cm^2, nm) are converted to program units here, at the boundary, and
never appear downstream.  Parsing is strict: an unknown section or key,
a missing required key, or two alternatives for the same quantity all
raise a configuration error naming the offender.
"""

import configparser
from dataclasses import dataclass

from . import units
from .exceptions import ConfigError
from .feedback import FeedbackConfig
from .grid import AbsorberSpec, AtomNumerics, AtomSystem, atom_for_ip
from .lattice import HubbardSystem, LatticeModel, LatticeNumerics
from .pulses import PulseSpec

__all__ = [
    "AtomParams",
    "HubbardParams",
    "ExperimentConfig",
    "parse_config",
    "build_system",
]


@dataclass(frozen=True)
class AtomParams:
    """Grid-platform parameters in atomic units."""

    reference_ip: float
    driven_ip: float
    numerics: AtomNumerics


@dataclass(frozen=True)
class HubbardParams:
    """Lattice-platform parameters in hopping units (t0 = a = 1)."""

    sites: int
    n_up: int
    n_down: int
    u_reference: float
    u_driven: float
    t0_ev: float
    a_angstrom: float
    numerics: LatticeNumerics


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully materialized experiment: every default resolved."""

    platform: str
    pulse: PulseSpec
    feedback: FeedbackConfig
    gate: float | None
    atom: AtomParams | None
    hubbard: HubbardParams | None
    physical: dict

    def as_dict(self) -> dict:
        """Echo for metadata sidecars: program units plus the lab inputs."""
        out = {
            "platform": self.platform,
            "pulse": {
                "e0": self.pulse.e0,
                "omega0": self.pulse.omega0,
                "cycles": self.pulse.cycles,
                "duration": self.pulse.duration,
            },
            "feedback": {
                "k_p": self.feedback.k_p,
                "epsilon": self.feedback.epsilon,
                "output_stride": self.feedback.output_stride,
            },
            "gate": self.gate,
            "physical_inputs": dict(self.physical),
        }
        if self.atom is not None:
            num = self.atom.numerics
            out["atom"] = {
                "reference_ip": self.atom.reference_ip,
                "driven_ip": self.atom.driven_ip,
                "numerics": {
                    "box_half_width": num.box_half_width,
                    "n_points": num.n_points,
                    "dt": num.dt,
                    "absorber_fraction": num.absorber.fraction,
                    "absorber_exponent": num.absorber.exponent,
                },
            }
        if self.hubbard is not None:
            num = self.hubbard.numerics
            out["hubbard"] = {
                "sites": self.hubbard.sites,
                "n_up": self.hubbard.n_up,
                "n_down": self.hubbard.n_down,
                "u_reference": self.hubbard.u_reference,
                "u_driven": self.hubbard.u_driven,
                "t0_ev": self.hubbard.t0_ev,
                "a_angstrom": self.hubbard.a_angstrom,
                "numerics": {
                    "dt": num.dt,
                    "krylov_dim": num.krylov_dim,
                    "krylov_tol": num.krylov_tol,
                    "max_substeps": num.max_substeps,
                },
            }
        return out


# allowed keys per section, per platform
_SCHEMA = {
    "atom": {
        "experiment": {"platform", "k_p", "epsilon", "output_stride", "gate"},
        "pulse": {"wavelength_nm", "omega0_au", "intensity_w_cm2", "e0_au", "cycles"},
        "reference": {"ip_au", "ip_ev"},
        "driven": {"ip_au", "ip_ev"},
        "numerics": {
            "box_half_width", "n_points", "dt",
            "absorber_fraction", "absorber_exponent",
        },
    },
    "hubbard": {
        "experiment": {"platform", "k_p", "epsilon", "output_stride", "gate"},
        "pulse": {"frequency_thz", "omega0_over_t0", "e0_mv_cm", "e0_over_t0", "cycles"},
        "lattice": {"sites", "t0_ev", "a_angstrom", "n_up", "n_down"},
        "reference": {"u_over_t0"},
        "driven": {"u_over_t0"},
        "numerics": {"dt", "krylov_dim", "krylov_tol", "max_substeps"},
    },
}

_REQUIRED_SECTIONS = {
    "atom": ("experiment", "pulse", "reference", "driven"),
    "hubbard": ("experiment", "pulse", "lattice", "reference", "driven"),
}


class _Section:
    """One config section with typed, consumed-key access."""

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.raw = dict(raw)

    def has(self, key: str) -> bool:
        return key in self.raw

    def _take(self, key: str) -> str:
        try:
            return self.raw[key]
        except KeyError:
            raise ConfigError(f"missing key '{key}' in section [{self.name}]")

    def get_float(self, key: str, default=None):
        if default is not None and key not in self.raw:
            return default
        text = self._take(key)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: '{text}' is not a number")

    def get_int(self, key: str, default=None):
        if default is not None and key not in self.raw:
            return default
        text = self._take(key)
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: '{text}' is not an integer")

    def get_str(self, key: str) -> str:
        return self._take(key).strip()

    def pick_one(self, *keys: str) -> str:
        """The single key of ``keys`` present in the section."""
        present = [k for k in keys if k in self.raw]
        if len(present) != 1:
            raise ConfigError(
                f"section [{self.name}] needs exactly one of {sorted(keys)}, "
                f"found {sorted(present) or 'none'}"
            )
        return present[0]


def _load_sections(path) -> dict:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        with open(path, "r") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}")
    return {name: dict(parser[name]) for name in parser.sections()}


def _check_schema(sections: dict, platform: str) -> None:
    schema = _SCHEMA[platform]
    for name, body in sections.items():
        if name not in schema:
            raise ConfigError(f"unknown section [{name}] for platform '{platform}'")
        for key in body:
            if key not in schema[name]:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")
    for name in _REQUIRED_SECTIONS[platform]:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")


def _parse_experiment(sec: _Section):
    k_p = sec.get_float("k_p")
    feedback = FeedbackConfig(
        k_p=k_p,
        epsilon=sec.get_float("epsilon", 1e-6),
        output_stride=sec.get_int("output_stride", 1),
    )
    gate = sec.get_float("gate") if sec.has("gate") else None
    if gate is not None and gate <= 0:
        raise ConfigError("[experiment] gate must be positive")
    return feedback, gate


def _parse_atom_pulse(sec: _Section, physical: dict) -> PulseSpec:
    freq_key = sec.pick_one("wavelength_nm", "omega0_au")
    if freq_key == "wavelength_nm":
        wavelength = sec.get_float("wavelength_nm")
        if wavelength <= 0:
            raise ConfigError("[pulse] wavelength_nm must be positive")
        physical["wavelength_nm"] = wavelength
        omega0 = units.wavelength_nm_to_au_angular(wavelength)
    else:
        omega0 = sec.get_float("omega0_au")
    amp_key = sec.pick_one("intensity_w_cm2", "e0_au")
    if amp_key == "intensity_w_cm2":
        intensity = sec.get_float("intensity_w_cm2")
        if intensity < 0:
            raise ConfigError("[pulse] intensity_w_cm2 must be nonnegative")
        physical["intensity_w_cm2"] = intensity
        e0 = units.intensity_to_au_field(intensity)
    else:
        e0 = sec.get_float("e0_au")
    if e0 < 0:
        raise ConfigError("[pulse] field amplitude must be nonnegative")
    return PulseSpec(e0=e0, omega0=omega0, cycles=sec.get_int("cycles"))


def _parse_hubbard_pulse(sec: _Section, t0_ev: float, a_angstrom: float,
                         physical: dict) -> PulseSpec:
    freq_key = sec.pick_one("frequency_thz", "omega0_over_t0")
    if freq_key == "frequency_thz":
        thz = sec.get_float("frequency_thz")
        if thz <= 0:
            raise ConfigError("[pulse] frequency_thz must be positive")
        physical["frequency_thz"] = thz
        omega0 = units.thz_to_ev(thz) / t0_ev
    else:
        omega0 = sec.get_float("omega0_over_t0")
    amp_key = sec.pick_one("e0_mv_cm", "e0_over_t0")
    if amp_key == "e0_mv_cm":
        mv_cm = sec.get_float("e0_mv_cm")
        if mv_cm < 0:
            raise ConfigError("[pulse] e0_mv_cm must be nonnegative")
        physical["e0_mv_cm"] = mv_cm
        # aE0/t0 with E0 in V/angstrom: 1 MV/cm = 0.01 V/angstrom
        e0 = (mv_cm / 100.0) * a_angstrom / t0_ev
    else:
        e0 = sec.get_float("e0_over_t0")
    if e0 < 0:
        raise ConfigError("[pulse] field amplitude must be nonnegative")
    return PulseSpec(e0=e0, omega0=omega0, cycles=sec.get_int("cycles"))


def _parse_ip(sec: _Section, physical: dict) -> float:
    key = sec.pick_one("ip_au", "ip_ev")
    if key == "ip_ev":
        ev = sec.get_float("ip_ev")
        physical[f"{sec.name}_ip_ev"] = ev
        ip = units.ev_to_au(ev)
    else:
        ip = sec.get_float("ip_au")
    if ip <= 0:
        raise ConfigError(f"[{sec.name}] ionization potential must be positive")
    return ip


def _parse_atom_numerics(sec: _Section) -> AtomNumerics:
    try:
        absorber = AbsorberSpec(
            fraction=sec.get_float("absorber_fraction", AbsorberSpec().fraction),
            exponent=sec.get_float("absorber_exponent", AbsorberSpec().exponent),
        )
        return AtomNumerics(
            box_half_width=sec.get_float("box_half_width", 200.0),
            n_points=sec.get_int("n_points", 4096),
            dt=sec.get_float("dt", 0.02),
            absorber=absorber,
        )
    except ValueError as exc:
        raise ConfigError(f"[numerics] {exc}")


def _parse_lattice_numerics(sec: _Section) -> LatticeNumerics:
    defaults = LatticeNumerics()
    try:
        return LatticeNumerics(
            dt=sec.get_float("dt", defaults.dt),
            krylov_dim=sec.get_int("krylov_dim", defaults.krylov_dim),
            krylov_tol=sec.get_float("krylov_tol", defaults.krylov_tol),
            max_substeps=sec.get_int("max_substeps", defaults.max_substeps),
        )
    except ValueError as exc:
        raise ConfigError(f"[numerics] {exc}")


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    sections = _load_sections(path)
    if "experiment" not in sections:
        raise ConfigError("missing required section [experiment]")
    exp = _Section("experiment", sections["experiment"])
    platform = exp.get_str("platform")
    if platform not in _SCHEMA:
        raise ConfigError(
            f"[experiment] platform must be 'atom' or 'hubbard', got '{platform}'"
        )
    _check_schema(sections, platform)

    def section(name: str) -> _Section:
        return _Section(name, sections.get(name, {}))

    physical = {}
    try:
        feedback, gate = _parse_experiment(exp)
        if platform == "atom":
            pulse = _parse_atom_pulse(section("pulse"), physical)
            atom = AtomParams(
                reference_ip=_parse_ip(section("reference"), physical),
                driven_ip=_parse_ip(section("driven"), physical),
                numerics=_parse_atom_numerics(section("numerics")),
            )
            hubbard = None
        else:
            lat = section("lattice")
            sites = lat.get_int("sites")
            if sites < 2:
                raise ConfigError("[lattice] sites must be at least 2")
            t0_ev = lat.get_float("t0_ev", 1.0)
            a_angstrom = lat.get_float("a_angstrom", 1.0)
            if t0_ev <= 0 or a_angstrom <= 0:
                raise ConfigError("[lattice] t0_ev and a_angstrom must be positive")
            n_up = lat.get_int("n_up") if lat.has("n_up") else sites // 2
            n_down = lat.get_int("n_down") if lat.has("n_down") else sites // 2
            if not (0 <= n_up <= sites and 0 <= n_down <= sites):
                raise ConfigError("[lattice] fillings must lie in [0, sites]")
            u_ref = section("reference").get_float("u_over_t0")
            u_dr = section("driven").get_float("u_over_t0")
            pulse = _parse_hubbard_pulse(section("pulse"), t0_ev, a_angstrom, physical)
            atom = None
            hubbard = HubbardParams(
                sites=sites, n_up=n_up, n_down=n_down,
                u_reference=u_ref, u_driven=u_dr,
                t0_ev=t0_ev, a_angstrom=a_angstrom,
                numerics=_parse_lattice_numerics(section("numerics")),
            )
    except ValueError as exc:
        raise ConfigError(str(exc))

    return ExperimentConfig(
        platform=platform, pulse=pulse, feedback=feedback,
        gate=gate, atom=atom, hubbard=hubbard, physical=physical,
    )


def build_system(cfg: ExperimentConfig, role: str):
    """Instantiate the reference or driven system described by ``cfg``.

    ``role`` is ``"reference"`` or ``"driven"``.  Atom systems calibrate
    their softening parameter here, so construction can take a few
    seconds on large grids.
    """
    if role not in ("reference", "driven"):
        raise ValueError("role must be 'reference' or 'driven'")
    if cfg.platform == "atom":
        ip = cfg.atom.reference_ip if role == "reference" else cfg.atom.driven_ip
        spec = atom_for_ip(ip, cfg.atom.numerics.grid())
        return AtomSystem(spec, cfg.pulse, cfg.atom.numerics)
    par = cfg.hubbard
    u = par.u_reference if role == "reference" else par.u_driven
    model = LatticeModel(t0=1.0, u=u, a=1.0, n_sites=par.sites)
    return HubbardSystem(
        model, cfg.pulse, par.numerics, n_up=par.n_up, n_down=par.n_down
    )
