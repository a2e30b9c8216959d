"""Experiment configuration files and their strict parser.

Configs are INI files.  Laboratory units (eV, THz, MV/cm, angstrom,
W/cm^2, nm) are converted to program units here, at the boundary, and
never appear downstream.  Parsing is strict and consumes what it reads:
a section the platform does not take, a key left over in a section it
does take, a missing required key, or two alternatives for the same
quantity all raise a configuration error naming the offender.
"""

import configparser
from dataclasses import asdict, dataclass, fields

from . import units
from .exceptions import ConfigError, _require, _require_int
from .feedback import FeedbackConfig
from .grid import AtomNumerics, AtomSystem, calibrate_softening
from .lattice import HubbardSystem, LatticeNumerics
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
    atom: AtomParams | None
    hubbard: HubbardParams | None
    physical: dict

    def as_dict(self) -> dict:
        """Echo for metadata sidecars: program units plus the lab inputs."""
        out = asdict(self)
        out["pulse"]["duration"] = self.pulse.duration
        out["physical_inputs"] = out.pop("physical")
        for name in ("atom", "hubbard"):
            if out[name] is None:
                del out[name]
        return out


_REQUIRED = object()
_KINDS = {float: "a number", int: "an integer"}


class _Section:
    """One config section whose keys are consumed as they are read."""

    def __init__(self, name: str, raw: dict, physical: dict):
        self.name = name
        self.raw = dict(raw)
        self.physical = physical

    def take(self, key: str, kind=float, default=_REQUIRED, rule=None, bounds=()):
        """Pop ``key`` and convert it with ``kind``, else return ``default``.

        A number must be finite and satisfy ``rule`` (``"positive"`` or
        ``"nonnegative"``), by `_require`, and an integer must lie within
        ``bounds``, ``(lo,)`` or ``(lo, hi)``, by `_require_int`, under the
        key's own name.
        """
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing key '{key}' in section [{self.name}]")
            return default
        text = self.raw.pop(key)
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: '{text}' is not {_KINDS[kind]}")
        if kind in _KINDS:
            try:
                _require(rule, **{key: value})
                if bounds:
                    _require_int(key, value, *bounds)
            except ValueError as exc:
                raise ConfigError(f"[{self.name}] {exc}") from None
        return value

    def one_of(self, program: str, lab: str, convert, rule: str, echo=None) -> float:
        """A quantity given either in program units or in laboratory units.

        Either key's value must satisfy ``rule``.  A lab value is echoed
        to the physical inputs as ``echo`` (default: the lab key) and is
        converted with ``convert``; the result must satisfy ``rule`` too,
        else the error names the lab key.
        """
        present = [k for k in (program, lab) if k in self.raw]
        if len(present) != 1:
            raise ConfigError(
                f"section [{self.name}] needs exactly one of {sorted((program, lab))}, "
                f"found {sorted(present) or 'none'}"
            )
        value = self.take(present[0], rule=rule)
        if present[0] == program:
            return value
        self.physical[echo or lab] = value
        try:
            converted = convert(value)
            _require(rule, converted=converted)
        except (ArithmeticError, ValueError):
            raise ConfigError(f"[{self.name}] {lab} must convert to a finite, {rule} "
                              f"{program}, got {value!r}") from None
        return converted


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


def _from_section(sec: _Section, defaults):
    """A copy of the dataclass ``defaults`` with each field read from the
    key of its name, of the default's type."""
    values = {}
    for f in fields(defaults):
        value = getattr(defaults, f.name)
        values[f.name] = sec.take(f.name, type(value), value)
    try:
        return type(defaults)(**values)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {exc}")


def _pulse(sec: _Section, omega0: float, e0: float) -> PulseSpec:
    return PulseSpec(e0=e0, omega0=omega0,
                     cycles=sec.take("cycles", int, rule="positive"))


def _ip(sec: _Section) -> float:
    return sec.one_of("ip_au", "ip_ev", units.ev_to_au, "positive",
                      echo=f"{sec.name}_ip_ev")


def _parse_atom(pulse: _Section, ref: _Section, drv: _Section,
                num: _Section) -> dict:
    omega0 = pulse.one_of("omega0_au", "wavelength_nm",
                          units.wavelength_nm_to_au_angular, "positive")
    e0 = pulse.one_of("e0_au", "intensity_w_cm2",
                      units.intensity_to_au_field, "nonnegative")
    return {
        "pulse": _pulse(pulse, omega0, e0),
        "atom": AtomParams(reference_ip=_ip(ref), driven_ip=_ip(drv),
                           numerics=_from_section(num, AtomNumerics())),
    }


def _parse_hubbard(lat: _Section, ref: _Section, drv: _Section,
                   pulse: _Section, num: _Section) -> dict:
    sites = lat.take("sites", int, bounds=(2,))
    t0_ev = lat.take("t0_ev", float, 1.0, "positive")
    a_angstrom = lat.take("a_angstrom", float, 1.0, "positive")
    n_up = lat.take("n_up", int, sites // 2, bounds=(0, sites))
    n_down = lat.take("n_down", int, sites // 2, bounds=(0, sites))
    u_ref, u_dr = ref.take("u_over_t0"), drv.take("u_over_t0")
    omega0 = pulse.one_of("omega0_over_t0", "frequency_thz",
                          lambda thz: units.thz_to_ev(thz) / t0_ev, "positive")
    # aE0/t0 with E0 in V/angstrom: 1 MV/cm = 0.01 V/angstrom
    e0 = pulse.one_of("e0_over_t0", "e0_mv_cm",
                      lambda mv_cm: (mv_cm / 100.0) * a_angstrom / t0_ev,
                      "nonnegative")
    return {
        "pulse": _pulse(pulse, omega0, e0),
        "hubbard": HubbardParams(
            sites=sites, n_up=n_up, n_down=n_down,
            u_reference=u_ref, u_driven=u_dr,
            t0_ev=t0_ev, a_angstrom=a_angstrom,
            numerics=_from_section(num, LatticeNumerics()),
        ),
    }


# each platform's parser and the sections it takes, in argument order; the
# optional [numerics] comes last, empty when the file has none
_PLATFORMS = {
    "atom": (_parse_atom, ("pulse", "reference", "driven")),
    "hubbard": (_parse_hubbard, ("lattice", "reference", "driven", "pulse")),
}


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    raw = _load_sections(path)
    if "experiment" not in raw:
        raise ConfigError("missing required section [experiment]")
    physical = {}
    exp = _Section("experiment", raw.pop("experiment"), physical)
    platform = exp.take("platform", str.strip)
    if platform not in _PLATFORMS:
        names = " or ".join(f"'{name}'" for name in _PLATFORMS)
        raise ConfigError(f"[experiment] platform must be {names}, got '{platform}'")
    parse, required = _PLATFORMS[platform]
    layout = (*required, "numerics")
    for name in raw:
        if name not in layout:
            raise ConfigError(f"unknown section [{name}] for platform '{platform}'")
    for name in required:
        if name not in raw:
            raise ConfigError(f"missing required section [{name}]")
    sections = [_Section(name, raw.get(name, {}), physical) for name in layout]
    try:
        parts = parse(*sections)
        feedback = FeedbackConfig(k_p=exp.take("k_p", rule="nonnegative"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    for sec in (exp, *sections):
        for key in sec.raw:
            raise ConfigError(f"unknown key '{key}' in section [{sec.name}]")
    return ExperimentConfig(
        platform=platform, pulse=parts["pulse"], feedback=feedback,
        atom=parts.get("atom"), hubbard=parts.get("hubbard"), physical=physical,
    )


def build_system(cfg: ExperimentConfig, role: str):
    """Instantiate the reference or driven system described by ``cfg``.

    ``role`` is ``"reference"`` or ``"driven"``.  Atom systems calibrate
    their softening parameter here, so construction can take a few
    seconds on large grids; the system, built in its ground state, takes
    the calibration's last solve from the memo and solves nothing itself.
    """
    if role not in ("reference", "driven"):
        raise ValueError("role must be 'reference' or 'driven'")
    if cfg.platform == "atom":
        ip = cfg.atom.reference_ip if role == "reference" else cfg.atom.driven_ip
        alpha = calibrate_softening(ip, cfg.atom.numerics)
        return AtomSystem(alpha, cfg.pulse, cfg.atom.numerics)
    par = cfg.hubbard
    u = par.u_reference if role == "reference" else par.u_driven
    return HubbardSystem(
        par.sites, u, cfg.pulse, par.numerics, n_up=par.n_up, n_down=par.n_down
    )
