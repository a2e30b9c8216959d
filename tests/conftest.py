"""Session fixtures caching the expensive full-scale runs.

The bundled default configurations drive multi-minute propagations; each
is run once per session and shared by every test that needs it.  Timings
include system construction (ground-state preparation and, on the atom
platform, softening calibration) because that is part of the workflow a
user pays for.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from amptrack import grid, pulses
from amptrack.config import build_system, parse_config
from amptrack.feedback import FeedbackConfig, run_open_loop, run_tracking
from amptrack.grid import AtomSystem
from amptrack.lattice import HubbardSystem
from amptrack.pulses import PulseSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion_report():
    """Record one pass/fail line per acceptance criterion."""

    def record(number, name, ok, detail) -> bool:
        verdict = "PASS" if ok else "FAIL"
        _CRITERION_LINES.append(f"[criterion {number}] {name}: {detail} -> {verdict}")
        return ok

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.line(line)


@pytest.fixture(autouse=True)
def _fresh_atom_ground_states():
    """Empty the atom's ground-state memo around every test.

    A test that fakes the solver then cannot hand its state to a system
    built in another test, nor to a session fixture set up after it.
    """
    grid._ground_state.cache_clear()
    yield
    grid._ground_state.cache_clear()


def _timed_reference(make_system):
    start = time.perf_counter()
    system = make_system()
    record = run_open_loop(system)
    return SimpleNamespace(
        system=system, record=record, elapsed=time.perf_counter() - start
    )


def _timed_tracking(make_system, reference, cfg):
    start = time.perf_counter()
    system = make_system()
    result = run_tracking(system, reference, cfg)
    return SimpleNamespace(
        system=system, result=result, elapsed=time.perf_counter() - start
    )


@pytest.fixture(scope="session")
def atom_config():
    return parse_config(CONFIG_DIR / "atom_default.cfg")


@pytest.fixture(scope="session")
def hubbard_config():
    return parse_config(CONFIG_DIR / "hubbard_default.cfg")


@pytest.fixture(scope="session")
def argon_reference(atom_config):
    return _timed_reference(lambda: build_system(atom_config, "reference"))


@pytest.fixture(scope="session")
def hydrogen_reference(atom_config):
    return _timed_reference(lambda: build_system(atom_config, "driven"))


@pytest.fixture(scope="session")
def atom_trackings(atom_config, argon_reference, hydrogen_reference):
    """Hydrogen driven to follow the argon reference, at three gains."""
    y = argon_reference.record.series("y")
    system = hydrogen_reference.system  # reusable; runs rebuild their state
    runs = {}
    for k_p in (10.0, 100.0, 1000.0):
        runs[k_p] = _timed_tracking(lambda: system, y, FeedbackConfig(k_p=k_p))
    return runs


@pytest.fixture(scope="session")
def atom_self_tracking(atom_config, argon_reference):
    return _timed_tracking(
        lambda: argon_reference.system,
        argon_reference.record.series("y"),
        FeedbackConfig(k_p=atom_config.feedback.k_p),
    )


@pytest.fixture(scope="session")
def hydrogen_six_cycle_reference(atom_config, hydrogen_reference):
    """The default hydrogen run cut to six cycles; same atom, field and numerics."""
    pulse = atom_config.pulse
    short = PulseSpec(e0=pulse.e0, omega0=pulse.omega0, cycles=6)
    return _timed_reference(
        lambda: AtomSystem(
            hydrogen_reference.system.alpha, short, atom_config.atom.numerics
        )
    )


@pytest.fixture(scope="session")
def matched_hydrogen_reference(atom_config, hydrogen_reference):
    """Hydrogen driven at the field matched to the argon harmonic cutoff."""
    pulse = atom_config.pulse
    target = pulses.hhg_cutoff(pulse.e0, pulse.omega0, atom_config.atom.reference_ip)
    field = pulses.hhg_matched_field(pulse.omega0, target, atom_config.atom.driven_ip)
    matched = PulseSpec(e0=field, omega0=pulse.omega0, cycles=pulse.cycles)
    return _timed_reference(
        lambda: AtomSystem(
            hydrogen_reference.system.alpha, matched, atom_config.atom.numerics
        )
    )


def _hubbard_system(config, u, sites):
    return HubbardSystem(sites, u, config.pulse, config.hubbard.numerics)


@pytest.fixture(scope="session")
def hubbard_reference(hubbard_config):
    cfg = hubbard_config
    return _timed_reference(
        lambda: _hubbard_system(cfg, cfg.hubbard.u_reference, cfg.hubbard.sites)
    )


@pytest.fixture(scope="session")
def hubbard_tracking(hubbard_config, hubbard_reference):
    cfg = hubbard_config
    return _timed_tracking(
        lambda: _hubbard_system(cfg, cfg.hubbard.u_driven, cfg.hubbard.sites),
        hubbard_reference.record.series("y"),
        cfg.feedback,
    )


@pytest.fixture(scope="session")
def hubbard_smoke(hubbard_config):
    """The six-site variant of the default tracking experiment, timed end to end."""
    cfg = hubbard_config
    start = time.perf_counter()
    ref_system = _hubbard_system(cfg, cfg.hubbard.u_reference, 6)
    reference = run_open_loop(ref_system)
    result = run_tracking(
        _hubbard_system(cfg, cfg.hubbard.u_driven, 6),
        reference.series("y"),
        cfg.feedback,
    )
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        reference=reference, ref_system=ref_system, result=result, elapsed=elapsed
    )


@pytest.fixture(scope="session")
def hubbard_self_tracking(hubbard_config, hubbard_smoke):
    cfg = hubbard_config
    return _timed_tracking(
        lambda: hubbard_smoke.ref_system,
        hubbard_smoke.reference.series("y"),
        cfg.feedback,
    )
