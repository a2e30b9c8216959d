"""The public surface: exported names, the names the demos and the docs'
scripts import, and the call sites the benchmark traces.

``perfbench/spans.py`` shims named functions and methods of the layer
modules to time them.  Its ``TARGETS`` table is read here, never changed,
so a rename or deletion that would break the traced benchmark fails in
the fast suite; so does anything else that breaks one ring10 round of the
benchmark, run here in a subprocess.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amptrack
from amptrack import grid, storage

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

MODULES = sorted(
    f"amptrack.{info.name}" for info in pkgutil.iter_modules(amptrack.__path__)
)


def span_targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {SPANS}")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    # executes the module body (imports and constants), not ``main``
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_benchmark_span_targets_resolve():
    targets = span_targets()
    assert targets
    for span, module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            # the shim replaces cls.__dict__[meth], so it must not be inherited
            assert meth in vars(cls), f"{span}: {attr} not defined on {cls_name}"
        else:
            assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr}"


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_round_runs(trace, tmp_path):
    # one ring10 round of the benchmark, as perfbench/run.py starts it, so
    # a change that breaks perfbench/workloads.py fails here first
    proc = subprocess.run(
        [sys.executable, "perfbench/workloads.py", "--workload", "ring10",
         "--trace", str(trace), "--out", str(tmp_path / "out")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0, proc.stderr
    if trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        assert sorted(report["layers"]) == sorted(m["name"] for m in per_layer)


def test_imports_load_only_the_scipy_the_package_uses():
    # each scipy subpackage costs megabytes of resident memory in every
    # run; fft, linalg (LAPACK) and sparse (CSR products) are used, and
    # special comes with fft.  A fresh process is needed: the test modules
    # load other subpackages into this one.
    probe = ("import sys, amptrack, amptrack.cli; "
             "print(' '.join(sorted(name for name, module in sys.modules.items() "
             "if name.startswith('scipy.') and name.count('.') == 1 "
             "and hasattr(module, '__path__'))))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("scipy.") for name in proc.stdout.split()}
    public = {name for name in loaded if not name.startswith("_")}
    assert public <= {"fft", "linalg", "sparse", "special"}, sorted(public)


def test_whole_numbers_are_checked_in_one_place():
    # operator.index is the integer test of exceptions._require_int; any
    # other module that calls it checks whole numbers by hand
    offenders = []
    for path in sorted((ROOT / "src" / "amptrack").glob("*.py")):
        if path.name == "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            by_attribute = (isinstance(node, ast.Attribute) and node.attr == "index"
                            and getattr(node.value, "id", None) == "operator")
            by_import = (isinstance(node, ast.ImportFrom) and node.module == "operator"
                         and any(alias.name == "index" for alias in node.names))
            if by_attribute or by_import:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"operator.index outside exceptions.py: {offenders}"


def source_callers(matches) -> set:
    """'module.function', or 'module.Class.method', of every node in
    src/amptrack that ``matches``."""
    callers = set()
    for path in sorted((ROOT / "src" / "amptrack").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node
        for node in ast.walk(tree):
            if matches(node):
                scope = node
                while scope in owner and not isinstance(scope, ast.FunctionDef):
                    scope = owner[scope]
                name = getattr(scope, "name", "<module>")
                if isinstance(owner.get(scope), ast.ClassDef):
                    name = f"{owner[scope].name}.{name}"
                callers.add(f"{path.stem}.{name}")
    return callers


def calls_to(name):
    """Matches a call of ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_loop_steps_every_system():
    # feedback._run is the one propagation loop: no other function starts,
    # reads or advances a system's state
    hooks = {"initial_state", "observables", "advance"}
    callers = source_callers(
        lambda node: isinstance(node, ast.Attribute) and node.attr in hooks)
    assert callers == {"feedback._run"}


def test_one_memo_solves_every_atom_ground_state():
    # grid._ground_state is the one caller of the imaginary-time solver, so
    # a calibration and the systems built after it share its memo
    callers = source_callers(calls_to("imaginary_time_ground_state"))
    assert callers == {"grid._ground_state"}


def test_a_ring_scans_its_sector_once_when_built():
    # only the sector scan solves a block, and only construction scans, so
    # a HubbardSystem holds its ground state from the start and
    # initial_state solves nothing
    def lattice_callers(name):
        return {c for c in source_callers(calls_to(name)) if c.startswith("lattice.")}

    assert lattice_callers("_ground_state") == {"lattice._sector_ground_state"}
    assert lattice_callers("_sector_ground_state") == {"lattice.HubbardSystem.__init__"}


SPECTRUM = amptrack.Spectrum(omega=[0.0, 1.0, 2.0, 3.0], power=[1.0] * 4)
NUMERICS = amptrack.AtomNumerics(box_half_width=10.0, n_points=8)

# valid keyword arguments of each public value type and numeric function
VALID = {
    amptrack.PulseSpec: dict(e0=1.0, omega0=1.0, cycles=1),
    amptrack.HubbardSystem: dict(n_sites=2, u=1.0,
                                 pulse=amptrack.PulseSpec(1.0, 1.0, 1)),
    amptrack.AtomNumerics: dict(),
    amptrack.LatticeNumerics: dict(),
    amptrack.FeedbackConfig: dict(k_p=1.0),
    amptrack.TimeSeries: dict(t0=0.0, dt=0.1, values=[0.0, 1.0]),
    amptrack.RunRecord: dict(dt=0.1, channels={"y": np.zeros(2)}),
    amptrack.ponderomotive_energy: dict(field=0.05, omega=0.057),
    amptrack.hhg_cutoff: dict(field=0.05, omega=0.057, ip=0.579),
    amptrack.hhg_matched_field: dict(omega=0.057, cutoff=1.2, ip_new=0.5),
    amptrack.ati_matched_field: dict(omega=0.057, field=0.05, ip=0.579,
                                     ip_new=0.5),
    grid.soft_coulomb_potential: dict(numerics=NUMERICS, alpha=1.0),
    grid.soft_coulomb_force: dict(numerics=NUMERICS, alpha=1.0),
    amptrack.calibrate_softening: dict(target_ip=0.5, numerics=NUMERICS),
    amptrack.harmonic_peaks: dict(spectrum=SPECTRUM, omega0=1.0),
    amptrack.detect_cutoff_order: dict(spectrum=SPECTRUM, omega0=1.0,
                                       drop_db=20.0),
    amptrack.compare_spectra: dict(a=SPECTRUM, b=SPECTRUM, omega0=1.0,
                                   drop_db=20.0),
    storage.write_spectrum_csv: dict(path="spectrum.csv", spectrum=SPECTRUM,
                                     omega0=1.0),
}

# the numeric arguments, with the sign rule each keeps (None: finite only)
RULES = [
    (amptrack.PulseSpec, "e0", "nonnegative"),
    (amptrack.PulseSpec, "omega0", "positive"),
    (amptrack.AtomNumerics, "dt", "positive"),
    (amptrack.AtomNumerics, "box_half_width", "positive"),
    (amptrack.AtomNumerics, "absorber_fraction", None),
    (amptrack.AtomNumerics, "absorber_exponent", "positive"),
    (amptrack.LatticeNumerics, "dt", "positive"),
    (amptrack.FeedbackConfig, "k_p", "nonnegative"),
    (amptrack.TimeSeries, "t0", None),
    (amptrack.TimeSeries, "dt", "positive"),
    (amptrack.RunRecord, "dt", "positive"),
    (amptrack.ponderomotive_energy, "field", None),
    (amptrack.ponderomotive_energy, "omega", "positive"),
    (amptrack.hhg_cutoff, "field", None),
    (amptrack.hhg_cutoff, "omega", "positive"),
    (amptrack.hhg_cutoff, "ip", "positive"),
    (amptrack.hhg_matched_field, "omega", "positive"),
    (amptrack.hhg_matched_field, "cutoff", None),
    (amptrack.hhg_matched_field, "ip_new", "positive"),
    (amptrack.ati_matched_field, "omega", "positive"),
    (amptrack.ati_matched_field, "field", None),
    (amptrack.ati_matched_field, "ip", "positive"),
    (amptrack.ati_matched_field, "ip_new", "positive"),
    (grid.soft_coulomb_potential, "alpha", "positive"),
    (grid.soft_coulomb_force, "alpha", "positive"),
    (amptrack.calibrate_softening, "target_ip", None),
    (amptrack.harmonic_peaks, "omega0", "positive"),
    (amptrack.detect_cutoff_order, "omega0", "positive"),
    (amptrack.detect_cutoff_order, "drop_db", "positive"),
    (amptrack.compare_spectra, "omega0", "positive"),
    (amptrack.compare_spectra, "drop_db", "positive"),
    (storage.write_spectrum_csv, "omega0", "positive"),
]


# the whole-number arguments and their bounds [lo, hi] (hi None: no upper
# bound); a filling of None is the half-filling default
WHOLE_NUMBERS = [
    (amptrack.PulseSpec, "cycles", 1, None),
    (amptrack.AtomNumerics, "n_points", 8, None),
    (amptrack.HubbardSystem, "n_sites", 2, None),
    (amptrack.HubbardSystem, "n_up", 0, 2),
    (amptrack.HubbardSystem, "n_down", 0, 2),
]
FILLINGS = ("n_up", "n_down")


def rule_id(x):
    return getattr(x, "__name__", str(x))


# a string or None is bad input, a ValueError that names the argument; a
# whole-number argument says it must be an integer
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   "0.1", None])
@pytest.mark.parametrize("func, name", [
    (f, n) for f, n, *_ in RULES + WHOLE_NUMBERS if n not in FILLINGS
], ids=rule_id)
def test_numeric_arguments_must_be_finite(func, name, value, tmp_path,
                                          monkeypatch):
    # the config parser and the CLI stop these first; a library caller
    # meets them here
    monkeypatch.chdir(tmp_path)
    whole = any(f is func and n == name for f, n, *_ in WHOLE_NUMBERS)
    message = f"{name} must be {'an integer' if whole else 'finite'}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**{**VALID[func], name: value})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("func, name, rule, value", [
    (f, n, rule, value) for f, n, rule in RULES if rule
    for value in ((0.0, -1.0) if rule == "positive" else (-1.0,))
], ids=rule_id)
def test_numeric_arguments_keep_their_sign_rule(func, name, rule, value,
                                                tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    message = f"{name} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**{**VALID[func], name: value})
    assert not list(tmp_path.iterdir())


def whole_number_cases():
    """2.5, 2.0 and "3" for each whole-number argument, NaN for the
    fillings (the others meet NaN and None above), and one value past each
    bound."""
    for func, name, lo, hi in WHOLE_NUMBERS:
        bad = [2.5, 2.0, "3"] + ([float("nan")] if name in FILLINGS else [])
        for value in bad:
            yield func, name, value, f"{name} must be an integer, got {value!r}"
        bound = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        for value in [lo - 1] + ([] if hi is None else [hi + 1]):
            yield func, name, value, f"{name} must {bound}, got {value}"


@pytest.mark.parametrize("func, name, value, message", whole_number_cases(),
                         ids=rule_id)
def test_whole_number_arguments_keep_their_bounds(func, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**{**VALID[func], name: value})


# a value type keeps the int it checked, so the config echo of metadata.json
# dumps it whatever integer type it was given
@pytest.mark.parametrize("func, name", [
    (f, n) for f, n, *_ in WHOLE_NUMBERS if dataclasses.is_dataclass(f)
], ids=rule_id)
def test_whole_numbers_are_stored_as_int(func, name):
    value = func(**{**VALID[func], name: np.int64(64)})
    assert type(getattr(value, name)) is int
    assert json.loads(json.dumps(dataclasses.asdict(value)))[name] == 64


# the two systems take their model numbers directly
PULSE = dict(e0=1.0, omega0=1.0, cycles=1)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), "1.0"])
def test_hubbard_system_rejects_non_finite_u(value):
    with pytest.raises(ValueError, match="^u must be finite"):
        amptrack.HubbardSystem(2, value, amptrack.PulseSpec(**PULSE))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   0.0, -1.4, "1.4"])
def test_atom_system_rejects_bad_alpha(value):
    numerics = amptrack.AtomNumerics(box_half_width=10.0, n_points=8)
    rule = "positive" if value in (0.0, -1.4) else "finite"
    with pytest.raises(ValueError, match=f"^alpha must be {rule}, got {value!r}$"):
        amptrack.AtomSystem(value, amptrack.PulseSpec(**PULSE), numerics)


def test_removed_model_types_are_not_exported():
    for name in ("LatticeModel", "AtomSpec", "atom_for_ip", "Grid1D",
                 "AbsorberSpec", "AmptrackError", "CalibrationError",
                 "ConvergenceError", "DetectionError", "GridMismatchError",
                 "InfeasibleTargetError", "StepSizeError"):
        assert not hasattr(amptrack, name), name


def test_two_error_types_one_per_exit_code():
    # the CLI maps NumericalError to exit 3, then any ValueError to exit 2
    classes = {name for name, value in vars(amptrack.exceptions).items()
               if isinstance(value, type)}
    assert classes == {"ConfigError", "NumericalError"}
    assert issubclass(amptrack.ConfigError, ValueError)
    assert not issubclass(amptrack.NumericalError, ValueError)
    assert amptrack.NumericalError("m", residual=2.0).residual == 2.0


DOCS = sorted((ROOT / "docs").glob("*.md"))


def python_blocks(path):
    return re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S)


@pytest.mark.parametrize("path", DOCS, ids=[p.stem for p in DOCS])
def test_doc_script_imports_resolve(path):
    # parses each python block of the page; runs none of them
    missing = []
    for block in python_blocks(path):
        for node in ast.walk(ast.parse(block)):
            if (isinstance(node, ast.ImportFrom)
                    and node.module.split(".")[0] == "amptrack"):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing, f"{path.name} imports missing names: {missing}"
