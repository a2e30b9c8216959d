"""The public surface: exported names, the names the demos and the docs'
scripts import, and the call sites the benchmark traces.

``perfbench/spans.py`` shims named functions and methods of the layer
modules to time them.  Its ``TARGETS`` table is read here, never changed,
so a rename or deletion that would break the traced benchmark fails in
the fast suite.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import amptrack

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


# a valid instance of each public value type, as keyword arguments
VALID = {
    amptrack.PulseSpec: dict(e0=1.0, omega0=1.0, cycles=1),
    amptrack.AtomNumerics: dict(),
    amptrack.LatticeNumerics: dict(),
    amptrack.FeedbackConfig: dict(k_p=1.0),
    amptrack.TimeSeries: dict(t0=0.0, dt=0.1, values=[0.0, 1.0]),
}


# a string or None is bad input, a ValueError that names the field
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   "0.1", None])
@pytest.mark.parametrize("cls, field", [
    (amptrack.PulseSpec, "e0"),
    (amptrack.PulseSpec, "omega0"),
    (amptrack.PulseSpec, "cycles"),
    (amptrack.AtomNumerics, "dt"),
    (amptrack.AtomNumerics, "box_half_width"),
    (amptrack.AtomNumerics, "absorber_fraction"),
    (amptrack.AtomNumerics, "absorber_exponent"),
    (amptrack.LatticeNumerics, "dt"),
    (amptrack.FeedbackConfig, "k_p"),
    (amptrack.TimeSeries, "t0"),
    (amptrack.TimeSeries, "dt"),
], ids=lambda x: getattr(x, "__name__", x))
def test_value_types_reject_non_finite_numbers(cls, field, value):
    # the config parser stops these first; a library caller meets them here
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cls(**{**VALID[cls], field: value})


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
    with pytest.raises(ValueError, match="^alpha must be finite and positive"):
        amptrack.AtomSystem(value, amptrack.PulseSpec(**PULSE), numerics)


@pytest.mark.parametrize("value", [512.0, "512"])
def test_atom_numerics_rejects_non_integer_n_points(value):
    with pytest.raises(ValueError, match="^n_points must be an integer, got "):
        amptrack.AtomNumerics(60.0, value)


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
