"""Spans around calls into the amptrack layers, and the per-layer metrics.

`install` replaces public functions and system methods of the layer
modules with shims that record one span per call: name, start, end and
the span that was open when the call began.  The shims live here; the
program's own files are not changed.  A function that another module
imported by name (``from .pulses import evaluate_tl_field``) is replaced
in every amptrack module that holds it, so calls from any module are
seen.  Spans stay in memory until `layer_metrics` reduces them.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute); an attribute "Class.method" names a method
TARGETS = [
    ("grid.calibrate", "amptrack.grid", "calibrate_softening"),
    ("grid.imag_time", "amptrack.grid", "imaginary_time_ground_state"),
    ("grid.initial_state", "amptrack.grid", "AtomSystem.initial_state"),
    ("grid.advance", "amptrack.grid", "AtomSystem.advance"),
    ("grid.observables", "amptrack.grid", "AtomSystem.observables"),
    ("feedback.control", "amptrack.grid", "AtomSystem.control"),
    ("pulses.field", "amptrack.pulses", "evaluate_tl_field"),
    ("feedback.run", "amptrack.feedback", "run_open_loop"),
    ("feedback.run", "amptrack.feedback", "run_tracking"),
    ("lattice.initial_state", "amptrack.lattice", "HubbardSystem.initial_state"),
    ("lattice.advance", "amptrack.lattice", "HubbardSystem.advance"),
    ("lattice.observables", "amptrack.lattice", "HubbardSystem.observables"),
    ("feedback.control", "amptrack.lattice", "HubbardSystem.control"),
    ("storage.write", "amptrack.storage", "write_reference_csv"),
    ("storage.write", "amptrack.storage", "write_tracking_csv"),
    ("storage.read", "amptrack.storage", "read_table"),
    ("spectral.analysis", "amptrack.spectral", "power_spectrum"),
    ("spectral.analysis", "amptrack.spectral", "detect_cutoff_order"),
    ("spectral.analysis", "amptrack.spectral", "compare_spectra"),
]


class Tracer:
    """In-memory span log: one [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()

        return shim

    def install(self) -> None:
        """Shim every entry of TARGETS, importing the layer modules first."""
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        amptrack_modules = [m for n, m in list(sys.modules.items())
                            if n == "amptrack" or n.startswith("amptrack.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            shim = self.wrap(name, original)
            for mod in amptrack_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, shim)

    def totals(self) -> dict:
        """Per span name: call count, inclusive seconds, self seconds, and
        inclusive seconds of the calls not made from a span of the same layer."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for i, (name, _, _, p) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            layer = name.split(".")[0]
            if p < 0 or self.spans[p][0].split(".")[0] != layer:
                entry[3] += dur[i]
        return out


def layer_metrics(tracer: Tracer, sector_dim: int, artifact_bytes: int) -> dict:
    """Reduce the span log to the per-layer metrics, in their units.

    A per-call time of a layer that made no call in this workload reads 0.
    """
    t = tracer.totals()
    zero = (0, 0.0, 0.0, 0.0)

    def count(name):
        return t.get(name, zero)[0]

    def incl(name):
        return t.get(name, zero)[1]

    def self_(name):
        return t.get(name, zero)[2]

    def top(name):
        return t.get(name, zero)[3]

    def per(total, calls, scale):
        return total / calls * scale if calls else 0.0

    steps = count("grid.advance") + count("lattice.advance")
    return {
        "grid.advance_us": per(self_("grid.advance"), count("grid.advance"), 1e6),
        "grid.observables_us": per(incl("grid.observables"),
                                   count("grid.observables"), 1e6),
        "grid.calibrate_s": incl("grid.calibrate"),
        "grid.imag_time_calls": count("grid.imag_time"),
        "grid.ground_state_s": incl("grid.initial_state"),
        "pulses.field_calls": count("pulses.field"),
        "pulses.field_us": per(incl("pulses.field"), count("pulses.field"), 1e6),
        "feedback.steps": steps,
        "feedback.loop_us": per(self_("feedback.run"), steps, 1e6),
        "feedback.control_us": per(incl("feedback.control"),
                                   count("feedback.control"), 1e6),
        "lattice.advance_us": per(incl("lattice.advance"),
                                  count("lattice.advance"), 1e6),
        "lattice.observables_us": per(incl("lattice.observables"),
                                      count("lattice.observables"), 1e6),
        "lattice.ground_state_s": incl("lattice.initial_state"),
        "lattice.sector_dim": sector_dim,
        "lattice.state_mb": 16.0 * sector_dim / 2**20,
        "storage.write_s": incl("storage.write"),
        "storage.read_s": incl("storage.read"),
        "storage.bytes": artifact_bytes,
        "spectral.analysis_ms": top("spectral.analysis") * 1e3,
    }
