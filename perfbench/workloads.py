"""One round of a benchmark workload, run in a fresh process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload atom --trace 0 --out DIR

Run from the repository root.  The round parses the shipped config,
builds the systems, propagates, writes and reads its artifacts under
``--out`` and checks every output.  Its last line of standard output is
one JSON object with the timings, the operation counts and, with
``--trace 1``, the per-layer metrics.

Workloads (the README gives the reasons):
  atom    hydrogen (Ip 0.5) tracks argon (Ip 0.579), configs/atom_default.cfg
          with ATOM_CYCLES carrier cycles; CSV round trip and both spectra
  ring10  configs/hubbard_default.cfg with RING10_CYCLES cycles: U/t0 = 10
          reference, U/t0 = 1 tracking at k_p = 1000
  ring6   the same ring at six sites under the full pulse: the reference,
          U/t0 = 1 tracking at each gain of RING6_GAINS, self-tracking
"""

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
from amptrack import config, feedback, spectral, storage

ATOM_CYCLES = 3
RING10_CYCLES = 1
RING6_GAINS = (10.0, 100.0, 1000.0)

# operations (propagation runs) per round of each workload
OPERATIONS = {"atom": 2, "ring10": 2, "ring6": 2 + len(RING6_GAINS)}

clock = time.perf_counter


class Round:
    """Set-up and propagation clocks, and the checks of each finished run."""

    def __init__(self):
        self.setup_s = 0.0
        self.propagate_s = 0.0
        self.steps = 0
        self.ops = []  # (operation, [Check, ...])
        self.sector_dim = 0
        self.artifact_bytes = 0
        self._setup_in_run = 0.0

    def build(self, cfg, role: str):
        """build_system, timed as set-up; its initial_state calls are too."""
        start = clock()
        system = config.build_system(cfg, role)
        self.setup_s += clock() - start
        ground_state = system.initial_state

        def initial_state():
            t0 = clock()
            state = ground_state()
            spent = clock() - t0
            self.setup_s += spent
            self._setup_in_run += spent
            return state

        system.initial_state = initial_state
        if hasattr(system, "basis"):
            self.sector_dim = max(self.sector_dim, system.basis.dim)
        return system

    def propagate(self, system, run, *args):
        """One run_open_loop / run_tracking call, less its initial_state."""
        self._setup_in_run = 0.0
        start = clock()
        out = run(system, *args)
        self.propagate_s += clock() - start - self._setup_in_run
        self.steps += system.n_steps
        return out

    def finish(self, op: str, results: list) -> None:
        self.ops.append((op, results))


def _tracking_checks(result, k_p: float) -> list:
    return [
        checks.control_law(result.u, result.response, result.y, k_p),
        checks.finite({"u": result.u, "response": result.response,
                       "y": result.y, **result.channels}),
    ]


def atom(rnd: Round, out: Path) -> None:
    cfg = config.parse_config("configs/atom_default.cfg")
    cfg = dataclasses.replace(
        cfg, pulse=dataclasses.replace(cfg.pulse, cycles=ATOM_CYCLES))
    argon = rnd.build(cfg, "reference")
    hydrogen = rnd.build(cfg, "driven")

    record = rnd.propagate(argon, feedback.run_open_loop)
    ref_path = out / "reference.csv"
    storage.write_reference_csv(ref_path, record, "atom")
    reference = storage.read_table(ref_path).series("y")
    rnd.finish("argon_reference", [
        checks.ground_energy(argon.ground_energy, cfg.atom.reference_ip),
        checks.finite(record.channels),
        checks.bitwise_equal(reference.values, record.channels["y"]),
    ])

    k_p = cfg.feedback.k_p
    result = rnd.propagate(hydrogen, feedback.run_tracking, reference, cfg.feedback)
    trk_path = out / "tracking.csv"
    storage.write_tracking_csv(trk_path, result, "atom")
    comparison = spectral.compare_spectra(
        spectral.power_spectrum(record.series("y")),
        spectral.power_spectrum(result.series("response")),
        cfg.pulse.omega0,
    )
    rnd.finish("hydrogen_tracking", [
        checks.ground_energy(hydrogen.ground_energy, cfg.atom.driven_ip),
        checks.residual(result.response, result.y),
        *_tracking_checks(result, k_p),
        *checks.imposter(comparison),
    ])
    rnd.artifact_bytes = ref_path.stat().st_size + trk_path.stat().st_size


def _hubbard_config(sites: int | None = None, cycles: int | None = None):
    cfg = config.parse_config("configs/hubbard_default.cfg")
    if cycles is not None:
        cfg = dataclasses.replace(
            cfg, pulse=dataclasses.replace(cfg.pulse, cycles=cycles))
    if sites is not None:
        cfg = dataclasses.replace(cfg, hubbard=dataclasses.replace(
            cfg.hubbard, sites=sites, n_up=sites // 2, n_down=sites // 2))
    return cfg


def ring10(rnd: Round, out: Path) -> None:
    cfg = _hubbard_config(cycles=RING10_CYCLES)
    mott = rnd.build(cfg, "reference")
    metal = rnd.build(cfg, "driven")
    record = rnd.propagate(mott, feedback.run_open_loop)
    rnd.finish("u10_reference", [
        checks.finite(record.channels),
        checks.central_difference(record.channels["current"],
                                  record.channels["y"], record.dt),
    ])
    result = rnd.propagate(metal, feedback.run_tracking, record.series("y"),
                           cfg.feedback)
    rnd.finish("u1_tracking", [
        checks.residual(result.response, result.y),
        *_tracking_checks(result, cfg.feedback.k_p),
    ])


def ring6(rnd: Round, out: Path) -> None:
    cfg = _hubbard_config(sites=6)
    par = cfg.hubbard
    mott = rnd.build(cfg, "reference")
    metal = rnd.build(cfg, "driven")
    record = rnd.propagate(mott, feedback.run_open_loop)
    dense = checks.dense_hubbard_ground_energy(
        par.sites, par.n_up, par.n_down, 1.0, par.u_reference)
    rnd.finish("u10_reference", [
        checks.finite(record.channels),
        checks.central_difference(record.channels["current"],
                                  record.channels["y"], record.dt),
        checks.dense_energy(mott.ground_energy, dense),
    ])
    reference = record.series("y")
    ladder = {}
    for k_p in RING6_GAINS:
        fb = dataclasses.replace(cfg.feedback, k_p=k_p)
        result = rnd.propagate(metal, feedback.run_tracking, reference, fb)
        ladder[k_p] = checks.relative_rms(result.response, result.y)
        found = _tracking_checks(result, k_p)
        if len(ladder) == len(RING6_GAINS):
            found.append(checks.gain_ladder(ladder))
        rnd.finish(f"u1_tracking_kp{k_p:g}", found)
    result = rnd.propagate(mott, feedback.run_tracking, reference, cfg.feedback)
    rnd.finish("u10_self_tracking", [
        checks.self_tracking(result.u, result.residual),
        checks.finite({"response": result.response, **result.channels}),
    ])


WORKLOADS = {"atom": atom, "ring10": ring10, "ring6": ring6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(config.__file__).resolve().parents:
        print(f"amptrack was imported from {config.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rnd = Round()
    start = clock()
    try:
        WORKLOADS[args.workload](rnd, out)
    except Exception:
        traceback.print_exc()
    experiment_s = clock() - start

    for op, found in rnd.ops:
        for c in found:
            print(f"check {'ok' if c.ok else 'FAILED'}: {op} {c.name} = "
                  f"{c.value:.6g} (limit {c.limit:.6g})", file=sys.stderr)
    n_ops = OPERATIONS[args.workload]
    passed_ops = sum(all(c.ok for c in found) for _, found in rnd.ops)
    report = {
        "attempted": n_ops,
        "failed": n_ops - passed_ops,
        "correct": all(c.ok for _, found in rnd.ops for c in found),
        "experiment_s": experiment_s,
        "setup_s": rnd.setup_s,
        "step_rate": rnd.steps / rnd.propagate_s if rnd.propagate_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer, rnd.sector_dim, rnd.artifact_bytes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
