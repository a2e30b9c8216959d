"""Command-line front end.

Subcommands mirror the library workflow: run a reference, run a tracking
experiment against it, match field strengths between atoms, compute a
spectrum, and compare two recorded runs.  Exit codes: 0 success, 2
invalid input or configuration, 3 numerical failure (non-convergence, a
singular control law, failed detection or a non-finite residual), 4 a
requested residual gate was exceeded.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, pulses, spectral, storage
from .config import build_system, parse_config
from .exceptions import ConfigError, NumericalError
from .feedback import check_reference, relative_rms, rms, run_open_loop, run_tracking

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4


def _out_dir(arg: str) -> Path:
    path = Path(arg)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _metadata(cfg, command: str, summary: dict, columns) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": cfg.as_dict(),
        "columns": list(columns),
        "summary": summary,
    }


def _gate(residual: float, gate) -> int:
    """Exit code for a residual: a non-finite one fails whatever the gate."""
    if not math.isfinite(residual):
        print(f"numerical failure: residual {residual!r} is not finite",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if gate is not None and residual > gate:
        print(f"gate failed: residual {residual!r} exceeds {gate!r}")
        return EXIT_GATE
    return EXIT_OK


def _positive_finite(text: str) -> float:
    """A positive finite number, for ``--gate``, ``--omega0`` and
    ``--drop-db``; argparse turns the error into exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _summary(system, platform: str, **scalars) -> dict:
    """A run's summary scalars plus its system's ground energy and, on the
    atom, its calibrated softening.  JSON has no NaN or inf, so a
    non-finite scalar is written as null."""
    summary = dict(scalars, ground_energy=system.ground_energy)
    if platform == "atom":
        summary["softening_alpha"] = system.alpha
    return {key: None if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in summary.items()}


def cmd_run_reference(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args.out)
    system = build_system(cfg, "reference")
    record = run_open_loop(system)
    storage.write_reference_csv(out / "reference.csv", record, cfg.platform)
    meta = _metadata(
        cfg, "run-reference",
        _summary(system, cfg.platform, n_steps=len(record) - 1, dt=record.dt,
                 y_rms=rms(record.channels["y"])),
        storage.REFERENCE_COLUMNS[cfg.platform],
    )
    storage.write_metadata(out / "metadata.json", meta)
    print(f"reference run: {len(record) - 1} steps, wrote {out / 'reference.csv'}")
    return EXIT_OK


def cmd_run_tracking(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args.out)
    if args.reference is not None:
        reference = storage.read_table(args.reference).series("y")
        # reject a bad reference before building the systems, which on the
        # atom calibrates the softening
        dt = (cfg.atom or cfg.hubbard).numerics.dt
        check_reference(reference, cfg.pulse.n_steps(dt), dt)
    else:
        ref_system = build_system(cfg, "reference")
        ref_record = run_open_loop(ref_system)
        storage.write_reference_csv(out / "reference.csv", ref_record, cfg.platform)
        reference = ref_record.series("y")
    system = build_system(cfg, "driven")
    result = run_tracking(system, reference, cfg.feedback)
    storage.write_tracking_csv(out / "tracking.csv", result, cfg.platform)
    residual_kind = "absolute" if result.absolute_rms else "relative"
    summary = _summary(
        system, cfg.platform,
        rms_residual=result.rms_relative,
        residual_kind=residual_kind,
        k_p=cfg.feedback.k_p,
        gate=args.gate,
    )
    meta = _metadata(cfg, "run-tracking", summary,
                     storage.TRACKING_COLUMNS[cfg.platform])
    meta["reference"] = args.reference
    storage.write_metadata(out / "metadata.json", meta)
    print(f"{residual_kind} rms residual: {result.rms_relative!r}")
    return _gate(result.rms_relative, args.gate)


def cmd_match_intensity(args) -> int:
    for name in ("omega", "ip", "ip_new", "field", "cutoff"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if not args.ip > 0:
        # with --cutoff no formula reads --ip, so it is checked here
        raise ConfigError(f"--ip must be positive, got {args.ip!r}")
    if args.mode == "hhg":
        if args.cutoff is not None:
            cutoff = args.cutoff
        else:
            cutoff = pulses.hhg_cutoff(args.field, args.omega, args.ip)
        matched = pulses.hhg_matched_field(args.omega, cutoff, args.ip_new)
        print(f"target cutoff: {cutoff!r}")
    else:
        if args.field is None:
            raise ConfigError("ati mode needs --field (no cutoff form exists)")
        matched = pulses.ati_matched_field(
            args.omega, args.field, args.ip, args.ip_new
        )
        budget = pulses.ponderomotive_energy(args.field, args.omega) + args.ip
        print(f"conserved Up + Ip: {budget!r}")
    print(f"matched field: {matched!r}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    series = storage.read_table(args.input).series(args.column)
    bad = np.flatnonzero(~np.isfinite(series.values))
    if bad.size:
        raise ValueError(f"{args.input}: column {args.column!r} has {bad.size} "
                         f"non-finite samples, the first at row {bad[0]} "
                         f"(t = {series.t0 + bad[0] * series.dt:g})")
    spectrum = spectral.power_spectrum(series, window=args.window)
    order = spectral.detect_cutoff_order(spectrum, args.omega0,
                                         drop_db=args.drop_db)
    out = _out_dir(args.out)
    storage.write_spectrum_csv(out / "spectrum.csv", spectrum, args.omega0)
    meta = {
        "command": "spectrum",
        "version": __version__,
        "input": str(args.input),
        "column": args.column,
        "window": args.window,
        "omega0": args.omega0,
        "drop_db": args.drop_db,
        "cutoff_order": order,
        "cutoff_frequency": order * args.omega0,
        "columns": list(storage.SPECTRUM_COLUMNS),
    }
    storage.write_metadata(out / "metadata.json", meta)
    print(f"cutoff order: {order}")
    return EXIT_OK


def cmd_compare(args) -> int:
    series_a = storage.read_table(args.a).series(args.column)
    series_b = storage.read_table(args.b).series(args.column)
    if not series_a.same_grid(series_b):
        raise ValueError("the two runs are not on the same time grid")
    diff = series_a.values - series_b.values
    rel = relative_rms(diff, series_b.values)
    if not math.isfinite(rel):
        # a non-finite input fails here, not in the spectral comparison
        return _gate(rel, args.gate)
    payload = {
        "column": args.column,
        "rms_difference": rms(diff),
        "relative_rms": rel,
        "max_abs_difference": float(np.max(np.abs(diff))),
        "reference_rms": rms(series_b.values),
    }
    if args.omega0 is not None:
        comparison = spectral.compare_spectra(
            spectral.power_spectrum(series_a, window=args.window),
            spectral.power_spectrum(series_b, window=args.window),
            args.omega0, drop_db=args.drop_db,
        )
        payload["spectra"] = comparison.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"relative rms difference: {rel!r}")
        print(f"max abs difference: {payload['max_abs_difference']!r}")
        if "spectra" in payload:
            spectra = payload["spectra"]
            print(f"cutoffs: {spectra['cutoff_a']!r} vs {spectra['cutoff_b']!r} "
                  f"(delta {spectra['delta_orders']} orders)")
    return _gate(rel, args.gate)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amptrack",
        description="Feedback tracking experiments on grid and lattice systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ref = sub.add_parser("run-reference", help="record an open-loop reference run")
    ref.add_argument("--config", required=True)
    ref.add_argument("--out", required=True)
    ref.set_defaults(func=cmd_run_reference)

    trk = sub.add_parser("run-tracking", help="track a reference with feedback")
    trk.add_argument("--config", required=True)
    trk.add_argument("--out", required=True)
    trk.add_argument("--reference", default=None,
                     help="reference.csv to track; omitted: run it in-process")
    trk.add_argument("--gate", type=_positive_finite, default=None,
                     help="fail (exit 4) if the rms residual exceeds this")
    trk.set_defaults(func=cmd_run_tracking)

    mat = sub.add_parser("match-intensity",
                         help="field strength reproducing a spectral observable")
    mat.add_argument("--mode", required=True, choices=("hhg", "ati"))
    mat.add_argument("--omega", required=True, type=float)
    mat.add_argument("--ip", required=True, type=float)
    mat.add_argument("--ip-new", required=True, type=float, dest="ip_new")
    group = mat.add_mutually_exclusive_group(required=True)
    group.add_argument("--field", type=float, default=None)
    group.add_argument("--cutoff", type=float, default=None,
                       help="hhg mode: target cutoff instead of a field")
    mat.set_defaults(func=cmd_match_intensity)

    spe = sub.add_parser("spectrum", help="power spectrum and cutoff of a run")
    spe.add_argument("--in", required=True, dest="input")
    spe.add_argument("--out", required=True)
    spe.add_argument("--omega0", required=True, type=_positive_finite)
    spe.add_argument("--column", default="y")
    spe.add_argument("--window", default="hann", choices=("hann", "none"))
    spe.add_argument("--drop-db", type=_positive_finite, default=20.0,
                     dest="drop_db")
    spe.set_defaults(func=cmd_spectrum)

    cmp_ = sub.add_parser("compare", help="residual and spectral comparison")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--column", default="y")
    cmp_.add_argument("--omega0", type=_positive_finite, default=None,
                      help="carrier frequency; enables the spectral comparison")
    cmp_.add_argument("--window", default="hann", choices=("hann", "none"))
    cmp_.add_argument("--drop-db", type=_positive_finite, default=20.0,
                      dest="drop_db")
    cmp_.add_argument("--gate", type=_positive_finite, default=None)
    cmp_.add_argument("--json", action="store_true")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
