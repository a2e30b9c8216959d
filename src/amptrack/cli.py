"""Command-line front end.

Subcommands mirror the library workflow: run a reference, run a tracking
experiment against it, match field strengths between atoms, compute a
spectrum, and compare two recorded runs.  Exit codes: 0 success, 2
invalid input or configuration (an input file that cannot be read or an
--out that cannot be made among them), 3 numerical failure
(non-convergence, a singular control law, failed detection or a
non-finite residual), 4 a requested residual gate was exceeded.  A
command refuses an --out that exists and is not a directory, or whose
nearest existing parent is not one, before it runs anything, and makes
--out only after its runs have finished, so one that fails before then
writes nothing.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, pulses, spectral, storage
from .config import build_system, parse_config
from .exceptions import ConfigError, NumericalError, _check_samples, _require
from .feedback import check_reference, relative_rms, rms, run_open_loop, run_tracking

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4


def _out_dir(arg: str) -> Path:
    """--out as a path, refused if its nearest existing part (itself or a
    parent) is not a directory; it is made once the runs have finished."""
    path = Path(arg)
    found = next(part for part in (path, *path.parents) if part.exists())
    if not found.is_dir():
        where = "" if found == path else f"{found} "
        raise ValueError(f"--out {arg}: {where}exists and is not a directory")
    return path


def _metadata(command: str, columns, **fields) -> dict:
    """A metadata.json payload: the keys every sidecar holds plus the
    command's own fields."""
    return dict(fields, command=command, version=__version__,
                columns=list(columns))


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


def _require_flags(args, rule, *names) -> None:
    """`_require` on each named option that was given, under its flag's
    name; a command calls it before it reads, builds or writes anything."""
    _require(rule, **{"--" + name.replace("_", "-"): getattr(args, name)
                      for name in names if getattr(args, name) is not None})


def _read_series(path, column: str):
    """One column of a run CSV; a missing column is named with its file,
    as every `storage.read_table` error is."""
    record = storage.read_table(path)
    try:
        return record.series(column)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    out = _out_dir(args.out)
    cfg = parse_config(args.config)
    system = build_system(cfg, "reference")
    record = run_open_loop(system)
    out.mkdir(parents=True, exist_ok=True)
    columns = storage.write_reference_csv(out / "reference.csv", record)
    summary = _summary(system, cfg.platform, n_steps=len(record) - 1,
                       dt=record.dt, y_rms=rms(record.y))
    storage.write_metadata(out / "metadata.json", _metadata(
        "run-reference", columns, config=cfg.as_dict(), summary=summary))
    print(f"reference run: {len(record) - 1} steps, wrote {out / 'reference.csv'}")
    return EXIT_OK


def cmd_run_tracking(args) -> int:
    out = _out_dir(args.out)
    _require_flags(args, "positive", "gate")
    cfg = parse_config(args.config)
    if args.reference is not None:
        reference = _read_series(args.reference, "y")
        # reject a bad reference before building the systems, which on the
        # atom calibrates the softening
        dt = (cfg.atom or cfg.hubbard).numerics.dt
        try:
            check_reference(reference, cfg.pulse.n_steps(dt), dt)
        except ValueError as exc:
            raise ValueError(f"{args.reference}: {exc}") from None
    # built before the in-process reference runs, so that a driven system
    # without a ground state to start from fails before that run
    system = build_system(cfg, "driven")
    if args.reference is None:
        ref_record = run_open_loop(build_system(cfg, "reference"))
        reference = ref_record.series("y")
    result = run_tracking(system, reference, cfg.feedback)
    out.mkdir(parents=True, exist_ok=True)
    if args.reference is None:
        storage.write_reference_csv(out / "reference.csv", ref_record)
    columns = storage.write_tracking_csv(out / "tracking.csv", result)
    residual_kind = "absolute" if result.absolute_rms else "relative"
    summary = _summary(
        system, cfg.platform,
        rms_residual=result.rms_relative,
        residual_kind=residual_kind,
        k_p=cfg.feedback.k_p,
        gate=args.gate,
    )
    storage.write_metadata(out / "metadata.json", _metadata(
        "run-tracking", columns, config=cfg.as_dict(), summary=summary,
        reference=args.reference))
    print(f"{residual_kind} rms residual: {result.rms_relative!r}")
    return _gate(result.rms_relative, args.gate)


def cmd_match_intensity(args) -> int:
    # every flag is checked here, so an error names it; with --cutoff no
    # formula reads --ip at all
    _require_flags(args, "positive", "omega", "ip", "ip_new")
    _require_flags(args, None, "field", "cutoff")
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
    out = _out_dir(args.out)
    _require_flags(args, "positive", "omega0", "drop_db")
    series = _read_series(args.input, args.column)
    _check_samples(f"{args.input}: column {args.column!r}", series.values)
    spectrum = spectral.power_spectrum(series, window=args.window)
    order = spectral.detect_cutoff_order(spectrum, args.omega0,
                                         drop_db=args.drop_db)
    out.mkdir(parents=True, exist_ok=True)
    columns = storage.write_spectrum_csv(out / "spectrum.csv", spectrum, args.omega0)
    storage.write_metadata(out / "metadata.json", _metadata(
        "spectrum", columns, input=str(args.input), column=args.column,
        window=args.window, omega0=args.omega0, drop_db=args.drop_db,
        cutoff_order=order, cutoff_frequency=order * args.omega0))
    print(f"cutoff order: {order}")
    return EXIT_OK


def cmd_compare(args) -> int:
    _require_flags(args, "positive", "omega0", "drop_db", "gate")
    series_a = _read_series(args.a, args.column)
    series_b = _read_series(args.b, args.column)
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
        kind = "relative" if payload["reference_rms"] else "absolute"
        print(f"{kind} rms difference: {rel!r}")
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
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", required=True)
    run_flags.add_argument("--out", required=True)
    series_flags = argparse.ArgumentParser(add_help=False)
    series_flags.add_argument("--column", default="y")
    series_flags.add_argument("--window", default="hann", choices=spectral._WINDOWS)
    series_flags.add_argument("--drop-db", type=float, default=20.0, dest="drop_db")

    ref = sub.add_parser("run-reference", parents=[run_flags],
                         help="record an open-loop reference run")
    ref.set_defaults(func=cmd_run_reference)

    trk = sub.add_parser("run-tracking", parents=[run_flags],
                         help="track a reference with feedback")
    trk.add_argument("--reference", default=None,
                     help="reference.csv to track; omitted: run it in-process")
    trk.add_argument("--gate", type=float, default=None,
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

    spe = sub.add_parser("spectrum", parents=[series_flags],
                         help="power spectrum and cutoff of a run")
    spe.add_argument("--in", required=True, dest="input")
    spe.add_argument("--out", required=True)
    spe.add_argument("--omega0", required=True, type=float)
    spe.set_defaults(func=cmd_spectrum)

    cmp_ = sub.add_parser("compare", parents=[series_flags],
                          help="residual and spectral comparison")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--omega0", type=float, default=None,
                      help="carrier frequency; enables the spectral comparison")
    cmp_.add_argument("--gate", type=float, default=None)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
