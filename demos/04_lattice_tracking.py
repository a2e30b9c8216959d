"""A weakly interacting Hubbard ring reproducing a strongly interacting one.

Ten sites at half filling: the U/t0 = 10 reference ring is driven by the
bundled terahertz pulse and its current response is recorded; the U/t0 = 1
ring then tracks that response through the proportional amplifier, one
closed-form control solve per step.  Uses the bundled default
configuration.
"""

import argparse
from pathlib import Path

import numpy as np

from amptrack import build_system, parse_config, run_open_loop, run_tracking
from amptrack.storage import write_tracking_csv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hubbard_default.cfg"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="lattice_tracking.csv")
    args = parser.parse_args()

    cfg = parse_config(CONFIG)
    par = cfg.hubbard
    print(f"{par.sites}-site ring, N_up = {par.n_up}, N_down = {par.n_down}, "
          f"pulse omega0/t0 = {cfg.pulse.omega0:.3f}, aE0/t0 = {cfg.pulse.e0:.3f}")

    reference = build_system(cfg, "reference")
    print(f"reference U/t0 = {cfg.hubbard.u_reference:.0f}: "
          f"{reference.n_steps} steps...")
    record = run_open_loop(reference)
    print(f"  ground energy {reference.ground_energy:.6f} t0, "
          f"response rms {np.sqrt(np.mean(record.channels['y']**2)):.4f}")

    driven = build_system(cfg, "driven")
    result = run_tracking(driven, record.series("y"), cfg.feedback)
    print(f"driven U/t0 = {cfg.hubbard.u_driven:.0f} at "
          f"k_p = {cfg.feedback.k_p:.0f}:")
    print(f"  relative rms residual {result.rms_relative:.3e} over "
          f"{len(result.u)} steps")

    write_tracking_csv(args.out, result)
    print(f"tracking record written to {args.out}")


if __name__ == "__main__":
    main()
