"""One atom reproducing another's dipole response, at reduced scale.

A hydrogen-like atom (Ip = 0.5) is driven so that its Ehrenfest force
response follows the recorded response of an argon-like reference
(Ip = 0.579) under the same pulse.  The residual falls like 1/(1+k_p),
so each factor-of-ten gain step should shave roughly a factor of ten off
the tracking error while the control stays a small correction on top of
the pulse.
"""

import argparse

import numpy as np

from amptrack import (
    AtomNumerics,
    AtomSystem,
    FeedbackConfig,
    PulseSpec,
    calibrate_softening,
    run_open_loop,
    run_tracking,
)
from amptrack.storage import write_tracking_csv

E0 = 0.0534
OMEGA0 = 0.05695
CYCLES = 4
HALF_WIDTH = 100.0
N_POINTS = 1024


def build(ip, pulse, numerics):
    alpha = calibrate_softening(ip, numerics)
    return AtomSystem(alpha, pulse, numerics)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="atom_tracking.csv")
    args = parser.parse_args()

    pulse = PulseSpec(e0=E0, omega0=OMEGA0, cycles=CYCLES)
    numerics = AtomNumerics(HALF_WIDTH, N_POINTS, 0.02)

    reference = build(0.579, pulse, numerics)
    print(f"reference run: Ip = 0.579, {reference.n_steps} steps...")
    record = run_open_loop(reference)
    target = record.series("y")

    driven = build(0.5, pulse, numerics)
    print("gain ladder (driven atom, Ip = 0.5):")
    best = None
    for k_p in (10.0, 100.0, 1000.0):
        result = run_tracking(driven, target, FeedbackConfig(k_p=k_p))
        u_rms = float(np.sqrt(np.mean(result.u**2)))
        print(f"  k_p = {k_p:6.0f}: relative rms residual "
              f"{result.rms_relative:.3e}, rms control {u_rms:.3e} a.u.")
        best = result

    write_tracking_csv(args.out, best)
    print(f"highest-gain tracking record written to {args.out}")


if __name__ == "__main__":
    main()
