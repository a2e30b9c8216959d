"""Harmonic emission of a driven soft-core atom, at reduced scale.

Runs a shortened (six-cycle) version of the bundled atom experiment,
Fourier-analyzes the recorded dipole acceleration, detects the plateau
cutoff, and writes the spectrum to a CSV next to this script's working
directory.  The full ten-cycle experiment lives in configs/atom_default.cfg
and runs through the command line tool.
"""

import argparse

from amptrack import (
    AtomNumerics,
    AtomSystem,
    PulseSpec,
    calibrate_softening,
    detect_cutoff_order,
    harmonic_peaks,
    hhg_cutoff,
    power_spectrum,
    run_open_loop,
)
from amptrack.storage import write_spectrum_csv

E0 = 0.0534
OMEGA0 = 0.05695
CYCLES = 6
IP = 0.5


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="atom_spectrum.csv")
    args = parser.parse_args()

    pulse = PulseSpec(e0=E0, omega0=OMEGA0, cycles=CYCLES)
    numerics = AtomNumerics(120.0, 2048, 0.02)
    alpha = calibrate_softening(IP, numerics)
    print(f"soft-core atom: Ip = {IP}, calibrated alpha = {alpha:.6f}")

    system = AtomSystem(alpha, pulse, numerics)
    print(f"propagating {system.n_steps} steps "
          f"({CYCLES} cycles, dt = {numerics.dt})...")
    record = run_open_loop(system)

    spectrum = power_spectrum(record.series("y"), window="hann")
    detected = detect_cutoff_order(spectrum, OMEGA0)
    expected = hhg_cutoff(E0, OMEGA0, IP) / OMEGA0
    print(f"detected cutoff: order {detected} "
          f"(3.17 Up + Ip predicts {expected:.1f})")

    peaks = harmonic_peaks(spectrum, OMEGA0)
    top = max(p.power_db for p in peaks.values())
    print("order : peak dB below strongest")
    for order in sorted(peaks):
        if order <= detected + 2:
            mark = " (interior max)" if peaks[order].interior else ""
            print(f"  {order:3d} : {peaks[order].power_db - top:7.1f}{mark}")

    write_spectrum_csv(args.out, spectrum, OMEGA0)
    print(f"spectrum written to {args.out}")


if __name__ == "__main__":
    main()
