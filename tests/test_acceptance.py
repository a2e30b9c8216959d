"""Full-scale acceptance gates for the tracking toolkit.

One test per advertised guarantee.  Each test routes its verdict through
the ``criterion_report`` fixture, so the terminal summary prints one
pass/fail line per gate, and then asserts on the same condition.  The
multi-minute default experiments come from session-scoped fixtures in
``conftest``; everything else is built at the scale the gate demands.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh

from amptrack.feedback import FeedbackConfig, run_open_loop, run_tracking
from amptrack.grid import (
    AtomNumerics,
    AtomSystem,
    _energy,
    calibrate_softening,
    soft_coulomb_potential,
)
from amptrack.lattice import HubbardSystem, LatticeNumerics
from amptrack.pulses import (
    PulseSpec,
    ati_matched_field,
    evaluate_tl_field,
    hhg_cutoff,
    hhg_matched_field,
    ponderomotive_energy,
)
from amptrack.spectral import detect_cutoff_order, harmonic_peaks, power_spectrum
from test_grid import field_reversal_residuals
from test_lattice import Embedded

pytestmark = pytest.mark.slow


def _lattice_system(cfg, u_over_t0, sites):
    return HubbardSystem(sites, u_over_t0, cfg.pulse, cfg.hubbard.numerics)


def test_cross_species_tracking_accuracy_and_budget(
    argon_reference, atom_trackings, criterion_report
):
    """Hydrogen driven at gain 1000 reproduces the argon response to 2%."""
    run = atom_trackings[1000.0]
    rms = run.result.rms_relative
    wall = argon_reference.elapsed + run.elapsed
    ok = rms <= 0.02 and wall <= 600.0
    detail = f"relative rms {rms:.4%} (gate 2%), wall {wall:.0f}s (gate 600s)"
    criterion_report(1, "cross-species momentum tracking", ok, detail)
    assert ok, detail


def test_residual_scales_inversely_with_gain(
    hubbard_config, hubbard_smoke, atom_trackings, criterion_report
):
    """Tracking residuals fall like 1/(1+k_p) across a decade gain ladder.

    The ratio window is checked on the six-site lattice experiment, where
    the residual is small enough at every gain for the linear law to
    apply; the atom ladder (whose gain-10 point is far outside the
    small-residual regime) must still decrease monotonically.
    """
    cfg = hubbard_config
    reference = hubbard_smoke.reference.series("y")
    rms = {1000.0: hubbard_smoke.result.rms_relative}
    for k_p in (10.0, 100.0):
        result = run_tracking(
            _lattice_system(cfg, cfg.hubbard.u_driven, 6),
            reference,
            FeedbackConfig(k_p=k_p),
        )
        rms[k_p] = result.rms_relative
    ladder = (rms[10.0], rms[100.0], rms[1000.0])
    ratios = (ladder[0] / ladder[1], ladder[1] / ladder[2])
    atom_ladder = tuple(
        atom_trackings[k].result.rms_relative for k in (10.0, 100.0, 1000.0)
    )
    ok = (
        ladder[0] > ladder[1] > ladder[2]
        and all(5.0 <= r <= 20.0 for r in ratios)
        and atom_ladder[0] > atom_ladder[1] > atom_ladder[2]
    )
    detail = (
        f"lattice rms {ladder[0]:.2e}/{ladder[1]:.2e}/{ladder[2]:.2e} with "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (window [5, 20]); atom rms "
        f"{atom_ladder[0]:.2e}/{atom_ladder[1]:.2e}/{atom_ladder[2]:.2e} monotone"
    )
    criterion_report(2, "gain-scaling law", ok, detail)
    assert ok, detail


def test_lattice_tracking_accuracy_and_budget(
    hubbard_reference, hubbard_tracking, hubbard_smoke, criterion_report
):
    """The weakly interacting ring reproduces the U/t0 = 10 current response."""
    rms_full = hubbard_tracking.result.rms_relative
    wall_full = hubbard_reference.elapsed + hubbard_tracking.elapsed
    rms_smoke = hubbard_smoke.result.rms_relative
    ok = (
        rms_full <= 0.02
        and wall_full <= 1800.0
        and rms_smoke <= 0.02
        and hubbard_smoke.elapsed <= 120.0
    )
    detail = (
        f"ten-site rms {rms_full:.2e} in {wall_full:.0f}s (gates 2%, 1800s); "
        f"six-site rms {rms_smoke:.2e} in {hubbard_smoke.elapsed:.0f}s "
        f"(gates 2%, 120s)"
    )
    criterion_report(3, "cross-interaction current tracking", ok, detail)
    assert ok, detail


def test_self_tracking_is_exact(
    atom_self_tracking, hubbard_self_tracking, criterion_report
):
    """A system tracking its own reference emits exactly zero control."""
    stats = []
    for run in (atom_self_tracking, hubbard_self_tracking):
        res = run.result
        rms = float(np.sqrt(np.mean(res.residual**2)))
        stats.append((rms, float(np.max(np.abs(res.u)))))
    ok = all(rms < 1e-8 and u_max == 0.0 for rms, u_max in stats)
    detail = (
        f"atom rms residual {stats[0][0]:.1e}, max|u| {stats[0][1]:.1e}; "
        f"lattice rms residual {stats[1][0]:.1e}, max|u| {stats[1][1]:.1e} "
        f"(gates 1e-8 and exact zero)"
    )
    criterion_report(4, "self-tracking null control", ok, detail)
    assert ok, detail


def test_driven_lattice_matches_dense_exponential(hubbard_config, criterion_report):
    """Krylov propagation under a recorded drive agrees with dense expm.

    The four-site tracking run supplies an arbitrary recorded control
    sequence; the replay reconstructs the documented phase rule (pulse
    part by trapezoid, control part by zero-order hold, midpoint freeze)
    and applies the exact exponential of the Jordan-Wigner sector
    Hamiltonian at every step to the ring's ground-state block, embedded
    in the sector.
    """
    cfg = hubbard_config
    sites = 4
    reference = run_open_loop(_lattice_system(cfg, cfg.hubbard.u_reference, sites))
    system = _lattice_system(cfg, cfg.hubbard.u_driven, sites)
    result = run_tracking(system, reference.series("y"), cfg.feedback)

    dt = system.dt
    n = system.n_steps
    times = dt * np.arange(n + 1)
    phi_smooth = cumulative_trapezoid(
        evaluate_tl_field(times, cfg.pulse), dx=dt, initial=0.0
    )
    state = system.initial_state()
    embedded = Embedded(system)
    psi_dense = embedded.vector(state)
    u_sum = 0.0
    phi_prev = 0.0
    max_dev = 0.0
    for step in range(n):
        u = float(result.u[step])
        u_sum += u
        phi_new = -(phi_smooth[step + 1] + u_sum * dt)
        phi_mid = 0.5 * (phi_prev + phi_new)
        h_mid, _ = embedded.matrices(phi_mid)
        w, vecs = eigh(h_mid)
        psi_dense = vecs @ (np.exp(-1j * dt * w) * (vecs.conj().T @ psi_dense))
        state = system.advance(state, step, u)
        dev = float(np.max(np.abs(np.abs(embedded.vector(state)) - np.abs(psi_dense))))
        max_dev = max(max_dev, dev)
        phi_prev = phi_new

    ok = max_dev < 1e-6
    detail = f"max amplitude deviation {max_dev:.2e} over {n} steps (gate 1e-6)"
    criterion_report(5, "driven lattice vs dense exponential", ok, detail)
    assert ok, detail


def test_harmonic_cutoff_and_even_suppression(
    atom_config, hydrogen_reference, hydrogen_six_cycle_reference, criterion_report
):
    """Hydrogen keeps exact inversion parity and the 3.17 Up + Ip cutoff.

    Parity: the atom is inversion symmetric, so replaying the default run
    under the reversed field must negate the odd observables ``force`` and
    ``p`` to rounding.  This is the symmetry behind the odd-harmonic
    selection rule.  The ten-cycle spectrum itself cannot carry that gate:
    its even orders are physical hyper-Raman lines emitted while the pulse
    is on.  Cutoff: on ten-cycle records the lines near the cutoff sit
    about half an order off the odd grid, so the law is gated on the
    six-cycle record of the same atom, field and numerics.  The ten-cycle
    cutoff and contrast are reported only; docs/criterion6.md has the study.
    """
    pulse = atom_config.pulse
    omega0 = pulse.omega0
    expected = hhg_cutoff(pulse.e0, omega0, atom_config.atom.driven_ip) / omega0

    parity = field_reversal_residuals(
        hydrogen_reference.system, hydrogen_reference.record
    )

    short = hydrogen_six_cycle_reference.record.series("y")
    detected = detect_cutoff_order(power_spectrum(short, window="hann"), omega0)

    spectrum = power_spectrum(hydrogen_reference.record.series("y"), window="hann")
    ten_cycle = detect_cutoff_order(spectrum, omega0)
    peaks = harmonic_peaks(spectrum, omega0)
    margins = []
    for even in range(4, int(round(expected)), 2):
        if all(order in peaks for order in (even - 1, even, even + 1)):
            neighbors = min(peaks[even - 1].power_db, peaks[even + 1].power_db)
            margins.append((neighbors - peaks[even].power_db, even))
    worst, worst_even = min(margins)

    ok = all(r <= 1e-10 for r in parity.values()) and abs(detected - expected) <= 3.0
    detail = (
        f"field-reversal residual {parity['force']:.1e} force, {parity['p']:.1e} p "
        f"(gate 1e-10); six-cycle cutoff order {detected} vs expected "
        f"{expected:.1f} (gate +/-3); ten-cycle cutoff order {ten_cycle}, worst "
        f"even/odd contrast {worst:.1f} dB at order {worst_even} (informational)"
    )
    criterion_report(6, "harmonic cutoff and inversion parity", ok, detail)
    assert ok, detail


def test_matched_intensities_preserve_observables(
    atom_config, argon_reference, matched_hydrogen_reference, criterion_report
):
    """Intensity matching preserves the targeted strong-field observable."""
    pulse = atom_config.pulse
    omega0 = pulse.omega0
    ip_ref = atom_config.atom.reference_ip
    ip_drv = atom_config.atom.driven_ip

    f_ati = ati_matched_field(omega0, pulse.e0, ip_ref, ip_drv)
    ati_gap = abs(
        ponderomotive_energy(f_ati, omega0)
        + ip_drv
        - ponderomotive_energy(pulse.e0, omega0)
        - ip_ref
    )

    target = hhg_cutoff(pulse.e0, omega0, ip_ref)
    f_hhg = hhg_matched_field(omega0, target, ip_drv)
    hhg_gap = abs(hhg_cutoff(f_hhg, omega0, ip_drv) - target) / target

    det_ref = detect_cutoff_order(
        power_spectrum(argon_reference.record.series("y")), omega0
    )
    det_matched = detect_cutoff_order(
        power_spectrum(matched_hydrogen_reference.record.series("y")), omega0
    )
    delta = abs(det_ref - det_matched)

    ok = ati_gap <= 1e-12 and hhg_gap <= 0.01 and delta <= 2
    detail = (
        f"photoelectron-comb invariant gap {ati_gap:.1e} (gate 1e-12); "
        f"cutoff round trip off by {hhg_gap:.2%} (gate 1%); detected cutoff "
        f"orders {det_ref} vs {det_matched} (gate within 2)"
    )
    criterion_report(7, "intensity matching laws", ok, detail)
    assert ok, detail


def test_conservation_and_step_convergence(hubbard_config, criterion_report):
    """Norm and energy stay put; Ehrenfest residuals shrink with the step."""
    cfg = hubbard_config
    numerics = AtomNumerics(60.0, 512, 0.02, absorber_fraction=0.0)
    alpha = calibrate_softening(0.5, numerics)
    drive = PulseSpec(e0=0.05, omega0=0.25, cycles=2)

    # Norm under driving with the absorber off (the split steps are unitary).
    system = AtomSystem(alpha, drive, numerics)
    psi = system.initial_state()
    for step in range(system.n_steps):
        psi = system.advance(psi, step, 0.0)
    norm = float(np.sum(np.abs(psi) ** 2) * numerics.dx)
    atom_norm_drift = abs(norm - 1.0) / system.n_steps

    lat = _lattice_system(cfg, cfg.hubbard.u_driven, 4)
    state = lat.initial_state()
    for step in range(lat.n_steps):
        state = lat.advance(state, step, 0.0)
    lattice_norm_drift = abs(float(np.vdot(state.psi, state.psi).real) - 1.0) / lat.n_steps

    # Field-free energy over ten thousand steps, both platforms.
    still = AtomSystem(
        alpha, PulseSpec(e0=0.0, omega0=0.25, cycles=2),
        numerics,
    )
    potential = soft_coulomb_potential(numerics, alpha)
    k2 = numerics.k() ** 2
    psi = still.initial_state()
    e_ref = _energy(psi, k2, potential, numerics.dx, numerics.n_points)
    atom_energy_drift = 0.0
    for step in range(10_000):
        psi = still.advance(psi, step, 0.0)
        if (step + 1) % 250 == 0:
            e_now = _energy(psi, k2, potential, numerics.dx, numerics.n_points)
            atom_energy_drift = max(atom_energy_drift, abs(e_now - e_ref))

    still_lat = HubbardSystem(
        4, cfg.hubbard.u_reference,
        PulseSpec(e0=0.0, omega0=cfg.pulse.omega0, cycles=36),
        cfg.hubbard.numerics,
    )
    assert still_lat.n_steps >= 10_000
    state = still_lat.initial_state()
    embedded = Embedded(still_lat)
    h_zero, _ = embedded.matrices(0.0)

    def lattice_energy(st):
        v = embedded.vector(st)
        return float(np.real(np.vdot(v, h_zero @ v)))

    e_ref = lattice_energy(state)
    lattice_energy_drift = 0.0
    for step in range(10_000):
        state = still_lat.advance(state, step, 0.0)
        if (step + 1) % 250 == 0:
            lattice_energy_drift = max(
                lattice_energy_drift, abs(lattice_energy(state) - e_ref)
            )

    # Ehrenfest identity: central-difference derivative of the tracked
    # channel minus the recorded response, maximized over interior nodes,
    # must shrink at the second-order rate when dt halves.
    def atom_residual(dt):
        run = run_open_loop(
            AtomSystem(alpha, drive,
                       AtomNumerics(60.0, 512, dt, absorber_fraction=0.0))
        )
        p, y = run.channels["p"], run.channels["y"]
        return float(np.max(np.abs((p[2:] - p[:-2]) / (2 * dt) - y[1:-1])))

    def lattice_residual(dt):
        run = run_open_loop(
            HubbardSystem(4, cfg.hubbard.u_driven, cfg.pulse, LatticeNumerics(dt=dt))
        )
        cur, y = run.channels["current"], run.channels["y"]
        return float(np.max(np.abs((cur[2:] - cur[:-2]) / (2 * dt) - y[1:-1])))

    atom_ratio = atom_residual(0.02) / atom_residual(0.01)
    lattice_ratio = lattice_residual(0.01) / lattice_residual(0.005)

    ok = (
        atom_norm_drift < 1e-10
        and lattice_norm_drift < 1e-12
        and atom_energy_drift < 1e-8
        and lattice_energy_drift < 1e-8
        and atom_ratio >= 3.5
        and lattice_ratio >= 3.5
    )
    detail = (
        f"norm drift/step {atom_norm_drift:.1e} atom (gate 1e-10), "
        f"{lattice_norm_drift:.1e} lattice (gate 1e-12); field-free energy "
        f"drift {atom_energy_drift:.1e} atom, {lattice_energy_drift:.1e} "
        f"lattice (gate 1e-8 over 1e4 steps); Ehrenfest halving ratios "
        f"{atom_ratio:.2f} atom, {lattice_ratio:.2f} lattice (gate 3.5)"
    )
    criterion_report(8, "conservation and step convergence", ok, detail)
    assert ok, detail


def test_control_field_satisfies_closed_form(
    atom_trackings, hubbard_tracking, criterion_report
):
    """Recorded control equals k_p times the realized residual pointwise.

    Every step is checked.  The margin is the smallest |1 - k_p coupling|
    of the run: 1 + k_p on the atom, |1 + k_p <H_kin>| on the ring, in
    hopping units.
    """
    devs = {}
    for label, run in (("atom", atom_trackings[1000.0]), ("lattice", hubbard_tracking)):
        res = run.result
        dev = float(np.max(np.abs(res.u - res.k_p * res.residual)))
        if label == "atom":
            margin = 1.0 + res.k_p
        else:
            kinetic = res.channels["kinetic"]
            margin = float(np.min(np.abs(1.0 + res.k_p * kinetic)))
        devs[label] = (dev, margin)
    ok = all(dev <= 1e-9 for dev, _ in devs.values())
    detail = (
        f"atom max |u - k_p r| {devs['atom'][0]:.1e} "
        f"(min |1 - k_p coupling| {devs['atom'][1]:.4g}); lattice "
        f"{devs['lattice'][0]:.1e} (min |1 - k_p coupling| "
        f"{devs['lattice'][1]:.4g}); gate 1e-9"
    )
    criterion_report(9, "closed-form control identity", ok, detail)
    assert ok, detail
