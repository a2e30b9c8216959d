import math
import re

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal

from amptrack import (
    NumericalError,
    PulseSpec,
    evaluate_tl_field,
    run_open_loop,
)
from amptrack import grid as grid_module
from amptrack.grid import (
    AtomNumerics,
    AtomSystem,
    _energy,
    _softening_slope,
    calibrate_softening,
    imaginary_time_ground_state,
    soft_coulomb_force,
    soft_coulomb_potential,
)

SQRT2 = math.sqrt(2.0)


def dense_spectral_hamiltonian(numerics, V):
    # K = F^-1 diag(k^2/2) F on the same grid the propagator uses
    n = numerics.n_points
    F = sfft.fft(np.eye(n), axis=0)
    K = sfft.ifft((numerics.k() ** 2 / 2.0)[:, None] * F, axis=0)
    H = K + np.diag(V)
    return 0.5 * (H + H.conj().T)


def field_reversal_residuals(system, forward):
    """max|fwd + rev| / max|fwd| of the odd channels under the reversed field.

    ``forward`` is the open-loop record of ``system``; the replay drives it
    with u = -2 E_tl at each step midpoint, the reversed field inside
    ``AtomSystem.advance``.
    """
    midpoints = (np.arange(system.n_steps + 1) + 0.5) * system.dt
    u = -2.0 * evaluate_tl_field(midpoints, system.pulse)
    reverse = run_open_loop(system, u_forced=u)
    return {
        name: float(
            np.max(np.abs(forward.channels[name] + reverse.channels[name]))
            / np.max(np.abs(forward.channels[name]))
        )
        for name in ("force", "p")
    }


def gaussian_state(numerics, x0=0.0, k0=0.0, width=1.0):
    x = numerics.x()
    psi = np.exp(-((x - x0) ** 2) / (2 * width**2)).astype(complex)
    psi *= np.exp(1j * k0 * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * numerics.dx)
    return psi


def field_free_atom(half_width, n_points, alpha=SQRT2, dt=0.02):
    """An atom with no pulse and no absorber: ``advance`` with control u
    steps under the constant field u."""
    return AtomSystem(
        alpha,
        PulseSpec(e0=0.0, omega0=1.0, cycles=1),
        AtomNumerics(half_width, n_points, dt, absorber_fraction=0.0),
    )


def norm(psi, numerics):
    return float(np.sum(np.abs(psi) ** 2) * numerics.dx)


class TestAtomNumerics:
    def test_spacing_and_symmetry(self):
        numerics = AtomNumerics(10.0, 16)
        x = numerics.x()
        assert x[0] == -10.0 and x[-1] == 10.0
        assert numerics.dx == pytest.approx(20.0 / 15)
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-12)

    def test_rejects_bad_point_counts(self):
        with pytest.raises(ValueError, match="^n_points must be a power of two, got 100$"):
            AtomNumerics(10.0, 100)
        with pytest.raises(ValueError, match="^n_points must be at least 8, got 4$"):
            AtomNumerics(10.0, 4)


class TestPotential:
    def test_depth_at_origin(self):
        numerics = AtomNumerics(10.0, 16)
        V = soft_coulomb_potential(numerics, 1.0)
        j = np.argmin(np.abs(numerics.x()))
        assert V[j] == pytest.approx(-1.0 / math.sqrt(numerics.x()[j] ** 2 + 1.0))

    def test_monotone_decay_to_zero(self):
        numerics = AtomNumerics(200.0, 1024)
        V = soft_coulomb_potential(numerics, SQRT2)
        right = V[numerics.x() > 0]
        assert np.all(np.diff(right) > 0) and right[-1] < 0
        assert abs(right[-1]) < 0.01

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("sample", [soft_coulomb_potential, soft_coulomb_force],
                             ids=lambda f: f.__name__)
    def test_softening_must_be_finite_and_positive(self, sample, alpha):
        # NaN fails every comparison, so "alpha <= 0" alone would let it through
        rule = "positive" if math.isfinite(alpha) else "finite"
        with pytest.raises(ValueError, match=f"^alpha must be {rule}, got {alpha!r}$"):
            sample(AtomNumerics(10.0, 16), alpha)


class TestObservables:
    def test_momentum_of_real_state_is_zero(self):
        system = field_free_atom(20.0, 256)
        obs = system.observables(gaussian_state(system.numerics))
        assert abs(obs["p"]) < 1e-12

    def test_momentum_shift_theorem(self):
        system = field_free_atom(20.0, 256)
        obs = system.observables(gaussian_state(system.numerics, k0=0.7))
        assert obs["p"] == pytest.approx(0.7, abs=1e-8)

    def test_force_vanishes_for_symmetric_density(self):
        system = field_free_atom(20.0, 256)
        obs = system.observables(gaussian_state(system.numerics))
        assert abs(obs["force"]) < 1e-12

    def test_force_of_displaced_gaussian_matches_quadrature(self):
        system = field_free_atom(40.0, 8192)
        alpha2 = 2.0
        psi = gaussian_state(system.numerics, x0=5.0)

        def integrand(x):
            rho = np.exp(-((x - 5.0) ** 2)) / math.sqrt(math.pi)
            return rho * (-x / (x**2 + alpha2) ** 1.5)

        want, err = quad(integrand, -40, 40, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-11
        assert system.observables(psi)["force"] == pytest.approx(want, abs=1e-8)


class TestGroundState:
    def test_harmonic_oscillator(self):
        numerics = AtomNumerics(12.0, 256)
        V = 0.5 * numerics.x() ** 2
        psi, energy = imaginary_time_ground_state(numerics, V)
        assert energy == pytest.approx(0.5, abs=1e-8)
        exact = np.exp(-numerics.x() ** 2 / 2)
        exact /= math.sqrt(np.sum(exact**2) * numerics.dx)
        overlap = abs(np.sum(np.conj(psi) * exact) * numerics.dx)
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_free_particle_relaxes_to_zero_momentum_mode(self):
        numerics = AtomNumerics(10.0, 64)
        psi, energy = imaginary_time_ground_state(numerics, np.zeros(64))
        assert abs(energy) < 1e-8
        flat = np.abs(psi)
        assert flat.std() / flat.mean() < 1e-4

    def test_soft_coulomb_matches_dense_diagonalization(self):
        numerics = AtomNumerics(100.0, 1024)
        V = soft_coulomb_potential(numerics, SQRT2)
        _, energy = imaginary_time_ground_state(numerics, V)
        dense = dense_spectral_hamiltonian(numerics, V)
        e0 = eigh(dense, eigvals_only=True, subset_by_index=(0, 0))[0]
        assert energy == pytest.approx(e0, abs=1e-8)

    def test_soft_coulomb_binding_near_half_hartree(self):
        # independent finite-difference route on a fine grid
        L, n = 100.0, 16384
        x = np.linspace(-L, L, n)
        dx = x[1] - x[0]
        V = -1.0 / np.sqrt(x**2 + 2.0)
        e_fd = eigh_tridiagonal(
            1.0 / dx**2 + V,
            np.full(n - 1, -0.5 / dx**2),
            select="i",
            select_range=(0, 0),
        )[0][0]
        numerics = AtomNumerics(100.0, 1024)
        _, e_spectral = imaginary_time_ground_state(
            numerics, soft_coulomb_potential(numerics, SQRT2)
        )
        assert e_spectral == pytest.approx(e_fd, abs=5e-4)
        assert e_spectral == pytest.approx(-0.5, abs=2e-3)

    def test_unsettled_stage_reports_its_last_energy_change(self, monkeypatch):
        # the error carries the change of the last step's level
        # -ln|psi'|^2 / (2 dtau), not the difference of that level with itself
        monkeypatch.setattr(grid_module, "_MAX_STEPS", 3)
        numerics = AtomNumerics(20.0, 64)
        V = soft_coulomb_potential(numerics, SQRT2)
        with pytest.raises(NumericalError, match="did not settle at dtau=0.1") as exc:
            imaginary_time_ground_state(numerics, V)
        dtau, k2 = 0.1, numerics.k() ** 2
        exp_k, exp_v = np.exp(-0.5 * k2 * dtau), np.exp(-0.5 * V * dtau)
        psi, levels = gaussian_state(numerics), []
        for _ in range(3):
            psi = exp_v * sfft.ifft(exp_k * sfft.fft(exp_v * psi))
            levels.append(-math.log(norm(psi, numerics)) / (2 * dtau))
            psi /= math.sqrt(norm(psi, numerics))
        assert exc.value.residual == pytest.approx(abs(levels[2] - levels[1]), rel=1e-9)
        assert exc.value.residual > 0.0

    def test_solve_lies_near_the_iterated_fixed_point(self):
        # 30 000 further steps at the last dtau give the fixed point; the
        # bounds are the readings of the energy stop rule this one replaced
        numerics = AtomNumerics(60.0, 512)
        V = soft_coulomb_potential(numerics, SQRT2)
        psi, energy = imaginary_time_ground_state(numerics, V)
        dtau, k2, dx = grid_module._DTAU_SCHEDULE[-1], numerics.k() ** 2, numerics.dx
        exp_k, exp_v = np.exp(-0.5 * k2 * dtau), np.exp(-0.5 * V * dtau)
        star = psi
        for _ in range(30_000):
            star = exp_v * sfft.ifft(exp_k * sfft.fft(exp_v * star))
            star /= math.sqrt(norm(star, numerics))
        overlap = np.sum(np.conj(star) * psi) * dx
        distance = math.sqrt(norm(psi - star * overlap / abs(overlap), numerics))
        assert distance <= 1.13e-5
        assert abs(energy - _energy(star, k2, V, dx, numerics.n_points)) <= 7.8e-11

    def test_system_solves_once_and_hands_out_copies(self, monkeypatch):
        calls = []
        solve = grid_module.imaginary_time_ground_state

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(grid_module, "imaginary_time_ground_state", counted)
        system = AtomSystem(SQRT2, PulseSpec(e0=0.05, omega0=1.0, cycles=1),
                            AtomNumerics(60.0, 512, 0.05))
        assert len(calls) == 1
        energy = system.ground_energy
        first = system.initial_state()
        want = first.copy()
        first[:] = 0.0
        second = system.initial_state()
        assert len(calls) == 1
        assert second.tobytes() == want.tobytes()
        assert system.ground_energy == energy

    def test_systems_at_a_calibrated_key_solve_nothing(self, monkeypatch):
        # the calibration's last solve is the memo's entry; systems built
        # at its (numerics, alpha) share it and make no solve of their own
        numerics = AtomNumerics(60.0, 512, 0.05)
        alpha = calibrate_softening(0.5, numerics)
        calls = []
        solve = grid_module.imaginary_time_ground_state

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(grid_module, "imaginary_time_ground_state", counted)
        pulse = PulseSpec(e0=0.05, omega0=1.0, cycles=1)
        first, second = (AtomSystem(alpha, pulse, numerics) for _ in range(2))
        states = [first.initial_state(), second.initial_state()]
        assert calls == []
        assert states[0].tobytes() == states[1].tobytes()
        assert repr(first.ground_energy) == repr(second.ground_energy)


class TestCalibration:
    def test_half_hartree_gives_sqrt_two(self):
        numerics = AtomNumerics(100.0, 1024)
        alpha = calibrate_softening(0.5, numerics)
        assert alpha == pytest.approx(SQRT2, abs=0.02)

    def test_fixed_point_consistency(self):
        numerics = AtomNumerics(100.0, 1024)
        probe = 1.1
        _, energy = imaginary_time_ground_state(
            numerics, soft_coulomb_potential(numerics, probe)
        )
        alpha = calibrate_softening(-energy, numerics)
        assert alpha == pytest.approx(probe, abs=5e-3)

    def test_rejects_targets_outside_domain(self):
        numerics = AtomNumerics(100.0, 1024)
        for target in (0.0, 0.1, 2.5):
            with pytest.raises(ValueError, match=re.escape(
                    f"target_ip must lie in (0.2, 2.0), got {target}")):
                calibrate_softening(target, numerics)

    def test_non_bracketing_interval(self, monkeypatch):
        monkeypatch.setattr(grid_module, "_BRACKET", (0.1, 0.2))
        numerics = AtomNumerics(100.0, 1024)
        with pytest.raises(NumericalError, match="does not bracket"):
            calibrate_softening(0.3, numerics)

    def test_target_too_deep_for_interval(self, monkeypatch):
        monkeypatch.setattr(grid_module, "_BRACKET", (1.0, 6.0))
        numerics = AtomNumerics(100.0, 1024)
        with pytest.raises(NumericalError, match="does not bracket"):
            calibrate_softening(1.5, numerics)

    def test_few_ground_state_solves(self, monkeypatch):
        calls = []
        solve = grid_module.imaginary_time_ground_state

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(grid_module, "imaginary_time_ground_state", counted)
        calibrate_softening(0.5, AtomNumerics(100.0, 1024))
        assert len(calls) <= 6

    def test_newton_step_past_the_bracket_checks_the_edge_once(self, monkeypatch):
        # the first Newton step, from 0.76, leaves [0.1, 1.42] through 1.42:
        # the solver solves that edge once, finds it brackets the target,
        # and bisects
        alphas, energies = [], []
        potential = grid_module.soft_coulomb_potential
        solve = grid_module.imaginary_time_ground_state

        def recorded_potential(numerics, alpha):
            alphas.append(alpha)
            return potential(numerics, alpha)

        def recorded_solve(*args, **kwargs):
            psi, energy = solve(*args, **kwargs)
            energies.append(energy)
            return psi, energy

        monkeypatch.setattr(grid_module, "soft_coulomb_potential", recorded_potential)
        monkeypatch.setattr(grid_module, "imaginary_time_ground_state", recorded_solve)
        monkeypatch.setattr(grid_module, "_BRACKET", (0.1, 1.42))
        alpha = calibrate_softening(0.5, AtomNumerics(60.0, 512))
        assert alphas.count(1.42) == 1
        assert alphas[-1] == alpha < 1.42
        assert abs(-energies[-1] - 0.5) < grid_module._CALIBRATION_TOL

    def test_slope_is_hellmann_feynman(self):
        # dE0/dalpha by central difference against <dV/dalpha>, the slope
        # the Newton steps use
        numerics = AtomNumerics(100.0, 1024)
        alpha, h = 1.2, 1e-3

        def ground(a):
            return imaginary_time_ground_state(numerics, soft_coulomb_potential(numerics, a))

        psi, _ = ground(alpha)
        slope = np.sum(np.abs(psi) ** 2 * _softening_slope(numerics, alpha)) * numerics.dx
        central = (ground(alpha + h)[1] - ground(alpha - h)[1]) / (2 * h)
        assert slope == pytest.approx(central, abs=1e-5)


class TestSplitOperator:
    def test_eigenstate_acquires_only_a_phase(self):
        system = field_free_atom(100.0, 1024)
        psi = system.initial_state()
        e0 = system.ground_energy
        dt = system.dt
        stepped = system.advance(psi, 0, 0.0)
        numerics = system.numerics
        overlap = np.sum(np.conj(psi) * stepped) * numerics.dx
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert -np.angle(overlap) / dt == pytest.approx(e0, abs=1e-5)
        obs = system.observables(stepped)
        assert abs(obs["p"]) < 1e-10
        assert abs(obs["force"]) < 1e-10
        energy = _energy(stepped, numerics.k() ** 2, system._V, numerics.dx, numerics.n_points)
        assert energy == pytest.approx(e0, abs=1e-10)

    def test_unitarity_without_absorber(self):
        system = field_free_atom(30.0, 256, alpha=1.0, dt=0.05)
        psi = gaussian_state(system.numerics, x0=1.0)
        for step in range(200):
            psi = system.advance(psi, step, 0.05)
            assert abs(norm(psi, system.numerics) - 1.0) < 1e-12

    def test_thousand_field_free_steps_leave_observables_fixed(self):
        system = field_free_atom(100.0, 1024)
        psi = system.initial_state()
        start = system.observables(psi)
        for step in range(1000):
            psi = system.advance(psi, step, 0.0)
        end = system.observables(psi)
        assert abs(end["p"] - start["p"]) < 1e-8
        assert abs(end["force"] - start["force"]) < 1e-8
        assert abs(norm(psi, system.numerics) - 1.0) < 1e-10

    def test_harmonic_ehrenfest_follows_classical_motion(self):
        # Ehrenfest is exact for a quadratic potential, so a classical
        # two-variable integration is an oracle up to the stepper's O(dt^2)
        e_amp, e_freq, t_stop = 0.25, 0.7, 8.0

        def drive(t):
            return e_amp * math.cos(e_freq * t)

        def quantum_error(dt):
            system = field_free_atom(12.0, 256, dt=dt)
            numerics = system.numerics
            system._V = 0.5 * numerics.x() ** 2
            system._exp_v_half = np.exp(-0.5j * dt * system._V)
            n = int(round(t_stop / dt))
            psi = gaussian_state(numerics, x0=1.0)
            xs, ps, ts = [], [], []
            for i in range(n + 1):
                xs.append(float(np.sum(numerics.x() * np.abs(psi) ** 2) * numerics.dx))
                ps.append(system.observables(psi)["p"])
                ts.append(i * dt)
                if i < n:
                    psi = system.advance(psi, i, drive((i + 0.5) * dt))
            sol = solve_ivp(
                lambda t, s: [s[1], -s[0] - drive(t)],
                (0, t_stop),
                [1.0, 0.0],
                t_eval=ts,
                rtol=1e-11,
                atol=1e-12,
            )
            return max(
                np.max(np.abs(np.array(xs) - sol.y[0])),
                np.max(np.abs(np.array(ps) - sol.y[1])),
            )

        e1, e2 = quantum_error(0.04), quantum_error(0.02)
        assert e1 < 1e-3
        assert e1 / e2 > 3.5

    @pytest.mark.parametrize("n_points", [512, 1024])
    def test_step_and_observables_match_direct_split_step(self, n_points):
        # 512 points is not a square, so the phase's two factors differ in length
        alpha = SQRT2
        pulse = PulseSpec(e0=0.1, omega0=0.3, cycles=2)
        system = AtomSystem(alpha, pulse, AtomNumerics(60.0, n_points, 0.05))
        numerics, dt = system.numerics, system.dt
        x, k = numerics.x(), numerics.k()
        V = soft_coulomb_potential(numerics, SQRT2)
        force = soft_coulomb_force(numerics, SQRT2)
        mask = numerics.mask()

        def direct_step(psi, step, u):
            pot = np.exp(-0.5j * dt * V) * np.exp(
                -0.5j * dt * (system._e_mid[step] + u) * x
            )
            psi = sfft.ifft(np.exp(-0.5j * dt * k**2) * sfft.fft(pot * psi))
            return pot * psi * mask

        psi = gaussian_state(numerics, x0=3.0, k0=0.7)
        for step in range(40):
            psi = direct_step(psi, step, 0.2)
        got, want = system.advance(psi, 40, -0.3), direct_step(psi, 40, -0.3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        phi = sfft.fft(psi)
        p = np.real(np.sum(k * np.conj(phi) * phi)) * numerics.dx / n_points
        f = np.sum(force * np.abs(psi) ** 2) * numerics.dx
        obs = system.observables(psi)
        assert obs["p"] == pytest.approx(p, rel=1e-13)
        assert obs["force"] == pytest.approx(f, rel=1e-13)

    def test_advance_leaves_its_input_unchanged(self):
        system = field_free_atom(30.0, 256)
        psi = gaussian_state(system.numerics, x0=1.0, k0=0.3)
        before = psi.copy()
        system.advance(psi, 0, 0.1)
        np.testing.assert_array_equal(psi, before)

    def test_absorber_mask_shape(self):
        numerics = AtomNumerics(100.0, 1024, absorber_fraction=0.1,
                                absorber_exponent=0.125)
        mask = numerics.mask()
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        interior = np.abs(numerics.x()) < 100.0 - 20.0
        np.testing.assert_array_equal(mask[interior], 1.0)
        assert mask[0] < 0.01 and mask[-1] < 0.01
        assert AtomNumerics(100.0, 1024, absorber_fraction=0.0).mask() is None


class TestReferenceRuns:
    def small_numerics(self):
        return AtomNumerics(box_half_width=60.0, n_points=512, dt=0.05,
                            absorber_fraction=0.0)

    def test_zero_amplitude_gives_null_reference(self):
        alpha = SQRT2
        pulse = PulseSpec(e0=0.0, omega0=1.0, cycles=2)
        record = run_open_loop(AtomSystem(alpha, pulse, self.small_numerics()))
        assert np.max(np.abs(record.channels["y"])) < 1e-10
        assert np.max(np.abs(record.channels["p"])) < 1e-10

    def test_reference_starts_at_zero(self):
        alpha = SQRT2
        pulse = PulseSpec(e0=0.1, omega0=1.0, cycles=2)
        record = run_open_loop(AtomSystem(alpha, pulse, self.small_numerics()))
        assert record.channels["y"][0] == pytest.approx(0.0, abs=1e-10)
        assert record.channels["e_total"][0] == 0.0

    def test_ehrenfest_residual_halves_quadratically(self):
        alpha = SQRT2
        pulse = PulseSpec(e0=0.2, omega0=0.5, cycles=2)

        def residual(dt):
            numerics = AtomNumerics(box_half_width=60.0, n_points=512, dt=dt,
                                    absorber_fraction=0.0)
            rec = run_open_loop(AtomSystem(alpha, pulse, numerics))
            p = rec.channels["p"]
            dp = (p[2:] - p[:-2]) / (2 * dt)
            return np.max(np.abs(dp - rec.channels["y"][1:-1]))

        r1, r2 = residual(0.05), residual(0.025)
        assert r1 / r2 > 3.5

    def test_field_reversal_negates_odd_observables(self):
        # Fast counterpart of acceptance criterion 6's parity gate.  The
        # pulse ionizes enough for flux to reach the absorber, so an
        # asymmetric mask or grid shows up in the residual.
        alpha = SQRT2
        pulse = PulseSpec(e0=0.1, omega0=0.1, cycles=2)
        system = AtomSystem(alpha, pulse, AtomNumerics(60.0, 512, 0.02))
        residuals = field_reversal_residuals(system, run_open_loop(system))
        assert all(r <= 1e-10 for r in residuals.values()), residuals

    def test_box_too_small_is_rejected(self):
        alpha = SQRT2
        pulse = PulseSpec(e0=0.1, omega0=1.0, cycles=2)
        numerics = AtomNumerics(box_half_width=10.0, n_points=64, dt=0.05)
        with pytest.raises(ValueError, match="box"):
            AtomSystem(alpha, pulse, numerics).initial_state()
