import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh, expm

import amptrack
from amptrack import (
    ConvergenceError,
    PulseSpec,
    StepSizeError,
    evaluate_tl_field,
    lattice,
)
from amptrack.feedback import run_open_loop
from amptrack.lattice import (
    HubbardSystem,
    LatticeModel,
    LatticeNumerics,
    _krylov_apply,
    _ManyBodyState,
    _operators,
)

def model_for(L, u=0.0, t0=1.0, a=1.0):
    return LatticeModel(t0=t0, u=u, a=a, n_sites=L)


def ring(model, n_up=None, n_down=None, pulse=None, numerics=None):
    """A HubbardSystem on the (n_up, n_down) sector, field-free by default."""
    pulse = pulse or PulseSpec(e0=0.0, omega0=1.0, cycles=1)
    return HubbardSystem(model, pulse, numerics, n_up=n_up, n_down=n_down)


def random_state(basis, seed=0, phi=0.0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((basis.dim_up, basis.dim_down)) + 1j * rng.standard_normal(
        (basis.dim_up, basis.dim_down)
    )
    psi /= np.linalg.norm(psi.ravel())
    return _ManyBodyState(psi, phi=phi)


def hamiltonian(basis, model, phi):
    """H(phi) of the propagator, the operator ``HubbardSystem.advance`` uses."""
    return _operators(basis).phased(phi, model.t0, model.u)


def module_dense(basis, model, phi):
    hop = hamiltonian(basis, model, phi)
    n = basis.dim
    M = np.empty((n, n), dtype=complex)
    for c in range(n):
        e = np.zeros(n, dtype=complex)
        e[c] = 1.0
        M[:, c] = hop.apply(e.reshape(basis.dim_up, basis.dim_down)).ravel()
    return M


# ---------------------------------------------------------------------------
# independent oracle: full-Fock-space operators from raw Jordan-Wigner strings
# (mode order: up modes are bits 0..L-1, down modes bits L..2L-1)


def jw_annihilators(n_modes):
    dim = 1 << n_modes
    ops = []
    for m in range(n_modes):
        mat = np.zeros((dim, dim))
        string = (1 << m) - 1
        for s in range(dim):
            if s & (1 << m):
                sign = -1.0 if bin(s & string).count("1") % 2 else 1.0
                mat[s ^ (1 << m), s] = sign
        ops.append(mat)
    return ops


def jw_sector_parts(L, basis):
    """Forward-hop sum and double-occupancy operator in the sector."""
    c = jw_annihilators(2 * L)
    cdag = [m.T for m in c]
    dim = 1 << (2 * L)
    K = np.zeros((dim, dim))
    W = np.zeros((dim, dim))
    for j in range(L):
        l = (j + 1) % L
        for spin_offset in (0, L):
            K += cdag[l + spin_offset] @ c[j + spin_offset]
        W += cdag[j] @ c[j] @ cdag[j + L] @ c[j + L]
    cols = [
        int(basis.states_up[i // basis.dim_down])
        | (int(basis.states_down[i % basis.dim_down]) << L)
        for i in range(basis.dim)
    ]
    return K[np.ix_(cols, cols)], W[np.ix_(cols, cols)]


def jw_sector_matrices(L, basis, model, phi, parts=None):
    K, W = jw_sector_parts(L, basis) if parts is None else parts
    fwd = np.exp(1j * phi)
    H = -model.t0 * (fwd * K + np.conj(fwd) * K.T) + model.u * W
    J = (1j * model.a * model.t0) * (fwd * K - np.conj(fwd) * K.T)
    return H, J


def jw_expectations(basis, model, state):
    """<J>, <H_kin> and i<[H, J]> of the state from the Jordan-Wigner matrices."""
    L = basis.n_sites
    parts = jw_sector_parts(L, basis)
    H, J = jw_sector_matrices(L, basis, model, state.phi, parts)
    H_kin, _ = jw_sector_matrices(L, basis, model_for(L, t0=model.t0, a=model.a),
                                  state.phi, parts)
    v = state.psi.ravel()
    return {
        "current": (v.conj() @ J @ v).real,
        "kinetic": (v.conj() @ H_kin @ v).real,
        "comm": (1j * (v.conj() @ (H @ J - J @ H) @ v)).real,
    }


class TestSectorBasis:
    @pytest.mark.parametrize(
        "L,n_up,n_down,dim",
        [(2, 1, 1, 4), (4, 2, 2, 36), (10, 5, 5, 63504), (3, 2, 1, 9),
         (6, None, None, 400)],
    )
    def test_dimensions(self, L, n_up, n_down, dim):
        assert ring(model_for(L), n_up, n_down).basis.dim == dim

    def test_ordering_is_ascending_bitmasks(self):
        basis = ring(model_for(5), 2, 3).basis
        assert np.all(np.diff(basis.states_up) > 0)
        assert np.all(np.diff(basis.states_down) > 0)

    def test_rejects_bad_occupations(self):
        with pytest.raises(ValueError, match="particle numbers"):
            ring(model_for(4), 5, 2)
        with pytest.raises(ValueError, match="particle numbers"):
            ring(model_for(4), -1, 2)


class TestOperatorsAgainstJordanWigner:
    @pytest.mark.parametrize(
        "L,n_up,n_down,u,phi",
        [
            (2, 1, 1, 0.0, 0.0),
            (2, 1, 1, 4.0, 0.8),
            (3, 2, 1, 2.5, -0.37),
            (4, 2, 2, 10.0, 0.52),
            (4, 3, 2, 1.0, 2.1),
        ],
    )
    def test_hamiltonian_and_current_match(self, L, n_up, n_down, u, phi):
        # the program never applies J; its current, kinetic energy and
        # commutator enter only as the expectation values of observables()
        model = model_for(L, u=u, a=1.3, t0=0.7)
        system = ring(model, n_up, n_down)
        basis = system.basis
        H_ref, _ = jw_sector_matrices(L, basis, model, phi)
        H = module_dense(basis, model, phi)
        np.testing.assert_allclose(H, H_ref, atol=1e-12)
        state = random_state(basis, 3, phi=phi)
        got = system.observables(state)
        for name, want in jw_expectations(basis, model, state).items():
            assert got[name] == pytest.approx(want, abs=1e-12), name

    def test_two_site_single_fermion_band(self):
        model = model_for(2)
        basis = ring(model, 1, 0).basis
        H = module_dense(basis, model, 0.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [-2.0, 2.0], atol=1e-12)

    def test_interaction_diagonal(self):
        model = model_for(2, u=5.0)
        basis = ring(model, 1, 1).basis
        H = module_dense(basis, model, 0.0)
        diag = np.real(np.diag(H))
        occ = [
            bin(int(basis.states_up[i // basis.dim_down])
                & int(basis.states_down[i % basis.dim_down])).count("1")
            for i in range(basis.dim)
        ]
        np.testing.assert_allclose(diag, 5.0 * np.array(occ), atol=1e-12)

    def test_hermiticity_on_random_states(self):
        model = model_for(4, u=3.0)
        basis = ring(model).basis
        for phi in (0.0, 0.9, -2.4):
            a, b = random_state(basis, 1), random_state(basis, 2)
            hop = hamiltonian(basis, model, phi)
            ha = hop.apply(a.psi)
            hb = hop.apply(b.psi)
            lhs = np.vdot(b.psi, ha)
            rhs = np.conj(np.vdot(a.psi, hb))
            assert abs(lhs - rhs) < 1e-12

    def test_expectations_are_real(self):
        model = model_for(4, u=2.0)
        basis = ring(model).basis
        state = random_state(basis, 5)
        h_psi = hamiltonian(basis, model, 0.7).apply(state.psi)
        assert abs(np.vdot(state.psi, h_psi).imag) < 1e-12


class TestPhasedFactors:
    @pytest.mark.parametrize("L", range(2, 9))
    def test_equal_to_scipy_sum(self, L):
        # the fixed-pattern factors against hop z + hop^T conj(z) by scipy
        # sparse arithmetic, for both spins, every filling and five phases;
        # L = 2 has forward and backward hops on the same entries
        for n in range(L + 1):
            ops = _operators(ring(model_for(L), n, L - n).basis)
            for phi in (0.0, 0.3, -1.1, 0.5 * math.pi, 2.9):
                hop = ops.phased(phi, 1.3, 0.0)
                z = -1.3 * np.exp(1j * phi)
                for got, fwd, bwd in ((hop.m_up, ops.hop_up, ops.hop_up_t),
                                      (hop.m_down, ops.hop_down, ops.hop_down_t)):
                    want = (fwd * z + bwd * np.conj(z)).tocsr()
                    np.testing.assert_array_equal(got.toarray(), want.toarray())


class TestDerivativeAndCommutator:
    def test_current_differentiates_into_kinetic_term(self):
        # d<J>/dPhi = a <H_kin>, checked by central finite difference
        model = model_for(4, u=6.0, a=1.7)
        system = ring(model)
        phi, h = 0.43, 1e-5
        for seed in (1, 2, 3):
            psi = random_state(system.basis, seed).psi

            def observed(p):
                return system.observables(_ManyBodyState(psi, phi=p))

            slope = (observed(phi + h)["current"] - observed(phi - h)["current"]) / (2 * h)
            assert slope == pytest.approx(model.a * observed(phi)["kinetic"], abs=1e-8)

    def test_commutator_matches_dense_oracle(self):
        model = model_for(2, u=3.3, a=1.2)
        system = ring(model)
        phi = 0.61
        H_ref, J_ref = jw_sector_matrices(2, system.basis, model, phi)
        state = random_state(system.basis, 9, phi=phi)
        v = state.psi.ravel()
        want = (1j * (v.conj() @ (H_ref @ J_ref - J_ref @ H_ref) @ v)).real
        got = system.observables(state)["comm"]
        assert got == pytest.approx(want, abs=1e-10)

    def test_commutator_vanishes_without_interaction(self):
        # hopping and current are both diagonal in momentum on the ring
        model = model_for(4, u=0.0)
        system = ring(model)
        state = random_state(system.basis, 11, phi=0.3)
        assert abs(jw_expectations(system.basis, model, state)["comm"]) < 1e-12
        assert system.observables(state)["comm"] == 0.0

    def test_loop_commutator_shortcut_equals_general_form(self):
        model = model_for(4, u=7.0, a=1.4)
        pulse = PulseSpec(e0=1.0, omega0=4.43, cycles=2)
        system = HubbardSystem(model, pulse)
        state = random_state(system.basis, 13, phi=-0.52)
        obs = system.observables(state)
        assert obs["comm"] == pytest.approx(
            jw_expectations(system.basis, model, state)["comm"], abs=1e-12
        )

    def test_commutator_zero_on_eigenstate(self):
        system = ring(model_for(4, u=5.0))
        gs = system.initial_state()
        assert abs(system.observables(gs)["comm"]) < 1e-9


class TestGroundStates:
    # sectors of dimension 2 to 4 end the recurrence on an invariant
    # Krylov space; (4, 2, 2) has dimension 36 and restarts
    @pytest.mark.parametrize("n_sites, n_up, n_down", [
        (2, 1, 0), (2, 1, 1), (3, 1, 0), (4, 1, 0), (4, 2, 2)])
    def test_matches_dense_at_strong_coupling(self, n_sites, n_up, n_down):
        model = model_for(n_sites, u=10.0)
        system = ring(model, n_up, n_down)
        basis = system.basis
        H = module_dense(basis, model, 0.0)
        e_dense = eigh(H, eigvals_only=True)[0]
        gs = system.initial_state()
        energy = system.ground_energy
        assert energy == pytest.approx(e_dense, abs=1e-8)
        h_psi = hamiltonian(basis, model, 0.0).apply(gs.psi)
        assert np.linalg.norm(h_psi - energy * gs.psi) < 1e-8

    def test_exhausted_restart_budget_raises(self, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_RESTARTS", 1)
        system = ring(model_for(6, u=10.0))
        with pytest.raises(ConvergenceError) as exc:
            system.initial_state()
        assert exc.value.residual > 1e-8
        assert system.ground_energy is None

    def test_free_fermion_band_sums(self):
        for L, n in ((10, 5), (6, 3)):
            system = ring(model_for(L), n, n)
            gs = system.initial_state()
            energy = system.ground_energy
            bands = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(L) / L))
            want = 2.0 * bands[:n].sum()
            assert energy == pytest.approx(want, abs=1e-8)
            assert system.observables(gs)["kinetic"] == pytest.approx(want, abs=1e-8)

    def test_ground_state_carries_no_current(self):
        system = ring(model_for(6, u=4.0))
        gs = system.initial_state()
        assert abs(system.observables(gs)["current"]) < 1e-10

    def test_interaction_suppresses_kinetic_energy(self):
        values = []
        for u in (1.0, 5.0, 10.0):
            system = ring(model_for(6, u=u))
            gs = system.initial_state()
            values.append(abs(system.observables(gs)["kinetic"]))
        assert values[0] > values[1] > values[2]

    def test_deterministic(self):
        model = model_for(6, u=4.0)
        a = ring(model).initial_state()
        b = ring(model).initial_state()
        np.testing.assert_array_equal(a.psi, b.psi)

    def test_empty_sector(self):
        system = ring(model_for(4, u=9.0), 0, 0)
        gs = system.initial_state()
        assert system.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert system.observables(gs)["kinetic"] == 0.0


class TestKrylovPropagation:
    def test_eigenstate_gets_global_phase(self):
        model = model_for(4, u=3.0)
        system = ring(model, numerics=LatticeNumerics(dt=0.01))
        gs = system.initial_state()
        e0 = system.ground_energy
        stepped = system.advance(gs, 0, 0.0)
        overlap = np.vdot(gs.psi, stepped.psi)
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert -np.angle(overlap) / system.dt == pytest.approx(e0, abs=1e-9)

    def test_full_pulse_matches_dense_exponential(self):
        model = model_for(4, u=10.0, a=1.0)
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        system = HubbardSystem(model, pulse, LatticeNumerics(dt=0.005))
        state = system.initial_state()
        psi_dense = state.psi.ravel().copy()
        parts = jw_sector_parts(4, system.basis)
        max_dev = 0.0
        for i in range(system.n_steps):
            stepped = system.advance(state, i, 0.0)
            phi_mid = 0.5 * (state.phi + stepped.phi)
            H_mid, _ = jw_sector_matrices(4, system.basis, model, phi_mid, parts=parts)
            psi_dense = expm(-1j * system.dt * H_mid) @ psi_dense
            state = stepped
            dev = np.max(np.abs(state.psi.ravel() - psi_dense))
            max_dev = max(max_dev, dev)
        assert max_dev < 1e-6

    def test_norm_drift(self):
        model = model_for(4, u=10.0)
        basis = ring(model).basis
        hop = hamiltonian(basis, model, 0.28)
        psi = random_state(basis, 21).psi
        for _ in range(1000):
            psi = _krylov_apply(psi, hop, 0.005)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-11

    def test_energy_conserved_at_constant_phase(self):
        model = model_for(2, u=3.7)
        basis = ring(model).basis
        hop = hamiltonian(basis, model, 0.3)
        psi = random_state(basis, 30).psi
        e_start = float(np.vdot(psi, hop.apply(psi)).real)
        for _ in range(10000):
            psi = _krylov_apply(psi, hop, 0.005)
        assert abs(float(np.vdot(psi, hop.apply(psi)).real) - e_start) < 1e-8

    def test_subspace_exhaustion_raises(self):
        # ||H|| = 21 on this sector: even dt / 2^6 = 1.6 is far beyond what
        # 20 Lanczos vectors resolve, so the step fails with its residual
        model = model_for(4, u=10.0)
        basis = ring(model).basis
        psi = random_state(basis, 33).psi
        with pytest.raises(StepSizeError, match="reduce dt") as exc:
            _krylov_apply(psi, hamiltonian(basis, model, 0.0), 100.0)
        assert exc.value.residual > 1e-10

    def test_advance_subdivides_oversized_steps(self):
        # one step of dt 2 or 20 (||H|| dt = 42 and 420) is split inside
        # the Krylov space and still matches the dense exponential
        model = model_for(4, u=10.0)
        pulse = PulseSpec(e0=2.61, omega0=0.3, cycles=1)
        for dt in (2.0, 20.0):
            system = HubbardSystem(model, pulse, LatticeNumerics(dt=dt))
            state = random_state(system.basis, 34)
            stepped = system.advance(state, 0, 0.1)
            phi_mid = 0.5 * (state.phi + stepped.phi)
            assert phi_mid != 0.0
            H_mid, _ = jw_sector_matrices(4, system.basis, model, phi_mid)
            psi_dense = expm(-1j * dt * H_mid) @ state.psi.ravel()
            assert np.max(np.abs(stepped.psi.ravel() - psi_dense)) < 1e-9


_THREAD_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from amptrack import HubbardSystem, LatticeModel, PulseSpec
    from amptrack.lattice import _ManyBodyState

    system = HubbardSystem(LatticeModel(t0=1.0, u=4.0, a=1.0, n_sites=10),
                           PulseSpec(e0=2.61, omega0=4.43, cycles=1))
    basis = system.basis
    rng = np.random.default_rng(5)
    shape = (basis.dim_up, basis.dim_down)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    state = _ManyBodyState(psi / np.sqrt(np.sum(np.abs(psi) ** 2)))
    digest = hashlib.sha256()
    ground = system.initial_state()
    digest.update(repr(system.ground_energy).encode())
    digest.update(ground.psi.tobytes())
    for step in range(5):
        obs = system.observables(state)
        digest.update(repr(sorted(obs.items())).encode())
        state = system.advance(state, step, 0.7)
    digest.update(state.psi.tobytes())
    print(digest.hexdigest())
""")


class TestThreadIndependence:
    def test_ten_site_steps_do_not_depend_on_blas_threads(self):
        # the ground state and five observables + advance steps on the
        # ten-site ring (dim 63 504) from a seeded state, hashed, in one
        # process per BLAS thread count
        src = str(Path(amptrack.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                 capture_output=True, text=True, timeout=600)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]


class TestReferenceRun:
    def test_zero_field_is_silent(self):
        model = model_for(4, u=10.0)
        pulse = PulseSpec(e0=0.0, omega0=4.43, cycles=1)
        rec = run_open_loop(HubbardSystem(model, pulse))
        assert np.max(np.abs(rec.channels["y"])) < 1e-9
        assert np.max(np.abs(rec.channels["current"])) < 1e-9

    def test_target_starts_at_zero(self):
        model = model_for(4, u=8.0)
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        rec = run_open_loop(HubbardSystem(model, pulse))
        assert rec.channels["y"][0] == pytest.approx(0.0, abs=1e-9)

    def test_phase_channel_reproduces_accumulator(self):
        model = model_for(4, u=8.0, a=1.0)
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        rec = run_open_loop(HubbardSystem(model, pulse))
        # with no control the phase is -a times the trapezoid-rule
        # integral of the pulse on the propagation grid
        t = rec.dt * np.arange(len(rec))
        want = -model.a * cumulative_trapezoid(
            evaluate_tl_field(t, pulse), dx=rec.dt, initial=0.0
        )
        np.testing.assert_array_equal(rec.channels["phase"], want)

    def test_ehrenfest_residual_is_second_order(self):
        model = model_for(4, u=10.0)
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)

        def residual(dt):
            rec = run_open_loop(HubbardSystem(model, pulse, LatticeNumerics(dt=dt)))
            J = rec.channels["current"]
            dJ = (J[2:] - J[:-2]) / (2 * dt)
            return np.max(np.abs(dJ - rec.channels["y"][1:-1]))

        r1, r2 = residual(0.01), residual(0.005)
        assert r1 / r2 > 3.5
