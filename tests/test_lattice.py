import functools
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh, eigh_tridiagonal, expm
from scipy.sparse import csr_matrix, diags

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
    _block_basis,
    _krylov_apply,
    _ManyBodyState,
    _operators,
    _tridiagonal_eigh,
)

def model_for(L, u=0.0, t0=1.0, a=1.0):
    return LatticeModel(t0=t0, u=u, a=a, n_sites=L)


def ring(model, n_up=None, n_down=None, pulse=None, numerics=None, k=None):
    """A HubbardSystem on the (n_up, n_down) sector, field-free by default.

    With ``k`` given, the system works in the block K = 2 pi k / L in place
    of the K = 0 block it holds until ``initial_state`` picks one.
    """
    pulse = pulse or PulseSpec(e0=0.0, omega0=1.0, cycles=1)
    system = HubbardSystem(model, pulse, numerics, n_up=n_up, n_down=n_down)
    if k is not None:
        b = system.basis
        system.basis = _block_basis(b.n_sites, b.n_up, b.n_down, k)
    return system


def random_state(basis, seed=0, phi=0.0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)
    return _ManyBodyState(psi, phi=phi)


def hamiltonian(basis, model, phi):
    """H(phi) of the propagator, the operator ``HubbardSystem.advance`` uses."""
    return _operators(basis).phased(phi, model.t0, model.u)


def module_dense(basis, model, phi):
    return hamiltonian(basis, model, phi).toarray()


# ---------------------------------------------------------------------------
# independent oracle: full-Fock-space operators from raw Jordan-Wigner strings
# (mode order: up modes are bits 0..L-1, down modes bits L..2L-1), restricted
# to the (N_up, N_down) sector, and the momentum blocks embedded in it through
# a projector built from the Jordan-Wigner translation


@functools.cache
def jw_annihilators(n_modes):
    dim = 1 << n_modes
    ops = []
    for m in range(n_modes):
        string = (1 << m) - 1
        cols = [s for s in range(dim) if s & (1 << m)]
        signs = [-1.0 if bin(s & string).count("1") % 2 else 1.0 for s in cols]
        rows = [s ^ (1 << m) for s in cols]
        ops.append(csr_matrix((signs, (rows, cols)), shape=(dim, dim)))
    return ops


def sector_states(L, n_up, n_down):
    """Fock indices of the sector's product states, ascending."""
    return sorted(
        sum(1 << p for p in ups) | (sum(1 << p for p in downs) << L)
        for ups in itertools.combinations(range(L), n_up)
        for downs in itertools.combinations(range(L), n_down)
    )


def jw_sector_parts(L, n_up, n_down):
    """Forward-hop sum, double occupancy and translation T in the sector.

    T is the unitary with T c+_j T^-1 = c+_{j+1 mod L} for both spins: it
    maps c+_{m1} ... c+_{mN}|0> (modes ascending) to the product of the
    translated creators on the vacuum.
    """
    c = jw_annihilators(2 * L)
    cdag = [m.T.tocsr() for m in c]
    dim = 1 << (2 * L)
    K = csr_matrix((dim, dim))
    W = csr_matrix((dim, dim))
    for j in range(L):
        l = (j + 1) % L
        for spin_offset in (0, L):
            K = K + cdag[l + spin_offset] @ c[j + spin_offset]
        W = W + cdag[j] @ c[j] @ cdag[j + L] @ c[j + L]
    cols = sector_states(L, n_up, n_down)
    shifted = [(m // L) * L + (m % L + 1) % L for m in range(2 * L)]
    vacuum = np.zeros(dim)
    vacuum[0] = 1.0
    T = np.zeros((dim, len(cols)))
    for i, s in enumerate(cols):
        v = vacuum
        for m in reversed([m for m in range(2 * L) if s & (1 << m)]):
            v = cdag[shifted[m]] @ v
        T[:, i] = v
    return K[cols][:, cols].toarray(), W[cols][:, cols].toarray(), T[cols, :]


def jw_embedding(basis, T):
    """Sector vectors of the block basis: normalised P_K|r> per representative."""
    L = basis.n_sites
    index = {s: i for i, s in enumerate(sector_states(L, basis.n_up, basis.n_down))}
    K = 2.0 * np.pi * basis.k / L
    powers = [np.eye(T.shape[0])]
    for _ in range(L - 1):
        powers.append(T @ powers[-1])
    E = np.zeros((T.shape[0], basis.dim), dtype=complex)
    for a in range(basis.dim):
        r = index[int(basis.up[a]) | (int(basis.down[a]) << L)]
        col = sum(np.exp(-1j * K * n) * powers[n][:, r] for n in range(L)) / L
        E[:, a] = col / np.linalg.norm(col)
    return E


def jw_sector_matrices(parts, model, phi):
    K, W = parts[0], parts[1]
    fwd = np.exp(1j * phi)
    H = -model.t0 * (fwd * K + np.conj(fwd) * K.T) + model.u * W
    J = (1j * model.a * model.t0) * (fwd * K - np.conj(fwd) * K.T)
    return H, J


class Embedded:
    """A system's block, embedded in its Jordan-Wigner sector."""

    def __init__(self, system):
        b = system.basis
        self.parts = jw_sector_parts(b.n_sites, b.n_up, b.n_down)
        self.E = jw_embedding(b, self.parts[2])

    def vector(self, state):
        return self.E @ state.psi

    def matrices(self, model, phi):
        return jw_sector_matrices(self.parts, model, phi)

    def expectations(self, model, state):
        """<J>, <H_kin> and i<[H, J]> of the state from the JW matrices."""
        H, J = self.matrices(model, state.phi)
        H_kin, _ = self.matrices(
            model_for(model.n_sites, t0=model.t0, a=model.a), state.phi)
        v = self.vector(state)
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
        b = ring(model_for(L), n_up, n_down).basis
        assert sum(_block_basis(L, b.n_up, b.n_down, k).dim for k in range(L)) == dim

    @pytest.mark.parametrize(
        "L,n_up,n_down,dim",
        [(2, 1, 1, 2), (4, 2, 2, 10), (10, 5, 5, 6352), (3, 2, 1, 3),
         (6, None, None, 68)],
    )
    def test_k0_block_dimensions(self, L, n_up, n_down, dim):
        assert ring(model_for(L), n_up, n_down).basis.dim == dim

    @pytest.mark.parametrize("L", range(2, 9))
    def test_blocks_partition_the_sector(self, L):
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                dims = [_block_basis(L, n_up, n_down, k).dim for k in range(L)]
                assert sum(dims) == math.comb(L, n_up) * math.comb(L, n_down)

    @pytest.mark.parametrize("L", range(2, 7))
    def test_embedding_is_orthonormal_eigenbasis_of_translation(self, L):
        for n_up in range(L + 1):
            for n_down in range(L + 1):
                T = jw_sector_parts(L, n_up, n_down)[2]
                np.testing.assert_allclose(T.T @ T, np.eye(T.shape[0]), atol=1e-12)
                for k in range(L):
                    basis = _block_basis(L, n_up, n_down, k)
                    E = jw_embedding(basis, T)
                    np.testing.assert_allclose(E.conj().T @ E, np.eye(basis.dim),
                                               atol=1e-12)
                    np.testing.assert_allclose(
                        T @ E, np.exp(2j * np.pi * k / L) * E, atol=1e-12)

    def test_ordering_is_ascending_bitmasks(self):
        basis = ring(model_for(5), 2, 3).basis
        key = basis.up * (1 << 5) + basis.down
        assert np.all(np.diff(key) > 0)

    def test_rejects_bad_occupations(self):
        with pytest.raises(ValueError, match="particle numbers"):
            ring(model_for(4), 5, 2)
        with pytest.raises(ValueError, match="particle numbers"):
            ring(model_for(4), -1, 2)

    @pytest.mark.parametrize("n_up,n_down", [(1.5, 2), (2, 2.0), (2, "2")])
    def test_rejects_non_integer_fillings(self, n_up, n_down):
        with pytest.raises(ValueError, match="particle numbers must be integers"):
            ring(model_for(4), n_up, n_down)

    @pytest.mark.parametrize("n_sites,message", [
        (6.0, "n_sites must be an integer, got 6.0"),
        ("6", "n_sites must be an integer, got '6'"),
        (1, "n_sites must be at least 2"),
    ])
    def test_rejects_bad_site_count(self, n_sites, message):
        # a float count is the model's fault, not the fillings'
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeModel(t0=1.0, u=1.0, a=1.0, n_sites=n_sites)


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
        for k in range(L):
            system = ring(model, n_up, n_down, k=k)
            embedded = Embedded(system)
            H_ref, _ = embedded.matrices(model, phi)
            E = embedded.E
            H = module_dense(system.basis, model, phi)
            np.testing.assert_allclose(H, E.conj().T @ H_ref @ E, atol=1e-12)
            state = random_state(system.basis, 3, phi=phi)
            got = system.observables(state)
            for name, want in embedded.expectations(model, state).items():
                assert got[name] == pytest.approx(want, abs=1e-12), name

    def test_two_site_single_fermion_band(self):
        model = model_for(2)
        levels = [np.linalg.eigvalsh(module_dense(ring(model, 1, 0, k=k).basis,
                                                  model, 0.0)) for k in (0, 1)]
        np.testing.assert_allclose(np.sort(np.concatenate(levels)), [-2.0, 2.0],
                                   atol=1e-12)

    def test_interaction_diagonal(self):
        for k in (0, 1):
            basis = ring(model_for(2), 1, 1, k=k).basis
            H = module_dense(basis, model_for(2, u=5.0), 0.0)
            H0 = module_dense(basis, model_for(2), 0.0)
            occ = [bin(int(up) & int(down)).count("1")
                   for up, down in zip(basis.up, basis.down)]
            np.testing.assert_allclose(H - H0, 5.0 * np.diag(occ), atol=1e-12)

    def test_hermiticity_on_random_states(self):
        model = model_for(4, u=3.0)
        for k in range(4):
            basis = ring(model, k=k).basis
            for phi in (0.0, 0.9, -2.4):
                a, b = random_state(basis, 1), random_state(basis, 2)
                hop = hamiltonian(basis, model, phi)
                lhs = np.vdot(b.psi, hop @ a.psi)
                rhs = np.conj(np.vdot(a.psi, hop @ b.psi))
                assert abs(lhs - rhs) < 1e-12

    def test_expectations_are_real(self):
        model = model_for(4, u=2.0)
        basis = ring(model).basis
        state = random_state(basis, 5)
        h_psi = hamiltonian(basis, model, 0.7) @ state.psi
        assert abs(np.vdot(state.psi, h_psi).imag) < 1e-12


class TestPhasedFactors:
    @pytest.mark.parametrize("L", range(2, 9))
    def test_equal_to_scipy_sum(self, L):
        # the fixed-pattern H against z T + conj(z) T^H + u D by scipy
        # sparse arithmetic, for every block of every filling and five
        # phases; L = 2 has forward and backward hops on the same entries
        for n in range(L + 1):
            for k in range(L):
                ops = _operators(_block_basis(L, n, L - n, k))
                for phi in (0.0, 0.3, -1.1, 0.5 * math.pi, 2.9):
                    z = -1.3 * np.exp(1j * phi)
                    for u in (0.0, 2.5):
                        want = (ops.hop * z + ops.hop_h * np.conj(z)
                                + diags(u * ops.double_occ)).tocsr()
                        got = ops.phased(phi, 1.3, u)
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
        phi = 0.61
        for k in (0, 1):
            system = ring(model, k=k)
            embedded = Embedded(system)
            H_ref, J_ref = embedded.matrices(model, phi)
            state = random_state(system.basis, 9, phi=phi)
            v = embedded.vector(state)
            want = (1j * (v.conj() @ (H_ref @ J_ref - J_ref @ H_ref) @ v)).real
            got = system.observables(state)["comm"]
            assert got == pytest.approx(want, abs=1e-10)

    def test_commutator_vanishes_without_interaction(self):
        # hopping and current are both diagonal in momentum on the ring
        model = model_for(4, u=0.0)
        system = ring(model)
        state = random_state(system.basis, 11, phi=0.3)
        assert abs(Embedded(system).expectations(model, state)["comm"]) < 1e-12
        assert system.observables(state)["comm"] == 0.0

    def test_loop_commutator_shortcut_equals_general_form(self):
        model = model_for(4, u=7.0, a=1.4)
        pulse = PulseSpec(e0=1.0, omega0=4.43, cycles=2)
        for k in range(4):
            system = ring(model, pulse=pulse, k=k)
            state = random_state(system.basis, 13, phi=-0.52)
            obs = system.observables(state)
            assert obs["comm"] == pytest.approx(
                Embedded(system).expectations(model, state)["comm"], abs=1e-12
            )

    def test_commutator_zero_on_eigenstate(self):
        system = ring(model_for(4, u=5.0))
        gs = system.initial_state()
        assert abs(system.observables(gs)["comm"]) < 1e-9


class TestGroundStates:
    # blocks of dimension 1 and 2 end the recurrence on an invariant
    # Krylov space; (6, 3, 3) has a block of dimension 68 and restarts
    @pytest.mark.parametrize("n_sites, n_up, n_down", [
        (2, 1, 0), (2, 1, 1), (3, 1, 0), (4, 1, 0), (4, 2, 2), (6, 3, 3)])
    def test_matches_dense_at_strong_coupling(self, n_sites, n_up, n_down):
        model = model_for(n_sites, u=10.0)
        system = ring(model, n_up, n_down)
        gs = system.initial_state()
        energy = system.ground_energy
        embedded = Embedded(system)
        H_full, _ = embedded.matrices(model, 0.0)
        e_dense = eigh(H_full, eigvals_only=True)[0]
        assert energy == pytest.approx(e_dense, abs=1e-8)
        h_psi = hamiltonian(system.basis, model, 0.0) @ gs.psi
        assert np.linalg.norm(h_psi - energy * gs.psi) < 1e-8
        v = embedded.vector(gs)
        assert np.linalg.norm(H_full @ v - e_dense * v) < 1e-8
        if (n_sites, n_up, n_down) == (4, 2, 2):
            assert system.basis.k == 2  # K = pi

    @pytest.mark.parametrize("L,n_up,n_down,u,blocks", [
        (3, 2, 1, 10.0, ("K = 2pi*1/3", "K = 2pi*2/3")),
        (4, 2, 2, 0.0, ("K = 0", "K = pi")),
    ])
    def test_degenerate_sector_fails_closed(self, L, n_up, n_down, u, blocks):
        system = ring(model_for(L, u=u), n_up, n_down)
        with pytest.raises(ValueError, match="no unique ground state") as exc:
            system.initial_state()
        message = str(exc.value)
        assert f"sector (L={L}, N_up={n_up}, N_down={n_down})" in message
        assert all(block in message for block in blocks)
        assert system.ground_energy is None

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

    def test_repeated_call_returns_a_copy(self):
        system = ring(model_for(4, u=4.0))
        a = system.initial_state()
        b = system.initial_state()
        np.testing.assert_array_equal(a.psi, b.psi)
        assert a is not b and a.psi is not b.psi
        a.psi[:] = 0.0
        assert np.linalg.norm(system.initial_state().psi) == pytest.approx(1.0)

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
        embedded = Embedded(system)
        psi_dense = embedded.vector(state)
        max_dev = 0.0
        for i in range(system.n_steps):
            stepped = system.advance(state, i, 0.0)
            phi_mid = 0.5 * (state.phi + stepped.phi)
            H_mid, _ = embedded.matrices(model, phi_mid)
            psi_dense = expm(-1j * system.dt * H_mid) @ psi_dense
            state = stepped
            dev = np.max(np.abs(embedded.vector(state) - psi_dense))
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
        e_start = float(np.vdot(psi, hop @ psi).real)
        for _ in range(10000):
            psi = _krylov_apply(psi, hop, 0.005)
        assert abs(float(np.vdot(psi, hop @ psi).real) - e_start) < 1e-8

    def test_subspace_exhaustion_raises(self):
        # ||H|| = 32 on this block: even dt / 2^6 = 1.6 is far beyond what
        # 20 Lanczos vectors resolve, so the step fails with its residual
        model = model_for(6, u=10.0)
        basis = ring(model).basis
        psi = random_state(basis, 33).psi
        with pytest.raises(StepSizeError, match="reduce dt") as exc:
            _krylov_apply(psi, hamiltonian(basis, model, 0.0), 100.0)
        assert exc.value.residual > 1e-10

    def test_advance_subdivides_oversized_steps(self):
        # one step of dt 2 or 20 (||H|| dt = 63 and 630) is split inside
        # the Krylov space and still matches the dense exponential; the
        # six-site blocks (dimension 66 and 68) exceed the 20 Lanczos
        # vectors, which the four-site ones (8 and 10) do not
        model = model_for(6, u=10.0)
        pulse = PulseSpec(e0=2.61, omega0=0.3, cycles=1)
        for dt in (2.0, 20.0):
            for k in range(6):
                system = ring(model, pulse=pulse, numerics=LatticeNumerics(dt=dt),
                              k=k)
                embedded = Embedded(system)
                state = random_state(system.basis, 34)
                stepped = system.advance(state, 0, 0.1)
                phi_mid = 0.5 * (state.phi + stepped.phi)
                assert phi_mid != 0.0
                H_mid, _ = embedded.matrices(model, phi_mid)
                psi_dense = expm(-1j * dt * H_mid) @ embedded.vector(state)
                assert np.max(np.abs(embedded.vector(stepped) - psi_dense)) < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_control_fails_as_numerical(self, u):
        # a non-finite u makes the Peierls phase, and so every entry of
        # H, NaN: a numerical failure (exit 3), not a step size to reduce
        system = ring(model_for(4, u=3.0))
        state = system.initial_state()
        with pytest.raises(ConvergenceError, match="not finite"):
            system.advance(state, 0, u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_fails_as_numerical(self):
        model = model_for(4, u=3.0)
        basis = ring(model).basis
        psi = random_state(basis, 35).psi
        psi[2] = complex(math.nan, 0.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            _krylov_apply(psi, hamiltonian(basis, model, 0.2), 0.005)

    def test_systems_sharing_operators_step_independently(self):
        # U/t0 = 10 and U/t0 = 1 on one six-site block share the cached
        # operators, whose H(phi) matrix every advance rewrites in place;
        # stepped alternately, each keeps the bits it has when stepped alone
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=1)
        systems = [HubbardSystem(model_for(6, u=u), pulse) for u in (10.0, 1.0)]
        starts = [system.initial_state() for system in systems]
        assert systems[0].basis is systems[1].basis
        assert _operators(systems[0].basis) is _operators(systems[1].basis)

        def step(system, state, i):
            return system.advance(state, i, 0.3 * math.sin(0.1 * i))

        alone = []
        for system, state in zip(systems, starts):
            for i in range(50):
                state = step(system, state, i)
            alone.append(state.psi)
        states = list(starts)
        for i in range(50):
            states = [step(system, state, i)
                      for system, state in zip(systems, states)]
        for state, want in zip(states, alone):
            np.testing.assert_array_equal(state.psi, want)


class TestTridiagonalEigh:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_matches_scipy(self, m):
        rng = np.random.default_rng(100 + m)
        alphas = list(rng.standard_normal(m))
        betas = list(np.abs(rng.standard_normal(m - 1)))
        evals, evecs = _tridiagonal_eigh(alphas, betas)
        want_evals, want_evecs = eigh_tridiagonal(alphas, betas)
        np.testing.assert_allclose(evals, want_evals, rtol=0, atol=1e-13)
        np.testing.assert_allclose(evecs, want_evecs, rtol=0, atol=1e-13)

    def test_lapack_failure_raises(self, monkeypatch):
        def dstevd(d, e, compute_v=1):
            n = len(d)
            return np.zeros(n), np.zeros((n, n)), 1

        monkeypatch.setattr(lattice.lapack, "dstevd", dstevd)
        with pytest.raises(ConvergenceError, match="dstevd"):
            _tridiagonal_eigh([1.0, 2.0], [0.5])


_THREAD_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from amptrack import HubbardSystem, LatticeModel, PulseSpec
    from amptrack.lattice import _ManyBodyState

    system = HubbardSystem(LatticeModel(t0=1.0, u=4.0, a=1.0, n_sites=10),
                           PulseSpec(e0=2.61, omega0=4.43, cycles=1))
    digest = hashlib.sha256()
    ground = system.initial_state()
    digest.update(repr(system.ground_energy).encode())
    digest.update(ground.psi.tobytes())
    rng = np.random.default_rng(5)
    dim = system.basis.dim
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = _ManyBodyState(psi / np.sqrt(np.sum(np.abs(psi) ** 2)))
    for step in range(5):
        obs = system.observables(state)
        digest.update(repr(sorted(obs.items())).encode())
        state = system.advance(state, step, 0.7)
    digest.update(state.psi.tobytes())
    print(digest.hexdigest())
""")


class TestThreadIndependence:
    def test_ten_site_steps_do_not_depend_on_blas_threads(self):
        # the ground-state scan and five observables + advance steps on
        # the ten-site ring (K = 0 block, dim 6 352) from a seeded state,
        # hashed, in one process per BLAS thread count
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
