import dataclasses
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
    NumericalError,
    PulseSpec,
    evaluate_tl_field,
    lattice,
)
from amptrack.config import build_system, parse_config
from amptrack.feedback import run_open_loop
from amptrack.lattice import (
    HubbardSystem,
    LatticeNumerics,
    _block_basis,
    _block_hop,
    _BlockOperators,
    _ground_space,
    _krylov_apply,
    _ManyBodyState,
    _operators,
    _orbits,
    _space,
    _tridiagonal_eigh,
)

def ring(L, u=0.0, n_up=None, n_down=None, pulse=None, numerics=None, k=None):
    """An L-site HubbardSystem on the (n_up, n_down) sector, field-free by default.

    With ``k`` given, the system works in the whole block K = 2 pi k / L in
    place of the K = 0 block it holds until ``initial_state`` picks one.
    """
    pulse = pulse or PulseSpec(e0=0.0, omega0=1.0, cycles=1)
    system = HubbardSystem(L, u, pulse, numerics, n_up=n_up, n_down=n_down)
    if k is not None:
        b = system.basis.block
        system.basis = block_space(b.n_sites, b.n_up, b.n_down, k)
    return system


def block_space(L, n_up, n_down, k, parity=0):
    """The space of the given parity on block K = 2 pi k / L; 0 is the block."""
    return _space(_block_basis(L, n_up, n_down, k), parity)


def block_masks(block):
    """The up and down occupation bitmasks of a block's representatives."""
    orb = _orbits(block.n_sites, block.n_up, block.n_down)
    i_up, i_down = np.divmod(block.reps, orb.states_down.size)
    return orb.states_up[i_up], orb.states_down[i_down]


def random_state(basis, seed=0, phi=0.0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)
    return _ManyBodyState(psi, phi=phi)


def hamiltonian(basis, u, phi):
    """H(phi) of the propagator, the operator ``HubbardSystem.advance`` uses."""
    return _operators(basis).at(phi, u)


def dense(h):
    """The matrix of the operator ``h``, one apply per column."""
    n = h.shape[0]
    return np.array([h @ e for e in np.eye(n, dtype=complex)]).reshape(n, n).T


def module_dense(basis, u, phi):
    return dense(hamiltonian(basis, u, phi))


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


def jw_mode_map(L, n_up, n_down, image):
    """The unitary c+_m -> c+_{image[m]} from the (n_up, n_down) sector.

    It maps c+_{m1} ... c+_{mN}|0> (modes ascending) to the product of the
    mapped creators on the vacuum, as a full-Fock-by-sector matrix.
    """
    cdag = [m.T.tocsr() for m in jw_annihilators(2 * L)]
    vacuum = np.zeros(1 << (2 * L))
    vacuum[0] = 1.0
    cols = sector_states(L, n_up, n_down)
    U = np.zeros((vacuum.size, len(cols)))
    for i, s in enumerate(cols):
        v = vacuum
        for m in reversed([m for m in range(2 * L) if s & (1 << m)]):
            v = cdag[image[m]] @ v
        U[:, i] = v
    return U


def jw_sector_parts(L, n_up, n_down):
    """Forward-hop sum, double occupancy and translation T in the sector.

    T is the unitary with T c+_j T^-1 = c+_{j+1 mod L} for both spins.
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
    T = jw_mode_map(L, n_up, n_down, shifted)
    return K[cols][:, cols].toarray(), W[cols][:, cols].toarray(), T[cols, :]


def jw_spin_flip(L, n):
    """The spin flip F, c+_{j up} <-> c+_{j down}, in the sector (n, n).

    Moving the swapped creators back into up-before-down order makes
    F|ups, downs> = (-1)^(n n) |downs, ups>, which is checked here.
    """
    cols = sector_states(L, n, n)
    F = jw_mode_map(L, n, n, [(m + L) % (2 * L) for m in range(2 * L)])[cols, :]
    mask = (1 << L) - 1
    swap = [cols.index((s >> L) | ((s & mask) << L)) for s in cols]
    np.testing.assert_array_equal(F, (-1.0) ** (n * n) * np.eye(len(cols))[swap].T)
    return F


def jw_embedding(space, T):
    """Sector vectors of a space: E_K Q, with E_K the normalised P_K|r> per
    representative of the space's block and Q the space's isometry."""
    block = space.block
    L = block.n_sites
    index = {s: i for i, s in enumerate(sector_states(L, block.n_up, block.n_down))}
    K = 2.0 * np.pi * block.k / L
    powers = [np.eye(T.shape[0])]
    for _ in range(L - 1):
        powers.append(T @ powers[-1])
    E = np.zeros((T.shape[0], block.dim), dtype=complex)
    for a, (up, down) in enumerate(zip(*block_masks(block))):
        r = index[int(up) | (int(down) << L)]
        col = sum(np.exp(-1j * K * n) * powers[n][:, r] for n in range(L)) / L
        E[:, a] = col / np.linalg.norm(col)
    return E @ space.q.toarray()


def jw_sector_matrices(parts, u, phi, t0=1.0, a=1.0):
    K, W = parts[0], parts[1]
    fwd = np.exp(1j * phi)
    H = -t0 * (fwd * K + np.conj(fwd) * K.T) + u * W
    J = (1j * a * t0) * (fwd * K - np.conj(fwd) * K.T)
    return H, J


class Embedded:
    """A system's space, embedded in its Jordan-Wigner sector."""

    def __init__(self, system):
        b = system.basis.block
        self.u = system.u
        self.parts = jw_sector_parts(b.n_sites, b.n_up, b.n_down)
        self.E = jw_embedding(system.basis, self.parts[2])

    def vector(self, state):
        return self.E @ state.psi

    def matrices(self, phi):
        """H(phi) and J(phi) of the system's interaction, t0 = a = 1."""
        return jw_sector_matrices(self.parts, self.u, phi)

    def expectations(self, state):
        """<J>, <H_kin> and i<[H, J]> of the state from the JW matrices."""
        H, J = self.matrices(state.phi)
        H_kin, _ = jw_sector_matrices(self.parts, 0.0, state.phi)
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
        b = ring(L, n_up=n_up, n_down=n_down).basis.block
        assert sum(_block_basis(L, b.n_up, b.n_down, k).dim for k in range(L)) == dim

    @pytest.mark.parametrize(
        "L,n_up,n_down,dim",
        [(2, 1, 1, 2), (4, 2, 2, 10), (10, 5, 5, 6352), (3, 2, 1, 3),
         (6, None, None, 68)],
    )
    def test_k0_block_dimensions(self, L, n_up, n_down, dim):
        assert ring(L, n_up=n_up, n_down=n_down).basis.dim == dim

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
                    space = block_space(L, n_up, n_down, k)
                    E = jw_embedding(space, T)
                    np.testing.assert_allclose(E.conj().T @ E, np.eye(space.dim),
                                               atol=1e-12)
                    np.testing.assert_allclose(
                        T @ E, np.exp(2j * np.pi * k / L) * E, atol=1e-12)

    @pytest.mark.parametrize("L", range(2, 7))
    def test_parity_halves_are_orthonormal_eigenbases(self, L):
        # E_K Q_p of each half, from the program's orbit arithmetic,
        # against T and F built from Jordan-Wigner creators
        for n in range(L + 1):
            T = jw_sector_parts(L, n, n)[2]
            F = jw_spin_flip(L, n)
            for k in range(L):
                halves = [block_space(L, n, n, k, p) for p in (1, -1)]
                assert sum(h.dim for h in halves) == _block_basis(L, n, n, k).dim
                for p, half in zip((1, -1), halves):
                    E = jw_embedding(half, T)
                    np.testing.assert_allclose(E.conj().T @ E, np.eye(half.dim),
                                               atol=1e-12)
                    np.testing.assert_allclose(
                        T @ E, np.exp(2j * np.pi * k / L) * E, atol=1e-12)
                    np.testing.assert_allclose(F @ E, p * E, atol=1e-12)

    def test_ten_site_k0_halves(self):
        assert [block_space(10, 5, 5, 0, p).dim for p in (1, -1)] == [3150, 3202]
        for u in (10.0, 1.0):
            system = ring(10, u)
            system.initial_state()
            assert system.basis is block_space(10, 5, 5, 0, -1)

    def test_ordering_is_ascending_bitmasks(self):
        up, down = block_masks(ring(5, n_up=2, n_down=3).basis.block)
        key = up * (1 << 5) + down
        assert np.all(np.diff(key) > 0)

    def test_rejects_bad_occupations(self):
        with pytest.raises(ValueError, match=r"^n_up must lie in \[0, 4\], got 5$"):
            ring(4, n_up=5, n_down=2)
        with pytest.raises(ValueError, match=r"^n_up must lie in \[0, 4\], got -1$"):
            ring(4, n_up=-1, n_down=2)

    @pytest.mark.parametrize("n_up,n_down,message", [
        (1.5, 2, "n_up must be an integer, got 1.5"),
        (2, 2.0, "n_down must be an integer, got 2.0"),
        (2, "2", "n_down must be an integer, got '2'"),
    ], ids=["1.5-2", "2-2.0", "2-2"])
    def test_rejects_non_integer_fillings(self, n_up, n_down, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ring(4, n_up=n_up, n_down=n_down)


class TestOperatorsAgainstJordanWigner:
    @pytest.mark.parametrize(
        "L,n_up,n_down,u,phi",
        [
            (2, 1, 1, 0.0, 0.0),
            (2, 1, 1, 4.0, 0.8),
            (3, 2, 1, 2.5, -0.37),
            (4, 2, 2, 10.0, 0.52),
            (4, 3, 2, 1.0, 2.1),
            (5, 3, 1, 3.0, -1.3),
            (6, 3, 3, 6.0, 0.9),
        ],
    )
    def test_hamiltonian_and_current_match(self, L, n_up, n_down, u, phi):
        # the program never applies J; its current, kinetic energy and
        # commutator enter only as the expectation values of observables()
        for k in range(L):
            system = ring(L, u, n_up, n_down, k=k)
            embedded = Embedded(system)
            H_ref, _ = embedded.matrices(phi)
            E = embedded.E
            H = module_dense(system.basis, u, phi)
            np.testing.assert_allclose(H, E.conj().T @ H_ref @ E, atol=1e-12)
            state = random_state(system.basis, 3, phi=phi)
            got = system.observables(state)
            for name, want in embedded.expectations(state).items():
                assert got[name] == pytest.approx(want, abs=1e-12), name

    def test_two_site_single_fermion_band(self):
        levels = [np.linalg.eigvalsh(module_dense(ring(2, 0.0, 1, 0, k=k).basis,
                                                  0.0, 0.0)) for k in (0, 1)]
        np.testing.assert_allclose(np.sort(np.concatenate(levels)), [-2.0, 2.0],
                                   atol=1e-12)

    def test_interaction_diagonal(self):
        for k in (0, 1):
            basis = ring(2, 0.0, 1, 1, k=k).basis
            H = module_dense(basis, 5.0, 0.0)
            H0 = module_dense(basis, 0.0, 0.0)
            occ = [bin(int(up) & int(down)).count("1")
                   for up, down in zip(*block_masks(basis.block))]
            np.testing.assert_allclose(H - H0, 5.0 * np.diag(occ), atol=1e-12)

    def test_hermiticity_on_random_states(self):
        for k in range(4):
            basis = ring(4, k=k).basis
            for phi in (0.0, 0.9, -2.4):
                a, b = random_state(basis, 1), random_state(basis, 2)
                hop = hamiltonian(basis, 3.0, phi)
                lhs = np.vdot(b.psi, hop @ a.psi)
                rhs = np.conj(np.vdot(a.psi, hop @ b.psi))
                assert abs(lhs - rhs) < 1e-12

    def test_expectations_are_real(self):
        basis = ring(4).basis
        state = random_state(basis, 5)
        h_psi = hamiltonian(basis, 2.0, 0.7) @ state.psi
        assert abs(np.vdot(state.psi, h_psi).imag) < 1e-12


class TestStackedApply:
    @pytest.mark.parametrize("L", range(2, 9))
    def test_equal_to_scipy_sum(self, L):
        # H(phi) applied through [T; T^H] against z T + conj(z) T^H + u D
        # by scipy sparse arithmetic, for every block of every filling and
        # five phases; L = 2 has forward and backward hops on the same
        # entries
        for n in range(L + 1):
            for k in range(L):
                space = block_space(L, n, L - n, k)
                hop = space.q.conj().T @ _block_hop(space.block) @ space.q
                for phi in (0.0, 0.3, -1.1, 0.5 * math.pi, 2.9):
                    z = -np.exp(1j * phi)
                    for u in (0.0, 2.5):
                        want = (hop * z + hop.conj().T * np.conj(z)
                                + diags(u * space.double_occ))
                        got = module_dense(space, u, phi)
                        np.testing.assert_array_equal(got, want.toarray())


class TestDerivativeAndCommutator:
    def test_current_differentiates_into_kinetic_term(self):
        # d<J>/dPhi = <H_kin>, checked by central finite difference
        system = ring(4, 6.0)
        phi, h = 0.43, 1e-5
        for seed in (1, 2, 3):
            psi = random_state(system.basis, seed).psi

            def observed(p):
                return system.observables(_ManyBodyState(psi, phi=p))

            slope = (observed(phi + h)["current"] - observed(phi - h)["current"]) / (2 * h)
            assert slope == pytest.approx(observed(phi)["kinetic"], abs=1e-8)

    def test_commutator_matches_dense_oracle(self):
        phi = 0.61
        for k in (0, 1):
            system = ring(2, 3.3, k=k)
            embedded = Embedded(system)
            H_ref, J_ref = embedded.matrices(phi)
            state = random_state(system.basis, 9, phi=phi)
            v = embedded.vector(state)
            want = (1j * (v.conj() @ (H_ref @ J_ref - J_ref @ H_ref) @ v)).real
            got = system.observables(state)["comm"]
            assert got == pytest.approx(want, abs=1e-10)

    def test_commutator_vanishes_without_interaction(self):
        # hopping and current are both diagonal in momentum on the ring
        system = ring(4)
        state = random_state(system.basis, 11, phi=0.3)
        assert abs(Embedded(system).expectations(state)["comm"]) < 1e-12
        assert system.observables(state)["comm"] == 0.0

    def test_loop_commutator_shortcut_equals_general_form(self):
        pulse = PulseSpec(e0=1.0, omega0=4.43, cycles=2)
        for k in range(4):
            system = ring(4, 7.0, pulse=pulse, k=k)
            state = random_state(system.basis, 13, phi=-0.52)
            obs = system.observables(state)
            assert obs["comm"] == pytest.approx(
                Embedded(system).expectations(state)["comm"], abs=1e-12
            )

    def test_commutator_zero_on_eigenstate(self):
        system = ring(4, 5.0)
        gs = system.initial_state()
        assert abs(system.observables(gs)["comm"]) < 1e-9


class TestGroundStates:
    # blocks of dimension 1 and 2 end the recurrence on an invariant
    # Krylov space; (6, 3, 3) has a block of dimension 68 and restarts
    @pytest.mark.parametrize("n_sites, n_up, n_down", [
        (2, 1, 0), (2, 1, 1), (3, 1, 0), (4, 1, 0), (4, 2, 2), (6, 3, 3)])
    def test_matches_dense_at_strong_coupling(self, n_sites, n_up, n_down):
        system = ring(n_sites, 10.0, n_up, n_down)
        gs = system.initial_state()
        energy = system.ground_energy
        embedded = Embedded(system)
        H_full, _ = embedded.matrices(0.0)
        e_dense = eigh(H_full, eigvals_only=True)[0]
        assert energy == pytest.approx(e_dense, abs=1e-8)
        h_psi = hamiltonian(system.basis, system.u, 0.0) @ gs.psi
        assert np.linalg.norm(h_psi - energy * gs.psi) < 1e-8
        v = embedded.vector(gs)
        assert np.linalg.norm(H_full @ v - e_dense * v) < 1e-8
        if (n_sites, n_up, n_down) == (4, 2, 2):
            assert system.basis.block.k == 2  # K = pi
        assert (system.basis.parity != 0) == (n_up == n_down)

    @pytest.mark.parametrize("L,n_up,n_down,u,blocks", [
        (3, 2, 1, 10.0, ("K = 2pi*1/3", "K = 2pi*2/3")),
        (4, 2, 2, 0.0, ("K = 0", "K = pi")),
    ])
    def test_degenerate_sector_fails_closed(self, L, n_up, n_down, u, blocks):
        system = ring(L, u, n_up, n_down)
        with pytest.raises(ValueError, match="no unique ground state") as exc:
            system.initial_state()
        message = str(exc.value)
        assert f"sector (L={L}, N_up={n_up}, N_down={n_down})" in message
        assert all(block in message for block in blocks)
        assert system.ground_energy is None

    def test_tie_margin_keeps_a_tied_block_in_the_scan(self):
        # K = 0 and K = 2pi*2/7 share the lowest level; without the 1e-8
        # margin on ``above`` the scan would drop the second block and
        # report a parity mixture in K = 0 in place of the tie
        system = HubbardSystem(7, 0.0, PulseSpec(0.1, 1.0, 1), n_up=2, n_down=2)
        with pytest.raises(ValueError) as exc:
            system.initial_state()
        assert str(exc.value) == (
            "sector (L=7, N_up=2, N_down=2) has no unique ground state: blocks "
            "K = 0 and K = 2pi*2/7 share the lowest level -6.493959207 to 1e-8")

    def test_parity_mixed_ground_state_fails_closed(self, monkeypatch):
        # an equal mixture of the two halves' lowest vectors has <F> = 0:
        # the block's lowest level would be degenerate across the parities
        block = _block_basis(6, 3, 3, 0)
        solve = lattice._ground_state
        lifted = []
        for p in (1, -1):
            half = _space(block, p)
            _, vec = solve(hamiltonian(half, 10.0, 0.0))
            lifted.append(half.q @ vec)
        mixture = (lifted[0] + lifted[1]) / math.sqrt(2)
        with pytest.raises(ValueError, match="no unique ground state") as exc:
            _ground_space(block, mixture)
        message = str(exc.value)
        assert "sector (L=6, N_up=3, N_down=3)" in message
        assert "block K = 0" in message
        assert "+1 and -1" in message
        for p, vec in zip((1, -1), lifted):
            half, psi = _ground_space(block, vec)
            assert half is _space(block, p)
            np.testing.assert_allclose(half.q @ psi, vec, atol=1e-14)

        # the scan enters every block once, in k order, and solves the
        # first, K = 0, in full; hand it the mixture as that block's lowest
        # level, which every later block then lies above
        def mixed_first(hop, above=math.inf):
            level = solve(hop, above)
            if not calls:
                level = (level[0] - 100.0, mixture)
            calls.append(hop.shape[0])
            return level

        calls = []
        monkeypatch.setattr(lattice, "_ground_state", mixed_first)
        system = ring(6, 10.0)
        with pytest.raises(ValueError, match="holds both spin-flip parities"):
            system.initial_state()
        assert system.ground_energy is None
        assert calls == [_block_basis(6, 3, 3, k).dim for k in range(4)]

    def test_projected_eigensolver_failure_raises(self, monkeypatch):
        def dsyevd(a):
            n = len(a)
            return np.zeros(n), np.zeros((n, n)), 3

        monkeypatch.setattr(lattice.lapack, "dsyevd", dsyevd)
        system = ring(6, 10.0)
        with pytest.raises(NumericalError,
                           match="^projected eigensolver dsyevd failed, info 3$"):
            system.initial_state()
        assert system.ground_energy is None

    def test_exhausted_restart_budget_raises(self, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_RESTARTS", 1)
        system = ring(6, 10.0)
        with pytest.raises(NumericalError, match="ground-state residual") as exc:
            system.initial_state()
        assert exc.value.residual > 1e-8
        assert system.ground_energy is None

    @pytest.mark.parametrize("u", [1.0, 10.0])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_every_block_matches_dense(self, L, u):
        # every filling and every K, degenerate lowest levels and blocks
        # smaller than the kept Ritz vectors included
        for n_up, n_down, k in itertools.product(range(L + 1), range(L + 1), range(L)):
            space = block_space(L, n_up, n_down, k)
            if not space.dim:
                continue
            h = hamiltonian(space, u, 0.0)
            energy, vec = lattice._ground_state(h)
            matrix = dense(h)
            where = (n_up, n_down, k)
            assert energy == pytest.approx(eigh(matrix, eigvals_only=True)[0],
                                           abs=1e-10), where
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12), where
            assert np.linalg.norm(matrix @ vec - energy * vec) < 1e-8, where

    @pytest.mark.parametrize("u", [1.0, 10.0])
    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_bound_stops_only_a_block_above_it(self, L, u):
        # a bound 1e-8 above the block's own lowest level changes no bit;
        # one below it stops every block too large to be invariant after
        # one pass
        for n_up, n_down, k in itertools.product(range(L + 1), range(L + 1), range(L)):
            space = block_space(L, n_up, n_down, k)
            if not space.dim:
                continue
            h = hamiltonian(space, u, 0.0)
            energy, vec = lattice._ground_state(h)
            where = (n_up, n_down, k)
            again, same = lattice._ground_state(h, energy + 1e-8)
            assert repr(again) == repr(energy), where
            np.testing.assert_array_equal(same, vec, err_msg=str(where))
            if space.dim > lattice._KRYLOV_DIM:
                assert lattice._ground_state(h, energy - 1e-3) is None, where

    def test_ten_site_scan_takes_few_h_products(self, monkeypatch):
        # both rings of the default experiment, every product of the scan
        # counted; solving every block to the full tolerance took 1 516,
        # ranking every block and then solving the lowest took 1 034, and
        # the one-pass scan takes 386
        apply = _BlockOperators.__matmul__
        products = []

        def counted(self, x):
            products.append(self.shape[0])
            return apply(self, x)

        monkeypatch.setattr(_BlockOperators, "__matmul__", counted)
        for u in (10.0, 1.0):
            ring(10, u).initial_state()
        assert 0 < len(products) <= 450

    def test_ten_site_scan_solves_one_block(self, monkeypatch):
        # every block enters the solver once, in k order; only the first,
        # K = 0, returns a level, and each later block stops at a pass
        # whose bound theta - |beta s_0| lies at least 1e-8 above it
        solve, lanczos = lattice._ground_state, lattice._lanczos
        dsyevd = lattice.lapack.dsyevd
        betas, bounds, calls = [], [], []

        def spied_lanczos(V, hop, arrow=()):
            for step in lanczos(V, hop, arrow):
                betas.append(step[2])
                yield step

        def spied_dsyevd(T):
            evals, S, info = dsyevd(T)
            bounds.append(evals[0] - abs(betas[-1] * S[-1, 0]))
            return evals, S, info

        def entered(hop, above=math.inf):
            bounds.clear()
            level = solve(hop, above)
            calls.append((hop.shape[0], level, bounds[-1]))
            return level

        monkeypatch.setattr(lattice, "_lanczos", spied_lanczos)
        monkeypatch.setattr(lattice.lapack, "dsyevd", spied_dsyevd)
        monkeypatch.setattr(lattice, "_ground_state", entered)
        for u in (10.0, 1.0):
            calls.clear()
            system = ring(10, u)
            system.initial_state()
            assert [dim for dim, _, _ in calls] == [
                _block_basis(10, 5, 5, k).dim for k in range(6)]
            assert system.basis.block.k == 0
            energy = system.ground_energy
            assert calls[0][1][0] == energy
            for _, level, bound in calls[1:]:
                assert level is None
                assert bound >= energy + 1e-8

    @pytest.mark.parametrize("u", [0.5, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_ranked_scan_matches_full_scan(self, L, u):
        # the oracle solves every block in full and keeps the lowest; the
        # scan, which stops a block once it lies 1e-8 above the lowest
        # level so far, must pick the same block and return the same bits,
        # or fail closed where the oracle finds no unique ground state
        half = L // 2
        fillings = {(half, half), (half, half - 1), (half + 1, half - 1),
                    (L - 1, 1), (1, 0)}
        for n_up, n_down in sorted(fillings):
            levels = []
            for k in range(half + 1):
                block = _block_basis(L, n_up, n_down, k)
                if block.dim:
                    h = lattice._field_free(_block_hop(block), block.double_occ, u)
                    levels.append((*lattice._ground_state(h), block))
            levels.sort(key=lambda level: level[0])
            energy, vec, block = levels[0]
            unique = (2 * block.k) % L == 0 and (
                len(levels) == 1 or levels[1][0] - energy >= 1e-8)
            try:
                space, psi = _ground_space(block, vec)
            except ValueError:
                unique = False
            system = ring(L, u, n_up, n_down)
            where = (n_up, n_down)
            if not unique:
                with pytest.raises(ValueError, match="no unique ground state"):
                    system.initial_state()
                continue
            state = system.initial_state()
            assert repr(system.ground_energy) == repr(energy), where
            assert system.basis is space, where
            np.testing.assert_array_equal(state.psi, psi, err_msg=str(where))

    def test_thick_restart_continues_the_recurrence(self, monkeypatch):
        # the second pass on a six-site block: _lanczos grows the basis
        # from the kept Ritz vectors and the residual, and H V = V T + beta
        # r e^T holds for the matrix T handed to the eigensolver: diag(theta),
        # the arrowhead and the recurrence's tridiagonal part.  Without
        # reorthogonalization the later rows lose orthogonality to the
        # converging Ritz vector (3e-6 by the last row here), so only the
        # restart block is orthonormal to 1e-12
        h = hamiltonian(block_space(6, 3, 3, 0), 10.0, 0.0)
        lanczos, dsyevd = lattice._lanczos, lattice.lapack.dsyevd
        bases, passes = [], []

        def spied_lanczos(V, hop, arrow=()):
            bases.append(V)
            return lanczos(V, hop, arrow)

        def spied_dsyevd(T):
            passes.append((T.copy(), bases[-1][:len(T) + 1].copy()))
            return dsyevd(T)

        monkeypatch.setattr(lattice, "_lanczos", spied_lanczos)
        monkeypatch.setattr(lattice.lapack, "dsyevd", spied_dsyevd)
        lattice._ground_state(h)
        assert len(passes) >= 2
        T, V = passes[1]
        n, kept = len(T), lattice._RITZ_KEPT
        assert n == lattice._KRYLOV_DIM
        pattern = np.eye(n, dtype=bool)
        pattern[kept, :kept] = pattern[:kept, kept] = True
        i = np.arange(kept, n - 1)
        pattern[i, i + 1] = pattern[i + 1, i] = True
        assert not np.any(T[~pattern])
        np.testing.assert_array_equal(T, T.T)
        np.testing.assert_allclose(np.diag(T)[:kept],
                                   np.linalg.eigvalsh(passes[0][0])[:kept],
                                   rtol=0, atol=1e-12)
        block = kept + 1
        restart = V[:block]
        np.testing.assert_allclose(restart.conj() @ restart.T, np.eye(block),
                                   rtol=0, atol=1e-12)
        HV = np.array([h @ v for v in V[:n]])
        np.testing.assert_allclose(restart.conj() @ HV[:block].T,
                                   T[:block, :block], rtol=0, atol=1e-12)
        residual = HV - T @ V[:n]
        np.testing.assert_allclose(residual[:-1], 0.0, rtol=0, atol=1e-12)
        beta = np.vdot(V[n], residual[-1])
        np.testing.assert_allclose(residual[-1], beta * V[n], rtol=0, atol=1e-12)

    def test_non_finite_hamiltonian_raises(self):
        # one NaN in a copy of the double occupancy: the cached operators
        # of the space must stay finite
        ops = _operators(block_space(6, 3, 3, 0))
        occ = ops.double_occ.copy()
        occ[occ.size // 2] = np.nan
        h = _BlockOperators(ops.stacked, occ, 0.0, 10.0)
        with pytest.raises(NumericalError, match="not finite"):
            lattice._ground_state(h)

    def test_free_fermion_band_sums(self):
        for L, n in ((10, 5), (6, 3)):
            system = ring(L, n_up=n, n_down=n)
            gs = system.initial_state()
            energy = system.ground_energy
            bands = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(L) / L))
            want = 2.0 * bands[:n].sum()
            assert energy == pytest.approx(want, abs=1e-8)
            assert system.observables(gs)["kinetic"] == pytest.approx(want, abs=1e-8)

    def test_ground_state_carries_no_current(self):
        system = ring(6, 4.0)
        gs = system.initial_state()
        assert abs(system.observables(gs)["current"]) < 1e-10

    def test_interaction_suppresses_kinetic_energy(self):
        values = []
        for u in (1.0, 5.0, 10.0):
            system = ring(6, u)
            gs = system.initial_state()
            values.append(abs(system.observables(gs)["kinetic"]))
        assert values[0] > values[1] > values[2]

    def test_deterministic(self):
        a = ring(6, 4.0).initial_state()
        b = ring(6, 4.0).initial_state()
        np.testing.assert_array_equal(a.psi, b.psi)

    def test_repeated_call_returns_a_copy(self):
        system = ring(4, 4.0)
        a = system.initial_state()
        b = system.initial_state()
        np.testing.assert_array_equal(a.psi, b.psi)
        assert a is not b and a.psi is not b.psi
        a.psi[:] = 0.0
        assert np.linalg.norm(system.initial_state().psi) == pytest.approx(1.0)

    def test_empty_sector(self):
        system = ring(4, 9.0, 0, 0)
        gs = system.initial_state()
        assert system.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert system.observables(gs)["kinetic"] == 0.0


class TestKrylovPropagation:
    def test_eigenstate_gets_global_phase(self):
        system = ring(4, 3.0, numerics=LatticeNumerics(dt=0.01))
        gs = system.initial_state()
        e0 = system.ground_energy
        stepped = system.advance(gs, 0, 0.0)
        overlap = np.vdot(gs.psi, stepped.psi)
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert -np.angle(overlap) / system.dt == pytest.approx(e0, abs=1e-9)

    def test_full_pulse_matches_dense_exponential(self):
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        system = HubbardSystem(4, 10.0, pulse, LatticeNumerics(dt=0.005))
        state = system.initial_state()
        embedded = Embedded(system)
        psi_dense = embedded.vector(state)
        max_dev = 0.0
        for i in range(system.n_steps):
            stepped = system.advance(state, i, 0.0)
            phi_mid = 0.5 * (state.phi + stepped.phi)
            H_mid, _ = embedded.matrices(phi_mid)
            psi_dense = expm(-1j * system.dt * H_mid) @ psi_dense
            state = stepped
            dev = np.max(np.abs(embedded.vector(state) - psi_dense))
            max_dev = max(max_dev, dev)
        assert max_dev < 1e-6

    def test_norm_drift(self):
        basis = ring(4).basis
        hop = hamiltonian(basis, 10.0, 0.28)
        psi = random_state(basis, 21).psi
        for _ in range(1000):
            psi = _krylov_apply(psi, hop, 0.005)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-11

    def test_energy_conserved_at_constant_phase(self):
        basis = ring(2).basis
        hop = hamiltonian(basis, 3.7, 0.3)
        psi = random_state(basis, 30).psi
        e_start = float(np.vdot(psi, hop @ psi).real)
        for _ in range(10000):
            psi = _krylov_apply(psi, hop, 0.005)
        assert abs(float(np.vdot(psi, hop @ psi).real) - e_start) < 1e-8

    def test_zero_vector_stays_zero(self):
        basis = ring(4).basis
        psi = np.zeros(basis.dim, dtype=complex)
        out = _krylov_apply(psi, hamiltonian(basis, 10.0, 0.28), 0.005)
        assert out is not psi
        assert not np.any(out)

    def test_subspace_exhaustion_raises(self):
        # ||H|| = 32 on this block: even dt / 2^6 = 1.6 is far beyond what
        # 20 Lanczos vectors resolve, so the step fails with its residual
        basis = ring(6).basis
        psi = random_state(basis, 33).psi
        with pytest.raises(NumericalError, match="reduce dt") as exc:
            _krylov_apply(psi, hamiltonian(basis, 10.0, 0.0), 100.0)
        assert exc.value.residual > 1e-10

    def test_advance_subdivides_oversized_steps(self):
        # one step of dt 2 or 20 (||H|| dt = 63 and 630) is split inside
        # the Krylov space and still matches the dense exponential; the
        # six-site blocks (dimension 66 and 68) exceed the 20 Lanczos
        # vectors, which the four-site ones (8 and 10) do not
        pulse = PulseSpec(e0=2.61, omega0=0.3, cycles=1)
        for dt in (2.0, 20.0):
            for k in range(6):
                system = ring(6, 10.0, pulse=pulse,
                              numerics=LatticeNumerics(dt=dt), k=k)
                embedded = Embedded(system)
                state = random_state(system.basis, 34)
                stepped = system.advance(state, 0, 0.1)
                phi_mid = 0.5 * (state.phi + stepped.phi)
                assert phi_mid != 0.0
                H_mid, _ = embedded.matrices(phi_mid)
                psi_dense = expm(-1j * dt * H_mid) @ embedded.vector(state)
                assert np.max(np.abs(embedded.vector(stepped) - psi_dense)) < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_control_fails_as_numerical(self, u):
        # a non-finite u makes the Peierls phase, and so every entry of
        # H, NaN: a numerical failure (exit 3), not a step size to reduce
        system = ring(4, 3.0)
        state = system.initial_state()
        with pytest.raises(NumericalError, match="not finite"):
            system.advance(state, 0, u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_fails_as_numerical(self):
        basis = ring(4).basis
        psi = random_state(basis, 35).psi
        psi[2] = complex(math.nan, 0.0)
        with pytest.raises(NumericalError, match="not finite"):
            _krylov_apply(psi, hamiltonian(basis, 3.0, 0.2), 0.005)

    def test_systems_sharing_operators_step_independently(self):
        # U/t0 = 10 and U/t0 = 1 on one six-site block share the cached
        # operators, from which every advance takes H at its own phase and
        # interaction; stepped alternately, each keeps the bits it has when
        # stepped alone
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=1)
        systems = [HubbardSystem(6, u, pulse) for u in (10.0, 1.0)]
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


    @pytest.mark.parametrize("n_sites", [6, 10])
    def test_parity_half_agrees_with_full_block(self, n_sites):
        # five steps in the ground state's half, lifted by Q, against the
        # same steps on the full K block's H(phi) from the lifted start
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=1)
        system = HubbardSystem(n_sites, 10.0, pulse)
        state = system.initial_state()
        half = system.basis
        full = half.q @ state.psi
        for i in range(5):
            stepped = system.advance(state, 100 + i, 0.3)
            phi_mid = 0.5 * (state.phi + stepped.phi)
            assert phi_mid != 0.0
            full = _krylov_apply(full, hamiltonian(_space(half.block, 0), system.u,
                                                   phi_mid), system.dt)
            state = stepped
        np.testing.assert_allclose(half.q @ state.psi, full, rtol=0, atol=1e-12)


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
        with pytest.raises(NumericalError, match="dstevd"):
            _tridiagonal_eigh([1.0, 2.0], [0.5])


_THREAD_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from amptrack import HubbardSystem, PulseSpec
    from amptrack.lattice import _ManyBodyState

    system = HubbardSystem(10, 4.0, PulseSpec(e0=2.61, omega0=4.43, cycles=1))
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


# the ground-state vectors of a six- and a ten-site ring, hashed
_GROUND_STATE_PROBE = textwrap.dedent("""
    import hashlib
    from amptrack import HubbardSystem, PulseSpec

    for n_sites in (6, 10):
        system = HubbardSystem(n_sites, 10.0, PulseSpec(e0=0.0, omega0=1.0, cycles=1))
        psi = system.initial_state().psi
        print(n_sites, hashlib.sha256(psi.tobytes()).hexdigest())
""")


def probe_digests(probe):
    """The output of ``probe`` in one process per BLAS thread count, 1 and 2."""
    src = str(Path(amptrack.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    return digests


class TestThreadIndependence:
    def test_ten_site_steps_do_not_depend_on_blas_threads(self):
        # the ground-state scan and five observables + advance steps on
        # the ten-site ring (the parity half of the K = 0 block, dim 3 202)
        # from a seeded state, hashed, in one process per BLAS thread count
        digests = probe_digests(_THREAD_PROBE)
        assert digests[0] == digests[1]

    def test_ground_states_do_not_depend_on_blas_threads(self):
        # the projected eigenproblem of each restart goes to LAPACK, which
        # calls BLAS
        digests = probe_digests(_GROUND_STATE_PROBE)
        assert digests[0] == digests[1]
        assert digests[0].count("\n") == 1


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped_ring(sites, role):
    """The ``role`` system of the shipped ring config on ``sites`` sites,
    at half filling."""
    cfg = parse_config(CONFIG_DIR / "hubbard_default.cfg")
    par = dataclasses.replace(cfg.hubbard, sites=sites, n_up=sites // 2,
                              n_down=sites // 2)
    return build_system(dataclasses.replace(cfg, hubbard=par), role)


TWO_CYCLES = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
PHASE_CASES = {
    "ten-site-reference": lambda: shipped_ring(10, "reference"),
    "ten-site-driven": lambda: shipped_ring(10, "driven"),
    "six-site-reference": lambda: shipped_ring(6, "reference"),
    "six-site-driven": lambda: shipped_ring(6, "driven"),
    "two-site": lambda: HubbardSystem(2, 8.0, TWO_CYCLES),
    "four-site": lambda: HubbardSystem(4, 8.0, TWO_CYCLES),
    # the pulse lasts 230.6 steps of 0.0123, so the last step overruns it
    "four-site-dt-0.0123": lambda: HubbardSystem(
        4, 8.0, TWO_CYCLES, LatticeNumerics(dt=0.0123)),
}


class TestReferenceRun:
    def test_zero_field_is_silent(self):
        pulse = PulseSpec(e0=0.0, omega0=4.43, cycles=1)
        rec = run_open_loop(HubbardSystem(4, 10.0, pulse))
        assert np.max(np.abs(rec.channels["y"])) < 1e-9
        assert np.max(np.abs(rec.channels["current"])) < 1e-9

    def test_target_starts_at_zero(self):
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)
        rec = run_open_loop(HubbardSystem(4, 8.0, pulse))
        assert rec.channels["y"][0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("case", PHASE_CASES)
    def test_phase_channel_reproduces_accumulator(self, case):
        system = PHASE_CASES[case]()
        # the smooth phase table is the trapezoid-rule integral of the
        # pulse on the propagation grid, bit for bit as scipy computes it
        t = system.dt * np.arange(system.n_steps + 1)
        want = cumulative_trapezoid(
            evaluate_tl_field(t, system.pulse), dx=system.dt, initial=0.0
        )
        assert system._phi_smooth.tobytes() == want.tobytes()
        # with no control the phase is minus that table
        rec = run_open_loop(system)
        np.testing.assert_array_equal(rec.channels["phase"], -want)

    def test_ehrenfest_residual_is_second_order(self):
        pulse = PulseSpec(e0=2.61, omega0=4.43, cycles=2)

        def residual(dt):
            rec = run_open_loop(HubbardSystem(4, 10.0, pulse, LatticeNumerics(dt=dt)))
            J = rec.channels["current"]
            dJ = (J[2:] - J[:-2]) / (2 * dt)
            return np.max(np.abs(dJ - rec.channels["y"][1:-1]))

        r1, r2 = residual(0.01), residual(0.005)
        assert r1 / r2 > 3.5
