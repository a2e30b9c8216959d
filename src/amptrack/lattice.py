"""Driven Fermi-Hubbard rings by exact diagonalization.

Fixed-particle-number sector bases as per-spin occupation bitmasks,
sparse hop matrices with fermionic wrap signs, Lanczos ground states,
short-iterate Krylov propagation with a midpoint-frozen Peierls phase,
and the current, kinetic and commutator observables that enter the
lattice control law.

Operator conventions, with T+ the bare forward-hop sum over sites and
spins (site j to j+1 around the ring):

    H(Phi) = -t0 (e^{+iPhi} T+ + e^{-iPhi} T+^dag) + U sum_j n_up n_down
    J(Phi) = +i a t0 (e^{+iPhi} T+ - e^{-iPhi} T+^dag)

so dJ/dPhi = a H_kin, and with dPhi/dt = -a E(t) the Ehrenfest rate of
the current is d<J>/dt = -a^2 E <H_kin> + i<[H, J]>.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix

from . import feedback
from .exceptions import ConvergenceError, StepSizeError
from .pulses import PulseSpec, evaluate_tl_field

__all__ = ["LatticeModel", "LatticeNumerics", "HubbardSystem"]

_GROUND_STATE_SEED = 20240801


@dataclass(frozen=True)
class LatticeModel:
    """Hubbard ring: hopping t0, interaction u, lattice spacing a, L sites.

    Energies are in units of t0 and lengths in units of a when the
    dimensionless internal parameterization is used; the boundary is
    always periodic and the wrap bond carries the same Peierls phase.
    """

    t0: float
    u: float
    a: float
    n_sites: int

    def __post_init__(self):
        for name in ("t0", "u", "a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if not self.a > 0:
            raise ValueError("a must be positive")
        if self.n_sites < 2 or int(self.n_sites) != self.n_sites:
            raise ValueError("n_sites must be an integer of at least 2")


def _occupation_states(n_sites: int, n_particles: int) -> np.ndarray:
    masks = [
        sum(1 << p for p in combo)
        for combo in itertools.combinations(range(n_sites), n_particles)
    ]
    return np.array(sorted(masks), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class _SectorBasis:
    """Ordered (N_up, N_down) occupation basis on an L-site ring.

    Product states are indexed as i = i_up * dim_down + i_down with each
    spin species enumerated by ascending bitmask value.
    """

    n_sites: int
    n_up: int
    n_down: int
    states_up: np.ndarray
    states_down: np.ndarray

    @property
    def dim_up(self) -> int:
        return self.states_up.size

    @property
    def dim_down(self) -> int:
        return self.states_down.size

    @property
    def dim(self) -> int:
        return self.dim_up * self.dim_down


@dataclass
class _ManyBodyState:
    """Amplitudes over a sector basis as a complex (dim_up, dim_down) matrix.

    ``phi`` is the accumulated Peierls phase the state was propagated
    with, and ``u_sum`` the running sum of held control samples; both are
    loop bookkeeping that lets a rerun reproduce the phase arithmetic of
    the original run exactly.
    """

    psi: np.ndarray
    phi: float = 0.0
    u_sum: float = 0.0


def _forward_hop_matrix(n_sites: int, states: np.ndarray) -> csr_matrix:
    # directed hop j -> j+1 mod L; the wrap bond picks up the parity of
    # the occupations strictly between the endpoints in site order
    index = {int(s): i for i, s in enumerate(states)}
    interior = ((1 << (n_sites - 1)) - 1) & ~1
    rows, cols, vals = [], [], []
    for c, s in enumerate(states):
        s = int(s)
        for j in range(n_sites):
            l = (j + 1) % n_sites
            bj, bl = 1 << j, 1 << l
            if s & bj and not s & bl:
                rows.append(index[(s ^ bj) | bl])
                cols.append(c)
                if j == n_sites - 1:
                    vals.append(-1.0 if bin(s & interior).count("1") % 2 else 1.0)
                else:
                    vals.append(1.0)
    n = states.size
    return csr_matrix(
        (np.array(vals), (np.array(rows, int), np.array(cols, int))), shape=(n, n)
    )


class _PhasedHamiltonian:
    """H(phi) with the hop phases folded into two per-spin sparse factors."""

    def __init__(self, ops, phi: float, t0: float, u: float):
        z = -t0 * np.exp(1j * phi)
        self.m_up = ops.phased_up(z)
        self.m_down = ops.phased_down(z)
        self.diag = u * ops.double_occ if u != 0.0 else None

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.m_up @ psi
        out += (self.m_down @ psi.T).T
        if self.diag is not None:
            out += self.diag * psi
        return out


class _PhasedHop:
    """hop z + hop^T conj(z) on the union sparsity pattern of hop and hop^T.

    ``hop`` is real, so one complex matrix hop + i hop^T carries the
    pattern and both value arrays without a cancellation.  They are fixed
    per sector, so a new phase costs two vector operations instead of
    sparse arithmetic.  The values equal those of the scipy sum entry by
    entry; on two sites, where both hops share every entry, a sum that
    cancels exactly stays as a stored zero, which the products do not see.
    """

    def __init__(self, hop: csr_matrix):
        pair = (hop + 1j * hop.T).tocsr()
        pair.sort_indices()
        self.fwd = pair.data.real.astype(complex)
        self.bwd = pair.data.imag.astype(complex)
        self.indices = pair.indices
        self.indptr = pair.indptr
        self.shape = pair.shape

    def __call__(self, z: complex) -> csr_matrix:
        data = self.fwd * z + self.bwd * np.conj(z)
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class _SectorOperators:
    """Precomputed sparse structure for one (L, N_up, N_down) sector."""

    def __init__(self, basis: _SectorBasis):
        L = basis.n_sites
        hop_up = _forward_hop_matrix(L, basis.states_up)
        hop_down = _forward_hop_matrix(L, basis.states_down)
        self.hop_up = hop_up.astype(complex)
        self.hop_down = hop_down.astype(complex)
        self.hop_up_t = self.hop_up.T.tocsr()
        self.hop_down_t = self.hop_down.T.tocsr()
        self.phased_up = _PhasedHop(hop_up)
        self.phased_down = _PhasedHop(hop_down)
        pop = np.array([bin(i).count("1") for i in range(1 << L)], dtype=np.int64)
        self.double_occ = pop[
            np.bitwise_and.outer(basis.states_up, basis.states_down)
        ].astype(float)

    def forward(self, psi: np.ndarray) -> np.ndarray:
        return self.hop_up @ psi + (self.hop_down @ psi.T).T

    def backward(self, psi: np.ndarray) -> np.ndarray:
        return self.hop_up_t @ psi + (self.hop_down_t @ psi.T).T

    def phased(self, phi: float, t0: float, u: float) -> _PhasedHamiltonian:
        return _PhasedHamiltonian(self, phi, t0, u)


_OPERATOR_CACHE: dict = {}


def _operators(basis: _SectorBasis) -> _SectorOperators:
    key = (basis.n_sites, basis.n_up, basis.n_down)
    ops = _OPERATOR_CACHE.get(key)
    if ops is None:
        ops = _SectorOperators(basis)
        _OPERATOR_CACHE[key] = ops
    return ops


def _real_vdot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a|b> for two complex arrays of one shape.

    Summed by numpy's einsum loop over the float views, not by BLAS, so
    the result is the same at any BLAS thread count and the call wakes
    no BLAS threads.
    """
    return float(np.einsum("i,i->", a.reshape(-1).view(float),
                           b.reshape(-1).view(float)))


def _lanczos(V: np.ndarray, hop: _PhasedHamiltonian, shape: tuple):
    """Three-term Lanczos recurrence from the unit vector V[0].

    Yields after each step the tridiagonal coefficients so far (alphas,
    betas) and beta, the norm of the new residual.  Resuming fills the
    next row of V with the normalized residual; after the last row the
    generator stops without touching the coefficients.  There is no
    reorthogonalization.  Every state-sized operation is a numpy ufunc or
    ``_real_vdot``, never BLAS.
    """
    scratch = np.empty_like(V[0])
    alphas: list = []
    betas: list = []
    for m in range(len(V)):
        w = hop.apply(V[m].reshape(shape)).ravel()
        alpha = _real_vdot(V[m], w)
        np.subtract(w, np.multiply(V[m], alpha, out=scratch), out=w)
        if m > 0:
            np.subtract(w, np.multiply(V[m - 1], betas[-1], out=scratch), out=w)
        alphas.append(alpha)
        beta = math.sqrt(_real_vdot(w, w))
        yield alphas, betas, beta
        if m + 1 < len(V):
            betas.append(beta)
            np.divide(w, beta, out=V[m + 1])


def _combine(V: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_k coeff[k] V[k] over the first len(coeff) rows of V."""
    out = np.multiply(V[0], coeff[0])
    scratch = np.empty_like(out)
    for k in range(1, len(coeff)):
        out += np.multiply(V[k], coeff[k], out=scratch)
    return out


# Krylov dimension of a time step and of a ground-state restart (ARPACK's
# default ncv); error tolerance of a time step and the number of halvings
# an oversized step may take before it fails; restart budget and residual
# that end the ground-state iteration
_KRYLOV_DIM = 20
_KRYLOV_TOL = 1e-10
_MAX_HALVINGS = 6
_MAX_RESTARTS = 100
_GROUND_STATE_TOL = 1e-10


def _evolved(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """exp(-i T t) e_0 for the tridiagonal T = evecs diag(evals) evecs^T."""
    return evecs @ (np.exp(-1j * t * evals) * evecs[0, :])


def _krylov_apply(psi: np.ndarray, hop: _PhasedHamiltonian, dt: float):
    """exp(-i H dt) psi by short Lanczos recurrences.

    The recurrence stops at the first dimension whose error estimate
    beta |c_last| |t| for the time t left is below ``_KRYLOV_TOL``.  When
    the full ``_KRYLOV_DIM`` space misses it, the same tridiagonal matrix
    propagates over the longest halving t / 2^k that passes, and the
    recurrence restarts from the result for the rest (Expokit's step
    control, Sidje, ACM TOMS 24, 130 (1998)); past ``_MAX_HALVINGS`` a
    StepSizeError carries the residual.  There is no reorthogonalization;
    the step counts involved here are small enough that orthogonality
    loss stays far below the norm-drift budget (asserted by the
    conservation tests).
    """
    shape = psi.shape
    flat = psi.ravel()
    norm0 = math.sqrt(_real_vdot(flat, flat))
    if norm0 == 0.0:
        return psi.copy()
    V = np.empty((_KRYLOV_DIM, flat.size), dtype=complex)
    left = dt
    while True:
        np.divide(flat, norm0, out=V[0])
        tau = left
        for alphas, betas, beta in _lanczos(V, hop, shape):
            if beta < 1e-14 or len(betas) >= 2:
                evals, evecs = eigh_tridiagonal(alphas, betas)
                coeff = _evolved(evals, evecs, tau)
                err = beta * abs(coeff[-1]) * abs(tau)
                if err < _KRYLOV_TOL or beta < 1e-14:
                    break
        else:
            for _ in range(_MAX_HALVINGS):
                tau /= 2
                coeff = _evolved(evals, evecs, tau)
                err = beta * abs(coeff[-1]) * abs(tau)
                if err < _KRYLOV_TOL:
                    break
            else:
                raise StepSizeError(
                    f"Krylov residual {err:.3e} above {_KRYLOV_TOL:.1e} after "
                    f"{_MAX_HALVINGS} halvings of the step; reduce dt",
                    residual=err,
                )
        coeff *= norm0
        flat = _combine(V, coeff)
        left -= tau
        if left == 0.0:
            return flat.reshape(shape)
        norm0 = math.sqrt(_real_vdot(flat, flat))


@dataclass(frozen=True)
class LatticeNumerics:
    """Propagation grid of lattice runs; the Krylov step sizes itself."""

    dt: float = 0.005

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


class HubbardSystem:
    """Driven Hubbard ring exposed through the shared tracking protocol.

    The state lives in the sector of ``n_up`` and ``n_down`` particles,
    half filling of each spin by default; ``basis.dim`` is its dimension.

    The Peierls phase is accumulated causally: the smooth pulse part by
    the trapezoidal rule on the ``e_tl`` table of node samples, the
    control part by its zero-order hold.  Propagation over a step freezes
    the phase at the step midpoint.
    """

    channel_names = ("current", "kinetic", "phase")

    def __init__(
        self,
        model: LatticeModel,
        pulse: PulseSpec,
        numerics: LatticeNumerics | None = None,
        n_up: int | None = None,
        n_down: int | None = None,
    ):
        self.model = model
        self.pulse = pulse
        self.numerics = numerics if numerics is not None else LatticeNumerics()
        L = model.n_sites
        n_up = L // 2 if n_up is None else n_up
        n_down = L // 2 if n_down is None else n_down
        for n in (n_up, n_down):
            if not 0 <= n <= L:
                raise ValueError("particle numbers must lie in [0, n_sites]")
        self.basis = _SectorBasis(L, n_up, n_down, _occupation_states(L, n_up),
                                  _occupation_states(L, n_down))
        self.dt = self.numerics.dt
        self.n_steps = pulse.n_steps(self.dt)
        self.e_tl = evaluate_tl_field(self.dt * np.arange(self.n_steps + 1), pulse)
        self._phi_smooth = cumulative_trapezoid(self.e_tl, dx=self.dt, initial=0.0)
        self._c = model.a * model.a
        self.ground_energy: float | None = None

    def initial_state(self) -> _ManyBodyState:
        """Ground state of the field-free H in the sector; sets ``ground_energy``.

        Explicitly restarted Lanczos on the recurrence of the time step: each
        restart runs ``_KRYLOV_DIM`` steps from the lowest Ritz vector of the
        last, seeded at first with a fixed random vector.  It stops when
        ||H psi - E psi|| < 1e-10, or when beta < 1e-14, which makes the
        Krylov space invariant and the Ritz pair exact.  The returned state
        must satisfy ||H psi - E psi|| < 1e-8 or a ConvergenceError carrying
        the residual is raised.
        """
        basis = self.basis
        hop = _operators(basis).phased(0.0, self.model.t0, self.model.u)
        shape = (basis.dim_up, basis.dim_down)
        rng = np.random.default_rng(_GROUND_STATE_SEED)
        vec = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        V = np.empty((_KRYLOV_DIM, basis.dim), dtype=complex)
        for _ in range(_MAX_RESTARTS):
            np.divide(vec, math.sqrt(_real_vdot(vec, vec)), out=V[0])
            for alphas, betas, beta in _lanczos(V, hop, shape):
                if beta < 1e-14:
                    break
            evals, evecs = eigh_tridiagonal(alphas, betas)
            energy = float(evals[0])
            vec = _combine(V, evecs[:, 0])
            vec /= math.sqrt(_real_vdot(vec, vec))
            r = hop.apply(vec.reshape(shape)).ravel() - energy * vec
            residual = math.sqrt(_real_vdot(r, r))
            if residual < _GROUND_STATE_TOL or beta < 1e-14:
                break
        if not residual < 1e-8:
            raise ConvergenceError(
                f"ground-state residual {residual:.3e} above 1e-8", residual=residual
            )
        j = int(np.argmax(np.abs(vec)))
        vec *= np.conj(vec[j]) / abs(vec[j])
        self.ground_energy = energy
        return _ManyBodyState(vec.reshape(shape))

    def observables(self, state: _ManyBodyState) -> dict:
        # one forward hop pass feeds the current and the kinetic energy,
        # and a backward pass adds the commutator. The kinetic part
        # commutes with the current on a uniform ring (both are diagonal
        # in momentum), so i<[H,J]> reduces to the interaction term; the
        # equivalence with the general commutator of the Jordan-Wigner
        # matrices is a tested property.  With fwd = e^{+iPhi} T+ psi:
        # <H_kin> = -2 t0 Re<psi|fwd>, <J> = -2 a t0 Im<psi|fwd> where
        # Im<x|y> = Re<ix|y>, and J psi = i a t0 (fwd - bwd) turns
        # i<[H,J]> = 2U Im<J psi|D psi> into -2 U a t0 Re<fwd - bwd|D psi>.
        ops = _operators(self.basis)
        model = self.model
        psi = state.psi
        phase = np.exp(1j * state.phi)
        fwd = ops.forward(psi)
        fwd *= phase
        kin = -2.0 * model.t0 * _real_vdot(psi, fwd)
        cur = -2.0 * model.a * model.t0 * _real_vdot(1j * psi, fwd)
        if model.u != 0.0:
            bwd = ops.backward(psi)
            bwd *= np.conj(phase)
            comm = (-2.0 * model.u * model.a * model.t0
                    * _real_vdot(fwd - bwd, ops.double_occ * psi))
        else:
            comm = 0.0
        return {"current": cur, "kinetic": kin, "phase": state.phi, "comm": comm}

    def response(self, obs: dict, e_total: float) -> float:
        return -self._c * e_total * obs["kinetic"] + obs["comm"]

    def control(self, obs, e_tl: float, y: float, cfg, u_prev: float):
        # the field enters the rate through -a^2 E <H_kin>
        rate = self.response(obs, e_tl)
        return feedback.control_field(rate, -self._c * obs["kinetic"], y, cfg, u_prev)

    def advance(self, state: _ManyBodyState, step: int, u: float) -> _ManyBodyState:
        u_sum = state.u_sum + u
        phi_new = -self.model.a * (
            self._phi_smooth[step + 1] + u_sum * self.dt
        )
        phi_mid = 0.5 * (state.phi + phi_new)
        hop = _operators(self.basis).phased(phi_mid, self.model.t0, self.model.u)
        psi = _krylov_apply(state.psi, hop, self.dt)
        return _ManyBodyState(psi, phi=phi_new, u_sum=u_sum)
