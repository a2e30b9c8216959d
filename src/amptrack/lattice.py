"""Driven Fermi-Hubbard rings by exact diagonalization.

Momentum blocks of fixed-particle-number sectors, built from the
translation orbits of per-spin occupation bitmasks; sparse forward-hop
blocks with fermionic wrap signs; Lanczos ground states scanned over the
blocks; short-iterate Krylov propagation with a midpoint-frozen Peierls
phase; and the current, kinetic and commutator observables that enter
the lattice control law.

Operator conventions, with T+ the bare forward-hop sum over sites and
spins (site j to j+1 around the ring):

    H(Phi) = -t0 (e^{+iPhi} T+ + e^{-iPhi} T+^dag) + U sum_j n_up n_down
    J(Phi) = +i a t0 (e^{+iPhi} T+ - e^{-iPhi} T+^dag)

so dJ/dPhi = a H_kin, and with dPhi/dt = -a E(t) the Ehrenfest rate of
the current is d<J>/dt = -a^2 E <H_kin> + i<[H, J]>.

The translation T c+_j T^-1 = c+_{j+1 mod L} commutes with H(Phi), J and
the interaction, so a state stays in its block K = 2 pi k / L, on which
T acts as e^{iK}.  Product states are c+ strings in ascending site order,
up spins before down spins (the Jordan-Wigner order).  T maps one to
another times the wrap sign (-1)^(N_sigma - 1) of each spin that has a
particle on site L-1.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import lapack
from scipy.sparse import coo_matrix, csr_matrix

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
        if not isinstance(self.n_sites, numbers.Integral):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 2:
            raise ValueError("n_sites must be at least 2")


def _occupation_states(n_sites: int, n_particles: int) -> np.ndarray:
    masks = [
        sum(1 << p for p in combo)
        for combo in itertools.combinations(range(n_sites), n_particles)
    ]
    return np.array(sorted(masks), dtype=np.int64)


def _translation(n_sites: int, n_particles: int, states: np.ndarray):
    """Index of T s among ``states``, and the sign of T|s> = sign |T s>.

    A particle leaving site L-1 is re-created on site 0, in front of the
    other n - 1 creators of its spin: the wrap sign (-1)^(n-1).
    """
    top = 1 << (n_sites - 1)
    shifted = ((states << 1) & ((top << 1) - 1)) | (states >> (n_sites - 1))
    wrap = ((states & top) != 0) & (n_particles % 2 == 0)
    return np.searchsorted(states, shifted), np.where(wrap, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class _Orbits:
    """Translation orbits of the (N_up, N_down) product states.

    Product states are indexed as i = i_up * dim_down + i_down with each
    spin species enumerated by ascending bitmask value; both spins move
    together.  ``rep[i]`` is the smallest index on the orbit of i, and
    T^shift[i] |rep[i]> = sign[i] |i>.  The orbit has ``period[i]`` states
    R, and T^R |i> = period_sign[i] |i>.
    """

    states_up: np.ndarray
    states_down: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    sign: np.ndarray
    period: np.ndarray
    period_sign: np.ndarray


@functools.cache
def _orbits(n_sites: int, n_up: int, n_down: int) -> _Orbits:
    L = n_sites
    up, down = _occupation_states(L, n_up), _occupation_states(L, n_down)
    t_up, s_up = _translation(L, n_up, up)
    t_down, s_down = _translation(L, n_down, down)
    index = np.arange(up.size * down.size)
    i_up, i_down = np.divmod(index, down.size)
    rep = index.copy()
    back = np.zeros_like(index)
    back_sign = np.ones(index.size)
    period = np.full(index.size, L)
    period_sign = np.ones(index.size)
    sign = np.ones(index.size)
    # T^L is the identity: each particle wraps once, (-1)^(n (n-1)) = 1
    for r in range(1, L):
        sign *= s_up[i_up] * s_down[i_down]
        i_up, i_down = t_up[i_up], t_down[i_down]
        image = i_up * down.size + i_down
        lower = image < rep
        rep[lower] = image[lower]
        back[lower] = r
        back_sign[lower] = sign[lower]
        closed = (image == index) & (period == L)
        period[closed] = r
        period_sign[closed] = sign[closed]
    # T^r |i> = sign |rep> gives |i> = sign T^(L-r) |rep>
    return _Orbits(up, down, rep, (L - back) % L, back_sign, period, period_sign)


@dataclass(frozen=True, eq=False)
class _BlockBasis:
    """Momentum block K = 2 pi k / L of the (N_up, N_down) sector.

    Basis vector a is the normalised projection P_K|r_a>, with
    P_K = (1/L) sum_r e^{-iKr} T^r, of the representative r_a whose
    bitmasks are ``up[a]`` and ``down[a]``; T acts on it as e^{iK}.  The
    representatives are the orbits' smallest product states whose
    projection is nonzero, in ascending (up, down) order, and ``period[a]``
    is the length of r_a's orbit.
    """

    n_sites: int
    n_up: int
    n_down: int
    k: int
    up: np.ndarray
    down: np.ndarray
    period: np.ndarray

    @property
    def dim(self) -> int:
        return self.up.size


@functools.cache
def _block_basis(n_sites: int, n_up: int, n_down: int, k: int) -> _BlockBasis:
    orb = _orbits(n_sites, n_up, n_down)
    # P_K|r> != 0 iff e^{-iKR} T^R|r> = |r>: kR/L is an integer when
    # T^R|r> = |r> and a half-integer when T^R|r> = -|r>
    phase = (2 * k * orb.period) % (2 * n_sites)
    keep = (orb.rep == np.arange(orb.rep.size)) & (
        phase == np.where(orb.period_sign > 0, 0, n_sites))
    reps = np.flatnonzero(keep)
    i_up, i_down = np.divmod(reps, orb.states_down.size)
    return _BlockBasis(n_sites, n_up, n_down, k, orb.states_up[i_up],
                       orb.states_down[i_down], orb.period[reps])


@dataclass
class _ManyBodyState:
    """Amplitudes over a block basis as a complex vector.

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


def _block_phases(n_sites: int, k: int) -> np.ndarray:
    """e^{iKl} for l = 0..L-1, exactly +-1 on the real blocks K = 0 and pi."""
    m = (k * np.arange(n_sites)) % n_sites
    if (2 * k) % n_sites == 0:
        return np.where(m == 0, 1.0, -1.0)
    return np.exp(2j * np.pi * m / n_sites)


def _block_hop(basis: _BlockBasis) -> csr_matrix:
    """Forward-hop block T_K, from sparse column gathers and one COO sum.

    A hop takes representative a to a product state b = T^l r_b (up to its
    sign), so <r_b K|T|a K> sums h_ba sign_b e^{iKl} sqrt(R_a / R_b) over
    the hops from a that land on r_b's orbit (Sandvik, arXiv:1101.3281,
    section 4).  A hop onto an orbit that has no state in the block
    projects to zero and is dropped.
    """
    L = basis.n_sites
    orb = _orbits(L, basis.n_up, basis.n_down)
    width = orb.states_down.size
    i_up = np.searchsorted(orb.states_up, basis.up)
    i_down = np.searchsorted(orb.states_down, basis.down)
    hop_up = _forward_hop_matrix(L, orb.states_up)[:, i_up].tocoo()
    hop_down = _forward_hop_matrix(L, orb.states_down)[:, i_down].tocoo()
    target = np.concatenate([
        hop_up.row.astype(np.int64) * width + i_down[hop_up.col],
        i_up[hop_down.col] * width + hop_down.row,
    ])
    col = np.concatenate([hop_up.col, hop_down.col])
    position = np.full(orb.rep.size, -1)
    position[i_up * width + i_down] = np.arange(basis.dim)
    row = position[orb.rep[target]]
    inside = row >= 0
    target, col, row = target[inside], col[inside], row[inside]
    value = (np.concatenate([hop_up.data, hop_down.data])[inside]
             * orb.sign[target] * _block_phases(L, basis.k)[orb.shift[target]]
             * np.sqrt(basis.period[col] / orb.period[target]))
    hop = coo_matrix((value, (row, col)), shape=(basis.dim, basis.dim)).tocsr()
    hop.eliminate_zeros()
    return hop


class _PhasedHop:
    """z T + conj(z) T^H + u D as one sparse matrix on a fixed pattern.

    The pattern is the union of those of T, T^H and the diagonal, and the
    values of each term are stored on it separately.  A call writes
    fwd z + bwd conj(z) + u occ into the data of one matrix built on the
    pattern at construction, so a new phase costs a few vector operations
    and no sparse arithmetic or allocation of a matrix, and one H apply is
    one sparse product.  An entry that two terms share holds their sum.
    Every call returns that same matrix: the next call overwrites it.
    """

    def __init__(self, hop: csr_matrix, double_occ: np.ndarray):
        n = hop.shape[0]
        entries = hop.tocoo()
        row = entries.row.astype(np.int64)
        col = entries.col.astype(np.int64)
        fwd_key, bwd_key = row * n + col, col * n + row
        diag_key = np.arange(n, dtype=np.int64) * (n + 1)
        keys = np.unique(np.concatenate([fwd_key, bwd_key, diag_key]))
        rows, cols = np.divmod(keys, n)
        self.fwd = np.zeros(keys.size, dtype=complex)
        self.fwd[np.searchsorted(keys, fwd_key)] = entries.data
        self.bwd = np.zeros(keys.size, dtype=complex)
        self.bwd[np.searchsorted(keys, bwd_key)] = np.conj(entries.data)
        self.occ = np.zeros(keys.size)
        self.occ[np.searchsorted(keys, diag_key)] = double_occ
        indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        self._matrix = csr_matrix(
            (np.zeros(keys.size, dtype=complex), cols.astype(np.int32), indptr),
            shape=(n, n))

    def __call__(self, z: complex, u: float) -> csr_matrix:
        data = self._matrix.data
        np.multiply(self.fwd, z, out=data)
        data += self.bwd * np.conj(z)
        data += u * self.occ
        return self._matrix


class _BlockOperators:
    """Forward hop, its adjoint and the double occupancy of one block."""

    def __init__(self, basis: _BlockBasis):
        hop = _block_hop(basis)
        self.hop = hop.astype(complex)
        self.hop_h = self.hop.conj().T.tocsr()
        self.double_occ = np.bitwise_count(basis.up & basis.down).astype(float)
        self._phased = _PhasedHop(hop, self.double_occ)

    def phased(self, phi: float, t0: float, u: float) -> csr_matrix:
        """H(phi) of the block, in a matrix that the next call rewrites."""
        return self._phased(-t0 * np.exp(1j * phi), u)


# operators of the blocks that systems work in; the ground-state scan
# builds those of the other blocks without keeping them
_OPERATOR_CACHE: dict = {}


def _operators(basis: _BlockBasis) -> _BlockOperators:
    ops = _OPERATOR_CACHE.get(basis)
    if ops is None:
        ops = _OPERATOR_CACHE[basis] = _BlockOperators(basis)
    return ops


def _real_vdot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a|b> for two complex vectors of one length.

    Summed by numpy's einsum loop over the float views, not by BLAS, so
    the result is the same at any BLAS thread count and the call wakes
    no BLAS threads.
    """
    return float(np.einsum("i,i->", a.view(float), b.view(float)))


def _lanczos(V: np.ndarray, hop: csr_matrix):
    """Three-term Lanczos recurrence from the unit vector V[0].

    Yields after each step the tridiagonal coefficients so far (alphas,
    betas) and beta, the norm of the new residual.  Resuming fills the
    next row of V with the normalized residual; after the last row the
    generator stops without touching the coefficients.  There is no
    reorthogonalization.  Every state-sized operation is a sparse product,
    a numpy ufunc or ``_real_vdot``, never BLAS.  A coefficient that is
    not finite raises ConvergenceError before it reaches the eigensolver.
    """
    scratch = np.empty_like(V[0])
    alphas: list = []
    betas: list = []
    for m in range(len(V)):
        w = hop @ V[m]
        alpha = _real_vdot(V[m], w)
        np.subtract(w, np.multiply(V[m], alpha, out=scratch), out=w)
        if m > 0:
            np.subtract(w, np.multiply(V[m - 1], betas[-1], out=scratch), out=w)
        alphas.append(alpha)
        beta = math.sqrt(_real_vdot(w, w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ConvergenceError(
                "Lanczos coefficients are not finite: the state or the "
                "Peierls phase is not finite")
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


def _tridiagonal_eigh(alphas: list, betas: list):
    """Eigenvalues and eigenvectors of the symmetric tridiagonal (alphas, betas).

    LAPACK ``dstevd`` called directly: the driver and the bits of
    ``scipy.linalg.eigh_tridiagonal`` for a full spectrum, without its
    per-call input checks, which cost several times the solve at these
    sizes.  The coefficients come from ``_lanczos``, which has checked
    that they are finite.  A 1x1 matrix is its own eigenpair.
    """
    if not betas:
        return np.array(alphas), np.ones((1, 1))
    evals, evecs, info = lapack.dstevd(alphas, betas, compute_v=1)
    if info:
        raise ConvergenceError(f"tridiagonal eigensolver dstevd failed, info {info}")
    return evals, evecs


def _evolved(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """exp(-i T t) e_0 for the tridiagonal T = evecs diag(evals) evecs^T."""
    return evecs @ (np.exp(-1j * t * evals) * evecs[0, :])


def _krylov_apply(psi: np.ndarray, hop: csr_matrix, dt: float):
    """exp(-i H dt) psi by short Lanczos recurrences.

    The recurrence stops at the first dimension whose error estimate
    beta |c_last| |t| for the time t left is below ``_KRYLOV_TOL``; the
    estimate and the coefficients come from ``_tridiagonal_eigh``, LAPACK
    ``dstevd`` on the recurrence's tridiagonal matrix.  When the full
    ``_KRYLOV_DIM`` space misses it, the same tridiagonal matrix
    propagates over the longest halving t / 2^k that passes, and the
    recurrence restarts from the result for the rest (Expokit's step
    control, Sidje, ACM TOMS 24, 130 (1998)); past ``_MAX_HALVINGS`` a
    StepSizeError carries the residual.  A state or an H that is not
    finite raises ConvergenceError from the recurrence.  There is no
    reorthogonalization; the step counts involved here are small enough
    that orthogonality loss stays far below the norm-drift budget
    (asserted by the conservation tests).
    """
    norm0 = math.sqrt(_real_vdot(psi, psi))
    if norm0 == 0.0:
        return psi.copy()
    V = np.empty((_KRYLOV_DIM, psi.size), dtype=complex)
    left = dt
    while True:
        np.divide(psi, norm0, out=V[0])
        tau = left
        for alphas, betas, beta in _lanczos(V, hop):
            if beta < 1e-14 or len(betas) >= 2:
                evals, evecs = _tridiagonal_eigh(alphas, betas)
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
        psi = _combine(V, coeff)
        left -= tau
        if left == 0.0:
            return psi
        norm0 = math.sqrt(_real_vdot(psi, psi))


@dataclass(frozen=True)
class LatticeNumerics:
    """Propagation grid of lattice runs; the Krylov step sizes itself."""

    dt: float = 0.005

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def _ground_state(hop: csr_matrix):
    """Lowest eigenpair of the Hermitian ``hop`` by restarted Lanczos.

    Explicitly restarted on the recurrence of the time step: each restart
    runs ``_KRYLOV_DIM`` steps from the lowest Ritz vector of the last,
    seeded at first with a fixed random vector.  It stops when
    ||H psi - E psi|| < 1e-10, or when beta < 1e-14, which makes the
    Krylov space invariant and the Ritz pair exact.  The returned vector
    must satisfy ||H psi - E psi|| < 1e-8 or a ConvergenceError carrying
    the residual is raised.
    """
    dim = hop.shape[0]
    rng = np.random.default_rng(_GROUND_STATE_SEED)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    V = np.empty((_KRYLOV_DIM, dim), dtype=complex)
    for _ in range(_MAX_RESTARTS):
        np.divide(vec, math.sqrt(_real_vdot(vec, vec)), out=V[0])
        for alphas, betas, beta in _lanczos(V, hop):
            if beta < 1e-14:
                break
        evals, evecs = _tridiagonal_eigh(alphas, betas)
        energy = float(evals[0])
        vec = _combine(V, evecs[:, 0])
        vec /= math.sqrt(_real_vdot(vec, vec))
        r = hop @ vec - energy * vec
        residual = math.sqrt(_real_vdot(r, r))
        if residual < _GROUND_STATE_TOL or beta < 1e-14:
            break
    if not residual < 1e-8:
        raise ConvergenceError(
            f"ground-state residual {residual:.3e} above 1e-8", residual=residual
        )
    j = int(np.argmax(np.abs(vec)))
    vec *= np.conj(vec[j]) / abs(vec[j])
    return energy, vec


def _block_name(n_sites: int, k: int) -> str:
    if k == 0:
        return "K = 0"
    if 2 * k == n_sites:
        return "K = pi"
    return f"K = 2pi*{k}/{n_sites}"


class HubbardSystem:
    """Driven Hubbard ring exposed through the shared tracking protocol.

    The state lives in one momentum block of the sector of ``n_up`` and
    ``n_down`` particles, half filling of each spin by default: the block
    of the field-free ground state, which ``initial_state`` picks.  Until
    then ``basis`` is the K = 0 block.  ``basis.dim`` is the block's
    dimension.

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
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"particle numbers must be integers, got {n!r}")
            if not 0 <= n <= L:
                raise ValueError("particle numbers must lie in [0, n_sites]")
        self.basis = _block_basis(L, int(n_up), int(n_down), 0)
        self.dt = self.numerics.dt
        self.n_steps = pulse.n_steps(self.dt)
        self.e_tl = evaluate_tl_field(self.dt * np.arange(self.n_steps + 1), pulse)
        self._phi_smooth = cumulative_trapezoid(self.e_tl, dx=self.dt, initial=0.0)
        self._c = model.a * model.a
        self.ground_energy: float | None = None
        self._ground: np.ndarray | None = None

    def initial_state(self) -> _ManyBodyState:
        """Ground state of the field-free H; sets ``ground_energy`` and ``basis``.

        The first call solves every block K = 2 pi k / L, k = 0..L/2, with
        ``_ground_state`` and keeps the lowest; K and -K share a spectrum,
        since H and T are real in the occupation basis.  Later calls return
        a copy of that state.  A sector whose ground state is not unique
        raises ValueError: its lowest level lies at a K other than 0 or pi,
        whose -K twin is degenerate with it, or two blocks' lowest levels
        agree to 1e-8.
        """
        if self._ground is None:
            self._ground = self._solve_ground_state()
        return _ManyBodyState(self._ground.copy())

    def _solve_ground_state(self) -> np.ndarray:
        L, n_up, n_down = self.basis.n_sites, self.basis.n_up, self.basis.n_down
        levels = []
        for k in range(L // 2 + 1):
            basis = _block_basis(L, n_up, n_down, k)
            if basis.dim:
                ops = _OPERATOR_CACHE.get(basis) or _BlockOperators(basis)
                hop = ops.phased(0.0, self.model.t0, self.model.u)
                levels.append((*_ground_state(hop), basis))
        levels.sort(key=lambda level: level[0])
        energy, vec, basis = levels[0]
        sector = f"sector (L={L}, N_up={n_up}, N_down={n_down})"
        if (2 * basis.k) % L:
            raise ValueError(
                f"{sector} has no unique ground state: its lowest level "
                f"{energy:.10g} lies in block {_block_name(L, basis.k)} and "
                f"in its twin {_block_name(L, L - basis.k)}")
        if len(levels) > 1 and levels[1][0] - energy < 1e-8:
            raise ValueError(
                f"{sector} has no unique ground state: blocks "
                f"{_block_name(L, basis.k)} and {_block_name(L, levels[1][2].k)} "
                f"share the lowest level {energy:.10g} to 1e-8")
        self.basis = basis
        self.ground_energy = energy
        return vec

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
        fwd = ops.hop @ psi
        fwd *= phase
        kin = -2.0 * model.t0 * _real_vdot(psi, fwd)
        cur = -2.0 * model.a * model.t0 * _real_vdot(1j * psi, fwd)
        if model.u != 0.0:
            bwd = ops.hop_h @ psi
            bwd *= np.conj(phase)
            comm = (-2.0 * model.u * model.a * model.t0
                    * _real_vdot(fwd - bwd, ops.double_occ * psi))
        else:
            comm = 0.0
        return {"current": cur, "kinetic": kin, "phase": state.phi, "comm": comm}

    def response(self, obs: dict, e_total: float) -> float:
        return -self._c * e_total * obs["kinetic"] + obs["comm"]

    def control(self, obs, e_tl: float, y: float, cfg):
        # the field enters the rate through -a^2 E <H_kin>
        rate = self.response(obs, e_tl)
        return feedback.control_field(rate, -self._c * obs["kinetic"], y, cfg)

    def advance(self, state: _ManyBodyState, step: int, u: float) -> _ManyBodyState:
        u_sum = state.u_sum + u
        phi_new = -self.model.a * (
            self._phi_smooth[step + 1] + u_sum * self.dt
        )
        phi_mid = 0.5 * (state.phi + phi_new)
        hop = _operators(self.basis).phased(phi_mid, self.model.t0, self.model.u)
        psi = _krylov_apply(state.psi, hop, self.dt)
        return _ManyBodyState(psi, phi=phi_new, u_sum=u_sum)
