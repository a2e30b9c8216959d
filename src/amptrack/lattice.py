"""Driven Fermi-Hubbard rings by exact diagonalization.

Momentum blocks of fixed-particle-number sectors, built from the
translation orbits of per-spin occupation bitmasks, and the one space
type a state lives in on a block: the whole block, or its spin-flip
parity half when N_up = N_down; sparse forward-hop blocks with
fermionic wrap signs; Lanczos ground states scanned over the blocks;
short-iterate Krylov propagation with a midpoint-frozen Peierls phase;
and the current, kinetic and commutator observables that enter the
lattice control law.

Operator conventions, with T+ the bare forward-hop sum over sites and
spins (site j to j+1 around the ring):

    H(Phi) = -(e^{+iPhi} T+ + e^{-iPhi} T+^dag) + U sum_j n_up n_down
    J(Phi) = +i (e^{+iPhi} T+ - e^{-iPhi} T+^dag)

in hopping units, t0 = a = 1, so dJ/dPhi = H_kin, and with
dPhi/dt = -E(t) the Ehrenfest rate of the current is
d<J>/dt = -E <H_kin> + i<[H, J]>.

The translation T c+_j T^-1 = c+_{j+1 mod L} commutes with H(Phi), J and
the interaction, so a state stays in its block K = 2 pi k / L, on which
T acts as e^{iK}.  Product states are c+ strings in ascending site order,
up spins before down spins (the Jordan-Wigner order).  T maps one to
another times the wrap sign (-1)^(N_sigma - 1) of each spin that has a
particle on site L-1.  At N_up = N_down the spin flip F, c+_{j up} <->
c+_{j down}, commutes with T, H(Phi), J and the interaction as well, so
the state also keeps its parity F = +-1.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import coo_matrix, csr_matrix, identity, vstack

from . import feedback
from .exceptions import NumericalError, _require, _require_int
from .pulses import PulseSpec, evaluate_tl_field

__all__ = ["LatticeNumerics", "HubbardSystem"]

_GROUND_STATE_SEED = 20240801


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
    P_K = (1/L) sum_r e^{-iKr} T^r, of the representative r_a, the
    product state of index ``reps[a]`` in the sector's ``_orbits``; T acts
    on it as e^{iK}.  The representatives are the orbits' smallest product
    states whose projection is nonzero, in ascending index order.
    """

    n_sites: int
    n_up: int
    n_down: int
    k: int
    reps: np.ndarray

    @property
    def dim(self) -> int:
        return self.reps.size

    @property
    def double_occ(self) -> np.ndarray:
        orb = _orbits(self.n_sites, self.n_up, self.n_down)
        i_up, i_down = np.divmod(self.reps, orb.states_down.size)
        return np.bitwise_count(orb.states_up[i_up] & orb.states_down[i_down]).astype(float)


@functools.cache
def _block_basis(n_sites: int, n_up: int, n_down: int, k: int) -> _BlockBasis:
    orb = _orbits(n_sites, n_up, n_down)
    # P_K|r> != 0 iff e^{-iKR} T^R|r> = |r>: kR/L is an integer when
    # T^R|r> = |r> and a half-integer when T^R|r> = -|r>
    phase = (2 * k * orb.period) % (2 * n_sites)
    keep = (orb.rep == np.arange(orb.rep.size)) & (
        phase == np.where(orb.period_sign > 0, 0, n_sites))
    return _BlockBasis(n_sites, n_up, n_down, k, np.flatnonzero(keep))


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
    # directed hop j -> j+1 mod L for every (state, bond) pair at once; the
    # wrap bond picks up the parity of the occupations strictly between the
    # endpoints in site order
    bond = np.arange(n_sites)
    src, dst = 1 << bond, 1 << ((bond + 1) % n_sites)
    col, j = np.nonzero((states[:, None] & src != 0) & (states[:, None] & dst == 0))
    s = states[col]
    interior = ((1 << (n_sites - 1)) - 1) & ~1
    odd = (j == n_sites - 1) & (np.bitwise_count(s & interior) % 2 == 1)
    n = states.size
    return csr_matrix((np.where(odd, -1.0, 1.0),
                       (np.searchsorted(states, (s ^ src[j]) | dst[j]), col)),
                      shape=(n, n))


def _block_phases(n_sites: int, k: int) -> np.ndarray:
    """e^{iKl} for l = 0..L-1, exactly +-1 on the real blocks K = 0 and pi."""
    m = (k * np.arange(n_sites)) % n_sites
    if (2 * k) % n_sites == 0:
        return np.where(m == 0, 1.0, -1.0)
    return np.exp(2j * np.pi * m / n_sites)


def _landing(basis: _BlockBasis, target: np.ndarray, col: np.ndarray):
    """Where the product states ``target``, reached from basis vectors
    ``col``, land on the block (Sandvik, arXiv:1101.3281, section 4).

    A product state b = sign T^l r_b projects onto the basis vector of r_b
    with the amplitude sign e^{iKl} sqrt(R_a / R_b) relative to the basis
    vector a it came from, R being the orbit lengths.  Returns the block
    row of r_b, -1 when b's orbit has no state in the block, and that
    factor.
    """
    orb = _orbits(basis.n_sites, basis.n_up, basis.n_down)
    position = np.full(orb.rep.size, -1)
    position[basis.reps] = np.arange(basis.dim)
    factor = (orb.sign[target] * _block_phases(basis.n_sites, basis.k)[orb.shift[target]]
              * np.sqrt(orb.period[basis.reps[col]] / orb.period[target]))
    return position[orb.rep[target]], factor


def _block_hop(basis: _BlockBasis) -> csr_matrix:
    """Forward-hop block T_K, from sparse column gathers and one COO sum.

    A hop h_ba from representative a lands on a product state b, which
    ``_landing`` places on the block, so <r_b K|T|a K> sums h_ba times
    b's factor over the hops from a that land on r_b's orbit.  A hop onto
    an orbit that has no state in the block projects to zero and is
    dropped.
    """
    orb = _orbits(basis.n_sites, basis.n_up, basis.n_down)
    width = orb.states_down.size
    i_up, i_down = np.divmod(basis.reps, width)
    hop_up = _forward_hop_matrix(basis.n_sites, orb.states_up)[:, i_up].tocoo()
    hop_down = _forward_hop_matrix(basis.n_sites, orb.states_down)[:, i_down].tocoo()
    target = np.concatenate([
        hop_up.row.astype(np.int64) * width + i_down[hop_up.col],
        i_up[hop_down.col] * width + hop_down.row,
    ])
    col = np.concatenate([hop_up.col, hop_down.col])
    row, factor = _landing(basis, target, col)
    value = np.concatenate([hop_up.data, hop_down.data]) * factor
    inside = row >= 0
    hop = coo_matrix((value[inside], (row[inside], col[inside])),
                     shape=(basis.dim, basis.dim)).tocsr()
    hop.eliminate_zeros()
    return hop


def _spin_flip(basis: _BlockBasis):
    """The spin flip F on a block with N_up = N_down: F|a> = c[a] |image[a]>.

    F swaps the spins, c+_{j up} <-> c+_{j down}, and commutes with T.  It
    takes representative (i_up, i_down) to the product state (i_down, i_up),
    which ``_landing`` places; reordering the swapped creators up before
    down multiplies that factor by (-1)^(N_up N_down).
    """
    width = _orbits(basis.n_sites, basis.n_up, basis.n_down).states_down.size
    i_up, i_down = np.divmod(basis.reps, width)
    image, c = _landing(basis, i_down * width + i_up, np.arange(basis.dim))
    if (basis.n_up * basis.n_down) % 2:
        c = -c
    return image, c


@dataclass(frozen=True, eq=False)
class _Space:
    """The space a ring's state lives in: the columns of the isometry ``q``
    on a momentum block.

    With ``parity`` 0, ``q`` is the identity and the space is the whole
    block.  With ``parity`` p = +-1, N_up = N_down and the space is the
    spin-flip parity half F = p: its columns are (|a> + p c_a |b>) / sqrt(2)
    for each pair a < b with F|a> = c_a |b>, and |a> for each a with F|a> =
    p |a>, in ascending a.  ``first[j]`` is the a of column j.  F swaps no
    site's double occupancy, so the interaction is diagonal on the columns,
    with the value of ``first``.
    """

    block: _BlockBasis
    parity: int
    q: csr_matrix
    first: np.ndarray

    @property
    def dim(self) -> int:
        return self.first.size

    @property
    def double_occ(self) -> np.ndarray:
        return self.block.double_occ[self.first]


@functools.cache
def _space(block: _BlockBasis, parity: int) -> _Space:
    if not parity:
        return _Space(block, 0, identity(block.dim, dtype=complex, format="csr"),
                      np.arange(block.dim))
    image, c = _spin_flip(block)
    a = np.arange(block.dim)
    # a fixed point has c_a = +-1, a real number up to the rounding of e^{iKl}
    first = np.flatnonzero((a < image) | ((a == image) & (parity * c.real > 0)))
    paired = np.flatnonzero(image[first] != first)
    scale = np.ones(first.size, dtype=complex)
    scale[paired] = math.sqrt(0.5)
    rows = np.concatenate([first, image[first[paired]]])
    cols = np.concatenate([np.arange(first.size), paired])
    values = np.concatenate([scale, parity * math.sqrt(0.5) * c[first[paired]]])
    q = csr_matrix((values, (rows, cols)), shape=(block.dim, first.size))
    return _Space(block, parity, q, first)


def _ground_space(block: _BlockBasis, psi: np.ndarray):
    """The space of ``block`` that holds its lowest vector ``psi``, and psi
    in that space.

    Off N_up = N_down that is the whole block.  At N_up = N_down it is a
    parity half: F commutes with H, so a nondegenerate lowest level has
    <psi|F|psi> = +-1.  Any other value means the level is degenerate
    across the two parities, and ValueError says so.
    """
    if block.n_up != block.n_down:
        return _space(block, 0), psi
    image, c = _spin_flip(block)
    flip = _real_vdot(psi[image], c * psi)
    if abs(abs(flip) - 1.0) > 1e-8:
        raise ValueError(
            f"sector (L={block.n_sites}, N_up={block.n_up}, N_down={block.n_down}) "
            f"has no unique ground state: the lowest level of block "
            f"{_block_name(block.n_sites, block.k)} holds both spin-flip "
            f"parities, +1 and -1 (<F> = {flip:.3g})")
    space = _space(block, 1 if flip > 0 else -1)
    return space, space.q.conj().T @ psi


class _BlockOperators:
    """H(phi) = z T + conj(z) T^H + u D of a space, with z = -e^{i phi}.

    T is the space's forward hop Q^H T_K Q and D its double occupancy.
    ``stacked`` holds [T; T^H] as one complex (2n x n) CSR matrix, so an
    apply is one sparse product r = [T; T^H] x, then z r[:n] + conj(z)
    r[n:] + u D x.  The factors are complex vectors: numpy's loops over
    whole vectors of one dtype cost the least per call, and the calls are
    most of an apply on the small rings.  ``at`` gives H at another phase
    and interaction on the same matrix.  The solvers use only ``shape``
    and ``@``.
    """

    def __init__(self, stacked: csr_matrix, double_occ: np.ndarray,
                 phi: float, u: float):
        n = double_occ.size
        self.stacked = stacked
        self.double_occ = double_occ
        self.shape = (n, n)
        z = -np.exp(1j * phi)
        self.phases = np.full(2 * n, z)
        self.phases[n:] = np.conj(z)
        self.interaction = (u * double_occ).astype(complex)

    def at(self, phi: float, u: float) -> "_BlockOperators":
        return _BlockOperators(self.stacked, self.double_occ, phi, u)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        r = self.stacked @ x
        r *= self.phases
        n = self.shape[0]
        w, scratch = r[:n], r[n:]
        w += scratch
        w += np.multiply(x, self.interaction, out=scratch)
        return w


def _field_free(hop: csr_matrix, double_occ: np.ndarray, u: float) -> _BlockOperators:
    """H(0) with interaction u of the space whose forward hop is ``hop``."""
    # two complex CSR blocks take vstack's fast path
    hop = hop.astype(complex)
    stacked = vstack([hop, hop.conj().T.tocsr()], format="csr")
    return _BlockOperators(stacked, double_occ, 0.0, u)


@functools.cache
def _operators(space: _Space) -> _BlockOperators:
    """The operators of a space that systems work in, built once; the
    ground-state scan builds the H(0) of each block it solves instead."""
    hop = space.q.conj().T @ _block_hop(space.block) @ space.q
    return _field_free(hop, space.double_occ, 0.0)


def _real_vdot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a|b> for two complex vectors of one length.

    Summed by numpy's einsum loop over the float views, not by BLAS, so
    the result is the same at any BLAS thread count and the call wakes
    no BLAS threads.
    """
    return float(np.einsum("i,i->", a.view(float), b.view(float)))


def _lanczos(V: np.ndarray, hop, arrow=()):
    """Lanczos recurrence from the unit vector V[k], k = len(arrow).

    The rows V[:k] are orthonormal vectors that H couples only to V[k],
    by H V[i] = theta_i V[i] + arrow[i] V[k]: kept Ritz vectors after a
    thick restart, or none.  The first new row subtracts every kept
    vector, each later one only the row before it.  Yields after each
    step the new diagonal (alphas) and off-diagonal (betas) coefficients
    so far and beta, the norm of the new residual; resuming normalizes
    the residual into the next row, until V's last row is filled.  There
    is no reorthogonalization.  Every state-sized operation is a sparse
    product, a numpy ufunc or ``_real_vdot``, never BLAS.  A coefficient
    that is not finite raises NumericalError before it reaches an
    eigensolver.
    """
    kept = len(arrow)
    scratch = np.empty_like(V[0])
    alphas: list = []
    betas: list = []
    for m in range(kept, len(V) - 1):
        w = hop @ V[m]
        alpha = _real_vdot(V[m], w)
        np.subtract(w, np.multiply(V[m], alpha, out=scratch), out=w)
        if m > kept:
            np.subtract(w, np.multiply(V[m - 1], betas[-1], out=scratch), out=w)
        else:
            for v, c in zip(V, arrow):
                np.subtract(w, np.multiply(v, c, out=scratch), out=w)
        alphas.append(alpha)
        beta = math.sqrt(_real_vdot(w, w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NumericalError(
                "Lanczos coefficients are not finite: the state, the "
                "Peierls phase or H is not finite")
        yield alphas, betas, beta
        betas.append(beta)
        np.divide(w, beta, out=V[m + 1])


def _combine(V: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Rows q = 0..k-1 of sum_j coeff[j, q] V[j] for the real (m x k)
    ``coeff``, over the first m rows of V: one einsum over their float
    views, numpy's own loop, not BLAS."""
    out = np.empty((coeff.shape[1], V.shape[1]), dtype=complex)
    np.einsum("jq,jd->qd", coeff, V[:len(coeff)].view(float), out=out.view(float))
    return out


# Krylov dimension of a time step and of a ground-state pass (ARPACK's
# default ncv); error tolerance of a time step and the number of halvings
# an oversized step may take before it fails; Ritz vectors a ground-state
# pass hands to the next (more cost more combination work than they save
# in H products), and restart budget and residual that end the
# ground-state iteration
_KRYLOV_DIM = 20
_KRYLOV_TOL = 1e-10
_MAX_HALVINGS = 6
_RITZ_KEPT = 4
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
        raise NumericalError(f"tridiagonal eigensolver dstevd failed, info {info}")
    return evals, evecs


def _evolved(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """exp(-i T t) e_0 for the tridiagonal T = evecs diag(evals) evecs^T."""
    return evecs @ (np.exp(-1j * t * evals) * evecs[0, :])


def _krylov_apply(psi: np.ndarray, hop: _BlockOperators, dt: float):
    """exp(-i H dt) psi by short Lanczos recurrences.

    The recurrence stops at the first dimension whose error estimate
    beta |c_last| |t| for the time t left is below ``_KRYLOV_TOL``; the
    estimate and the coefficients come from ``_tridiagonal_eigh``, LAPACK
    ``dstevd`` on the recurrence's tridiagonal matrix.  When the full
    ``_KRYLOV_DIM`` space misses it, the same tridiagonal matrix
    propagates over the longest halving t / 2^k that passes, and the
    recurrence restarts from the result for the rest (Expokit's step
    control, Sidje, ACM TOMS 24, 130 (1998)); past ``_MAX_HALVINGS`` a
    NumericalError carries the residual.  A state or an H that is not
    finite raises NumericalError from the recurrence.  There is no
    reorthogonalization; the step counts involved here are small enough
    that orthogonality loss stays far below the norm-drift budget
    (asserted by the conservation tests).
    """
    norm0 = math.sqrt(_real_vdot(psi, psi))
    if norm0 == 0.0:
        return psi.copy()
    V = np.empty((_KRYLOV_DIM + 1, psi.size), dtype=complex)
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
                raise NumericalError(
                    f"Krylov residual {err:.3e} above {_KRYLOV_TOL:.1e} after "
                    f"{_MAX_HALVINGS} halvings of the step; reduce dt",
                    residual=err,
                )
        coeff *= norm0
        # the real and imaginary parts of the coefficients as two columns
        psi, im = _combine(V, coeff.view(float).reshape(-1, 2))
        im *= 1j
        psi += im
        left -= tau
        if left == 0.0:
            return psi
        norm0 = math.sqrt(_real_vdot(psi, psi))


@dataclass(frozen=True)
class LatticeNumerics:
    """Propagation grid of lattice runs; the Krylov step sizes itself."""

    dt: float = 0.005

    def __post_init__(self):
        _require("positive", dt=self.dt)


def _ground_state(hop, above=math.inf):
    """Lowest eigenpair of the Hermitian ``hop`` by thick-restart Lanczos,
    or None once it is clear that the lowest level lies at ``above`` or
    higher.

    Each of at most ``_MAX_RESTARTS`` passes runs ``_lanczos`` until the
    basis holds ``_KRYLOV_DIM`` vectors, or as many as the space has, from
    a fixed random vector at first, or until beta < 1e-14 makes the Krylov
    space invariant.  H projects on the basis to diag(theta), the
    arrowhead and the recurrence's tridiagonal part, which goes to LAPACK
    ``dsyevd``; its eigenvectors S combine the basis into the Ritz
    vectors, and |beta S[-1, 0]| is the residual r of the lowest Ritz pair
    (theta, y), free of H products.  A restart keeps the ``_RITZ_KEPT``
    lowest Ritz vectors y_i, from ``_combine`` off BLAS, and the pass's
    normalized residual, to which H y_i = theta_i y_i + beta s_i r couples
    them, s_i being the last coefficient of y_i; the next pass goes on
    from the residual with the arrowhead beta s (Wu and Simon, SIAM J.
    Matrix Anal. Appl. 22, 602 (2000)).  A coefficient that is not finite
    raises NumericalError before it reaches the eigensolver.

    ||H psi - E psi|| costs an H product, so it is computed only once r is
    below ``_GROUND_STATE_TOL``, or the space is invariant, or on the last
    pass of the restart budget.  The iteration ends when it is below the
    tolerance too or the space is invariant.  The returned vector must
    satisfy it to 1e-8, or a NumericalError carrying the residual is
    raised, as when the restart budget runs out.  Its largest component is
    made real and positive.

    The early exit: ``hop`` has an eigenvalue within r of theta, the one
    the iteration converges to, so a full solve would end at an energy of
    at least theta - r.  At the first pass whose space is not invariant
    and whose theta - r is at least ``above``, the solve stops and returns
    None.  The exit changes no pass, so a solve that does not take it
    returns the same bits at any ``above``.
    """
    dim = hop.shape[0]
    rng = np.random.default_rng(_GROUND_STATE_SEED)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    V = np.empty((min(_KRYLOV_DIM, dim) + 1, dim), dtype=complex)
    np.divide(vec, math.sqrt(_real_vdot(vec, vec)), out=V[0])
    theta = arrow = np.empty(0)
    for restart in range(_MAX_RESTARTS):
        for alphas, betas, beta in _lanczos(V, hop, arrow):
            if beta < 1e-14:
                break
        kept, n = arrow.size, arrow.size + len(alphas)
        T = np.diag(np.concatenate([theta, alphas]))
        T[kept, :kept] = T[:kept, kept] = arrow
        off = np.arange(kept, n - 1)
        T[off, off + 1] = T[off + 1, off] = betas[:n - 1 - kept]
        evals, S, info = lapack.dsyevd(T)
        if info:
            raise NumericalError(f"projected eigensolver dsyevd failed, info {info}")
        energy = float(evals[0])
        estimate = abs(beta * S[-1, 0])
        if beta >= 1e-14 and energy - estimate >= above:
            return None
        if (beta < 1e-14 or estimate < _GROUND_STATE_TOL
                or restart + 1 == _MAX_RESTARTS):
            vec = _combine(V, S[:, :1])[0]
            vec /= math.sqrt(_real_vdot(vec, vec))
            r = hop @ vec - energy * vec
            residual = math.sqrt(_real_vdot(r, r))
            if residual < _GROUND_STATE_TOL or beta < 1e-14:
                break
        keep = min(_RITZ_KEPT, n - 1)
        V[:keep] = _combine(V, S[:, :keep])
        theta, arrow = evals[:keep], beta * S[n - 1, :keep]
        V[keep] = V[n]
    if not residual < 1e-8:
        raise NumericalError(
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


def _sector_ground_state(n_sites: int, n_up: int, n_down: int, u: float):
    """Field-free ground state of the (n_up, n_down) sector at interaction
    ``u``: the space it lives in, its energy, and the state in that space.

    Scans the blocks K = 2 pi k / L, k = 0..L/2, in k order; K and -K
    share a spectrum, since H and T are real in the occupation basis.
    ``_ground_state`` solves each block's field-free H once, from the
    same seed, with ``above`` the lowest energy solved so far plus 1e-8:
    the first block in full, and each later one only until its passes
    show that it can neither hold the lowest level nor tie with it to
    1e-8.  So the lowest level and its block are those a full solve of
    every block would pick, with the same bits, and no block's passes run
    twice.  The state is then kept in the space of its block that
    ``_ground_space`` names: at N_up = N_down the parity half that
    <psi|F|psi> names.  A sector whose ground state is not unique raises
    ValueError: its lowest level lies at a K other than 0 or pi, whose -K
    twin is degenerate with it, two solved blocks' lowest levels agree to
    1e-8, or |<psi|F|psi>| is off 1 by more than 1e-8, so that the
    block's lowest level holds both parities.
    """
    L = n_sites
    levels, above = [], math.inf
    for k in range(L // 2 + 1):
        block = _block_basis(L, n_up, n_down, k)
        if block.dim:
            level = _ground_state(_field_free(_block_hop(block), block.double_occ, u),
                                  above)
            if level is not None:
                levels.append((*level, block))
                above = min(above, level[0] + 1e-8)
    levels.sort(key=lambda level: level[0])
    energy, vec, block = levels[0]
    sector = f"sector (L={L}, N_up={n_up}, N_down={n_down})"
    if (2 * block.k) % L:
        raise ValueError(
            f"{sector} has no unique ground state: its lowest level "
            f"{energy:.10g} lies in block {_block_name(L, block.k)} and "
            f"in its twin {_block_name(L, L - block.k)}")
    if len(levels) > 1 and levels[1][0] - energy < 1e-8:
        raise ValueError(
            f"{sector} has no unique ground state: blocks "
            f"{_block_name(L, block.k)} and {_block_name(L, levels[1][2].k)} "
            f"share the lowest level {energy:.10g} to 1e-8")
    space, psi = _ground_space(block, vec)
    return space, energy, psi


class HubbardSystem:
    """Driven Hubbard ring exposed through the shared tracking protocol.

    A periodic ring of ``n_sites`` sites and interaction ``u`` in hopping
    units, t0 = a = 1, built in its field-free ground state.  The
    sector holds ``n_up`` and ``n_down`` particles, half filling of each
    spin by default; construction finds its ground state with
    ``_sector_ground_state`` and keeps its energy as ``ground_energy``.
    The state lives in ``basis``, the space that holds that ground state
    on its momentum block: the spin-flip parity half at ``n_up ==
    n_down``, the whole block otherwise.  ``basis.dim`` is the dimension
    of that space.  A sector without a unique ground state raises
    ValueError at construction.

    The Peierls phase is accumulated causally: the smooth pulse part by
    the trapezoidal rule on the ``e_tl`` table of node samples, the
    control part by its zero-order hold.  Propagation over a step freezes
    the phase at the step midpoint.
    """

    channel_names = ("current", "kinetic", "phase")

    def __init__(self, n_sites: int, u: float, pulse: PulseSpec,
                 numerics: LatticeNumerics | None = None,
                 n_up: int | None = None, n_down: int | None = None):
        _require(u=u)
        self.n_sites = L = _require_int("n_sites", n_sites, 2)
        self.u = u
        self.pulse = pulse
        self.numerics = numerics if numerics is not None else LatticeNumerics()
        n_up = L // 2 if n_up is None else _require_int("n_up", n_up, 0, L)
        n_down = L // 2 if n_down is None else _require_int("n_down", n_down, 0, L)
        self.dt = self.numerics.dt
        self.n_steps = pulse.n_steps(self.dt)
        self.e_tl = evaluate_tl_field(self.dt * np.arange(self.n_steps + 1), pulse)
        self._phi_smooth = np.concatenate(
            ([0.0], np.cumsum(self.dt * (self.e_tl[1:] + self.e_tl[:-1]) / 2.0)))
        self.basis, self.ground_energy, self._ground = _sector_ground_state(
            L, n_up, n_down, u)

    def initial_state(self) -> _ManyBodyState:
        """A copy of the ground state found at construction."""
        return _ManyBodyState(self._ground.copy())

    def observables(self, state: _ManyBodyState) -> dict:
        # one product with [T; T^H] gives the forward hops, which feed
        # the current and the kinetic energy, and the backward hops that
        # the commutator adds.  The kinetic part commutes with the
        # current on a uniform ring (both are diagonal in momentum), so
        # i<[H,J]> reduces to the interaction term; the equivalence with
        # the general commutator of the Jordan-Wigner matrices is a tested
        # property.  With fwd = e^{+iPhi} T+ psi:
        # <H_kin> = -2 Re<psi|fwd>, <J> = -2 Im<psi|fwd> where
        # Im<x|y> = Re<ix|y>, and J psi = i (fwd - bwd) turns
        # i<[H,J]> = 2U Im<J psi|D psi> into -2 U Re<fwd - bwd|D psi>.
        ops = _operators(self.basis)
        psi = state.psi
        phase = np.exp(1j * state.phi)
        hops = ops.stacked @ psi
        fwd, bwd = hops[:psi.size], hops[psi.size:]
        fwd *= phase
        bwd *= np.conj(phase)
        kin = -2.0 * _real_vdot(psi, fwd)
        cur = -2.0 * _real_vdot(1j * psi, fwd)
        comm = -2.0 * self.u * _real_vdot(fwd - bwd, ops.double_occ * psi)
        return {"current": cur, "kinetic": kin, "phase": state.phi, "comm": comm}

    def response(self, obs: dict, e_total: float) -> float:
        return -e_total * obs["kinetic"] + obs["comm"]

    def control(self, obs, e_tl: float, y: float, cfg):
        # the field enters the rate through -E <H_kin>
        rate = self.response(obs, e_tl)
        return feedback.control_field(rate, -obs["kinetic"], y, cfg)

    def advance(self, state: _ManyBodyState, step: int, u: float) -> _ManyBodyState:
        u_sum = state.u_sum + u
        # the pulse has compact support, so past its table the smooth phase holds
        phi_new = -(self._phi_smooth[min(step + 1, self.n_steps)] + u_sum * self.dt)
        phi_mid = 0.5 * (state.phi + phi_new)
        hop = _operators(self.basis).at(phi_mid, self.u)
        psi = _krylov_apply(state.psi, hop, self.dt)
        return _ManyBodyState(psi, phi=phi_new, u_sum=u_sum)
