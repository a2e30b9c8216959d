"""1D single-active-electron dynamics on a uniform grid.

Soft-core model atoms, imaginary-time ground states, length-gauge
split-operator propagation, and the two Ehrenfest observables (momentum
and core force) whose combination gives the emission response without
numerical differentiation.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from . import feedback
from .exceptions import NumericalError, _require, _require_int
from .pulses import PulseSpec, evaluate_tl_field

__all__ = [
    "AtomNumerics",
    "AtomSystem",
    "soft_coulomb_potential",
    "soft_coulomb_force",
    "calibrate_softening",
    "imaginary_time_ground_state",
]


@dataclass(frozen=True)
class AtomNumerics:
    """Grid, time step and absorber of an atom run: the keys of [numerics].

    The grid is uniform and symmetric on [-box_half_width, box_half_width]
    with a power-of-two point count.  The absorber is a cosine mask over
    the outer ``absorber_fraction`` of each box edge, raised to
    ``absorber_exponent``; a fraction of zero disables it.  The defaults
    resolve a quiver amplitude E0/omega0^2 of roughly 16 a.u. at the
    default pulse with a wide margin.
    """

    box_half_width: float = 200.0
    n_points: int = 4096
    dt: float = 0.02
    absorber_fraction: float = 0.1
    absorber_exponent: float = 0.125

    def __post_init__(self):
        n = _require_int("n_points", self.n_points, 8)
        object.__setattr__(self, "n_points", n)
        if n & (n - 1) != 0:
            raise ValueError(f"n_points must be a power of two, got {n}")
        _require("positive", box_half_width=self.box_half_width, dt=self.dt,
                 absorber_exponent=self.absorber_exponent)
        _require(absorber_fraction=self.absorber_fraction)
        if not 0.0 <= self.absorber_fraction < 0.5:
            raise ValueError(f"absorber_fraction must lie in [0, 0.5), "
                             f"got {self.absorber_fraction!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.box_half_width / (self.n_points - 1)

    def x(self) -> np.ndarray:
        return -self.box_half_width + self.dx * np.arange(self.n_points)

    def k(self) -> np.ndarray:
        # discrete Fourier dual of x
        return 2.0 * math.pi * sfft.fftfreq(self.n_points, d=self.dx)

    def mask(self):
        """Mask samples in [0, 1], or None when the absorber is disabled."""
        if self.absorber_fraction == 0.0:
            return None
        width = self.absorber_fraction * 2.0 * self.box_half_width
        inner = self.box_half_width - width
        s = np.clip((np.abs(self.x()) - inner) / width, 0.0, 1.0)
        return np.cos(0.5 * math.pi * s) ** self.absorber_exponent


def soft_coulomb_potential(numerics: AtomNumerics, alpha: float) -> np.ndarray:
    """V(x) = -1 / sqrt(x^2 + alpha^2) sampled on the grid."""
    _require("positive", alpha=alpha)
    return -1.0 / np.sqrt(numerics.x() ** 2 + alpha**2)


def soft_coulomb_force(numerics: AtomNumerics, alpha: float) -> np.ndarray:
    """Core force -V'(x) = -x / (x^2 + alpha^2)^(3/2), analytic."""
    _require("positive", alpha=alpha)
    x = numerics.x()
    return -x / (x**2 + alpha**2) ** 1.5


def _energy(psi: np.ndarray, k2: np.ndarray, V: np.ndarray,
            dx: float, n: int) -> float:
    phi = sfft.fft(psi)
    kin = float(np.real(np.sum(0.5 * k2 * (phi.conj() * phi))) * dx / n)
    return kin + float(np.sum(np.abs(psi) ** 2 * V) * dx)


# the step is lowered through the schedule so that the Trotter bias of
# the last fixed point sits far below the calibration's 1e-4 tolerance
_DTAU_SCHEDULE = (0.1, 0.02, 0.005)
# relative change per step of the level -ln|psi'|^2 / (2 dtau) that ends a
# stage; its error is quadratic in the state's, as the energy's is, and
# 3e-13 leaves the state closer to the fixed point than 1e-12 on the energy
_LEVEL_TOL = 3e-13
_MAX_STEPS = 200_000    # steps per stage before a NumericalError


def imaginary_time_ground_state(numerics: AtomNumerics, V: np.ndarray):
    """Relax to the ground state of K + V by split-step imaginary time.

    Every solve starts from the same Gaussian, so the state is a function
    of (numerics, V) alone.  The step size is lowered through
    ``_DTAU_SCHEDULE``.  Each step's level -ln|psi'|^2 / (2 dtau), from
    the norm the normalization takes, is a Rayleigh quotient of the
    symmetric split-step propagator; a stage ends when it changes by less
    than ``_LEVEL_TOL`` (relative) in one step, and a stage still moving
    after ``_MAX_STEPS`` steps raises NumericalError with that last change
    as its residual.  The energy <K + V> is taken once, after the last
    stage.

    Returns (psi, energy).
    """
    dx, n = numerics.dx, numerics.n_points
    k2 = numerics.k() ** 2
    psi = np.exp(-0.5 * numerics.x() ** 2).astype(complex)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx)

    for dtau in _DTAU_SCHEDULE:
        exp_k = np.exp(-0.5 * k2 * dtau)
        exp_v = np.exp(-0.5 * V * dtau)
        previous = math.inf
        for _ in range(_MAX_STEPS):
            psi = exp_v * psi
            psi = sfft.ifft(exp_k * sfft.fft(psi))
            psi = exp_v * psi
            norm2 = np.sum(np.abs(psi) ** 2) * dx
            psi /= math.sqrt(norm2)
            level = -math.log(norm2) / (2.0 * dtau)
            change = abs(level - previous)
            if change < _LEVEL_TOL * max(1.0, abs(level)):
                break
            previous = level
        else:
            raise NumericalError(
                f"imaginary time did not settle at dtau={dtau}", residual=change
            )
    return psi, _energy(psi, k2, V, dx, n)


def _softening_slope(numerics: AtomNumerics, alpha: float) -> np.ndarray:
    """dV/dalpha = alpha / (x^2 + alpha^2)^(3/2), the integrand of dE0/dalpha."""
    return alpha / (numerics.x() ** 2 + alpha**2) ** 1.5


@functools.lru_cache(maxsize=1)
def _ground_state(numerics: AtomNumerics, alpha: float):
    """(psi, energy) of the soft-core atom, read-only, for the latest key.

    A solve is a function of (numerics, alpha) alone, so the system built
    right after its calibration takes the calibration's last solve.
    """
    psi, energy = imaginary_time_ground_state(
        numerics, soft_coulomb_potential(numerics, alpha))
    psi.setflags(write=False)
    return psi, energy


# |E0| - target_ip that ends the calibration, its solve budget, and the
# softenings it searches between
_CALIBRATION_TOL = 1e-4
_CALIBRATION_MAX_ITER = 80
_BRACKET = (0.1, 6.0)


def calibrate_softening(target_ip: float, numerics: AtomNumerics) -> float:
    """Softening alpha whose ground state binds with |E0| = target_ip.

    Safeguarded Newton, started at the middle of ``_BRACKET``.  The slope
    is exact by Hellmann-Feynman, dE0/dalpha = <dV/dalpha>, a sum over the
    ground state each solve returns.  Steps are taken in 1/alpha, in which
    E0 is close to linear (E0 -> -1/alpha for wide softening).  E0 rises
    with alpha, so the sign of each residual shrinks a bracket.  A step
    that leaves the bracket makes the solver check, once, that the edge it
    crossed brackets the target, and then bisect.  Tolerance is on the
    energy, not alpha.

    Every solve goes through the one-entry memo of ground states, so the
    last one, the ground state at the returned alpha, is still held there
    for the ``AtomSystem`` built next with these numerics and this alpha.
    """
    _require(target_ip=target_ip)
    if not 0.2 < target_ip < 2.0:
        raise ValueError(f"target_ip must lie in (0.2, 2.0), got {target_ip!r}")

    def residual(alpha: float):
        """(|E0| - target_ip, dE0/dalpha) at this softening."""
        psi, energy = _ground_state(numerics, alpha)
        slope = np.sum(np.abs(psi) ** 2
                       * _softening_slope(numerics, alpha)) * numerics.dx
        return -energy - target_ip, float(slope)

    # the residual falls with alpha: it is positive at a, negative at b
    lo, hi = _BRACKET
    a, b = lo, hi
    unchecked = {lo, hi}
    alpha = 0.5 * (lo + hi)
    for _ in range(_CALIBRATION_MAX_ITER):
        f, slope = residual(alpha)
        if abs(f) < _CALIBRATION_TOL:
            return alpha
        if f > 0:
            a = alpha
        else:
            b = alpha
        # Newton in 1/alpha; a step past 1/alpha = 0 leaves through b
        shrink = 1.0 - f / (alpha * slope)
        step = alpha / shrink if shrink > 0 else math.inf
        if a < step < b:
            alpha = step
            continue
        edge = a if step <= a else b
        if edge in unchecked:
            unchecked.remove(edge)
            f_edge, _ = residual(edge)
            if abs(f_edge) < _CALIBRATION_TOL:
                return edge
            if not (f_edge > 0 if edge == lo else f_edge < 0):
                raise NumericalError(
                    f"interval [{lo}, {hi}] does not bracket Ip={target_ip}"
                )
        alpha = 0.5 * (a + b)
    raise NumericalError("calibration exhausted its iteration budget")


class AtomSystem:
    """A driven soft-core atom of softening ``alpha``, in its ground state.

    Exposes the stepping/observable/control interface consumed by the
    tracking loop: momentum and core-force expectations, the closed-form
    control field, and an in-place split-operator advance with the smooth
    pulse sampled at the step midpoint (second order in dt).  The pulse
    is tabulated once: ``e_tl`` at the grid nodes, ``_e_mid`` at the step
    midpoints.  ``numerics`` is the one record of the grid, the time step
    and the absorber.  The ground state and ``ground_energy`` are set on
    construction, from the memo when a calibration has just returned
    this alpha for these numerics, and by one solve otherwise.
    """

    channel_names = ("p", "force")

    def __init__(self, alpha: float, pulse: PulseSpec, numerics: AtomNumerics):
        self.alpha = alpha
        self.pulse = pulse
        self.numerics = numerics
        self.dt = numerics.dt
        self.n_steps = pulse.n_steps(self.dt)
        steps = np.arange(self.n_steps + 1)
        self.e_tl = evaluate_tl_field(self.dt * steps, pulse)
        self._e_mid = evaluate_tl_field(self.dt * (steps[:-1] + 0.5), pulse)
        # x_j = x[m r] + dx c for j = m r + c, so exp(s x) is the outer
        # product of exp(s x[::m]) and exp(s dx c): two short exponentials
        n = numerics.n_points
        m = 1 << (n.bit_length() // 2)
        self._x_rows = numerics.x()[::m]
        self._x_cols = numerics.dx * np.arange(m)
        k = numerics.k()
        # rejects an alpha that is not finite and positive
        self._V = soft_coulomb_potential(numerics, alpha)
        # k and the force, each value twice, against the float view of a state
        self._k_pairs = np.repeat(k, 2)
        self._force_pairs = np.repeat(soft_coulomb_force(numerics, alpha), 2)
        self._exp_v_half = np.exp(-0.5j * self.dt * self._V)
        self._exp_k = np.exp(-0.5j * self.dt * k**2)
        self._mask = numerics.mask()
        self._ground, self.ground_energy = _ground_state(numerics, alpha)

    def initial_state(self) -> np.ndarray:
        """A writable copy of the field-free ground state.

        Every call checks that the state decays at the box edge.
        """
        psi = self._ground
        tail = max(1, self.numerics.n_points // 20)
        edge = max(np.abs(psi[:tail]).max(), np.abs(psi[-tail:]).max())
        if edge > 1e-8:
            raise ValueError(
                f"ground state does not decay at the box edge (|psi|={edge:.2e}); "
                "enlarge the box"
            )
        return psi.copy()

    def observables(self, psi: np.ndarray) -> dict:
        dx, n = self.numerics.dx, self.numerics.n_points
        # sum k |phi|^2 and F |psi|^2 over the float views, BLAS-free
        psi = np.ascontiguousarray(psi, dtype=complex)
        phi = sfft.fft(psi).view(float)
        p = np.einsum("i,i,i->", self._k_pairs, phi, phi) * dx / n
        psi = psi.view(float)
        force = np.einsum("i,i,i->", self._force_pairs, psi, psi) * dx
        return {"p": float(p), "force": float(force)}

    def response(self, obs: dict, e_total: float) -> float:
        # d<p>/dt from the Ehrenfest identity, no differentiation
        return obs["force"] - e_total

    def control(self, obs, e_tl, y, cfg):
        # d<p>/dt falls by one for each unit of control field
        rate = self.response(obs, e_tl)
        return feedback.control_field(rate, -1.0, y, cfg)

    def advance(self, psi: np.ndarray, step: int, u: float) -> np.ndarray:
        # the pulse has compact support, so past its table the field is zero
        e_held = (self._e_mid[step] if step < self.n_steps else 0.0) + u
        s = -0.5j * self.dt * e_held
        pot = (np.exp(s * self._x_rows)[:, None] * np.exp(s * self._x_cols)).ravel()
        pot *= self._exp_v_half
        # pot * psi is a fresh array, so the FFTs may overwrite it; psi is not
        phi = sfft.fft(pot * psi, overwrite_x=True)
        phi *= self._exp_k
        psi = sfft.ifft(phi, overwrite_x=True)
        psi *= pot
        if self._mask is not None:
            psi *= self._mask
        return psi
