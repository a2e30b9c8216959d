"""1D single-active-electron dynamics on a uniform grid.

Soft-core model atoms, imaginary-time ground states, length-gauge
split-operator propagation, and the two Ehrenfest observables (momentum
and core force) whose combination gives the emission response without
numerical differentiation.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from . import feedback
from .exceptions import CalibrationError, ConvergenceError
from .pulses import AtomSpec, PulseSpec, evaluate_tl_field

__all__ = [
    "Grid1D",
    "AbsorberSpec",
    "AtomNumerics",
    "AtomSystem",
    "soft_coulomb_potential",
    "soft_coulomb_force",
    "calibrate_softening",
    "atom_for_ip",
    "imaginary_time_ground_state",
    "expect_energy",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric grid on [-L, L] with a power-of-two point count."""

    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 8 or n & (n - 1) != 0:
            raise ValueError("n_points must be a power of two, at least 8")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def x(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n_points)

    def k(self) -> np.ndarray:
        # discrete Fourier dual of x
        return 2.0 * math.pi * sfft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class AbsorberSpec:
    """Cosine absorbing mask over the outer ``fraction`` of each box edge."""

    fraction: float = 0.1
    exponent: float = 0.125

    def __post_init__(self):
        if not 0.0 <= self.fraction < 0.5:
            raise ValueError("fraction must lie in [0, 0.5)")
        if not self.exponent > 0:
            raise ValueError("exponent must be positive")

    @classmethod
    def off(cls) -> "AbsorberSpec":
        return cls(fraction=0.0)

    def mask(self, grid: Grid1D):
        """Mask samples in [0, 1], or None when the absorber is disabled."""
        if self.fraction == 0.0:
            return None
        width = self.fraction * 2.0 * grid.half_width
        inner = grid.half_width - width
        s = np.clip((np.abs(grid.x()) - inner) / width, 0.0, 1.0)
        return np.cos(0.5 * math.pi * s) ** self.exponent


def soft_coulomb_potential(grid: Grid1D, alpha: float) -> np.ndarray:
    """V(x) = -1 / sqrt(x^2 + alpha^2) sampled on the grid."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return -1.0 / np.sqrt(grid.x() ** 2 + alpha**2)


def soft_coulomb_force(grid: Grid1D, alpha: float) -> np.ndarray:
    """Core force -V'(x) = -x / (x^2 + alpha^2)^(3/2), analytic."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = grid.x()
    return -x / (x**2 + alpha**2) ** 1.5


def _kinetic_energy(psi: np.ndarray, k2: np.ndarray, dx: float, n: int) -> float:
    phi = sfft.fft(psi)
    return float(np.real(np.sum(0.5 * k2 * (phi.conj() * phi))) * dx / n)


def expect_energy(psi: np.ndarray, grid: Grid1D, V: np.ndarray) -> float:
    """Field-free energy <K + V> of the state (unnormalized expectation)."""
    kin = _kinetic_energy(psi, grid.k() ** 2, grid.dx, grid.n_points)
    return kin + float(np.sum(np.abs(psi) ** 2 * V) * grid.dx)


# the step is lowered through the schedule so that the Trotter bias of
# the last fixed point sits far below the calibration's 1e-4 tolerance
_DTAU_SCHEDULE = (0.1, 0.02, 0.005)
_ENERGY_TOL = 1e-12     # relative energy change per step that ends a stage
_MAX_STEPS = 200_000    # steps per stage before a ConvergenceError


def imaginary_time_ground_state(
    grid: Grid1D, V: np.ndarray, psi0: np.ndarray | None = None
):
    """Relax to the ground state of K + V by split-step imaginary time.

    The step size is lowered through ``_DTAU_SCHEDULE``; each stage ends
    when the Rayleigh quotient changes by less than ``_ENERGY_TOL``
    (relative) in one step.  ``psi0`` warm-starts the relaxation.

    Returns (psi, energy).
    """
    dx, n = grid.dx, grid.n_points
    k2 = grid.k() ** 2
    if psi0 is None:
        psi = np.exp(-0.5 * grid.x() ** 2).astype(complex)
    else:
        psi = np.asarray(psi0, dtype=complex).copy()
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx)

    energy = None
    for dtau in _DTAU_SCHEDULE:
        exp_k = np.exp(-0.5 * k2 * dtau)
        exp_v = np.exp(-0.5 * V * dtau)
        previous = None
        for _ in range(_MAX_STEPS):
            psi = exp_v * psi
            psi = sfft.ifft(exp_k * sfft.fft(psi))
            psi = exp_v * psi
            psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx)
            energy = _kinetic_energy(psi, k2, dx, n) + float(
                np.sum(np.abs(psi) ** 2 * V) * dx
            )
            if previous is not None and abs(energy - previous) < (
                _ENERGY_TOL * max(1.0, abs(energy))
            ):
                break
            previous = energy
        else:
            raise ConvergenceError(
                f"imaginary time did not settle at dtau={dtau}",
                residual=abs(energy - previous),
            )
    return psi, energy


def _softening_slope(grid: Grid1D, alpha: float) -> np.ndarray:
    """dV/dalpha = alpha / (x^2 + alpha^2)^(3/2), the integrand of dE0/dalpha."""
    return alpha / (grid.x() ** 2 + alpha**2) ** 1.5


# |E0| - target_ip that ends the calibration, and its solve budget
_CALIBRATION_TOL = 1e-4
_CALIBRATION_MAX_ITER = 80


def calibrate_softening(
    target_ip: float, grid: Grid1D, lo: float = 0.1, hi: float = 6.0
) -> float:
    """Softening alpha whose ground state binds with |E0| = target_ip.

    Safeguarded Newton, started at the middle of [lo, hi].  The slope is
    exact by Hellmann-Feynman, dE0/dalpha = <dV/dalpha>, a sum over the
    ground state each solve returns.  Steps are taken in 1/alpha, in which
    E0 is close to linear (E0 -> -1/alpha for wide softening).  E0 rises
    with alpha, so the sign of each residual shrinks a bracket.  A step
    that leaves the bracket makes the solver check, once, that the edge it
    crossed brackets the target, and then bisect.  Tolerance is on the
    energy, not alpha.
    """
    if not 0.2 < target_ip < 2.0:
        raise ValueError("target ionization potential must lie in (0.2, 2.0)")

    guess = None

    def residual(alpha: float):
        """(|E0| - target_ip, dE0/dalpha) at this softening."""
        nonlocal guess
        guess, energy = imaginary_time_ground_state(
            grid, soft_coulomb_potential(grid, alpha), psi0=guess
        )
        slope = np.sum(np.abs(guess) ** 2 * _softening_slope(grid, alpha)) * grid.dx
        return -energy - target_ip, float(slope)

    # the residual falls with alpha: it is positive at a, negative at b
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
                raise CalibrationError(
                    f"interval [{lo}, {hi}] does not bracket Ip={target_ip}"
                )
        alpha = 0.5 * (a + b)
    raise CalibrationError("calibration exhausted its iteration budget")


def atom_for_ip(target_ip: float, grid: Grid1D) -> AtomSpec:
    """Calibrated soft-core atom with the requested ionization potential."""
    return AtomSpec(ip=target_ip, alpha=calibrate_softening(target_ip, grid))


@dataclass
class AtomNumerics:
    """Grid and stepping defaults for atom runs.

    The defaults resolve a quiver amplitude E0/omega0^2 of roughly 16 a.u.
    at the default pulse with a wide margin.
    """

    box_half_width: float = 200.0
    n_points: int = 4096
    dt: float = 0.02
    absorber: AbsorberSpec = field(default_factory=AbsorberSpec)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        self.grid()

    def grid(self) -> Grid1D:
        return Grid1D(self.box_half_width, self.n_points)


class AtomSystem:
    """A driven soft-core atom, prepared in its ground state.

    Exposes the stepping/observable/control interface consumed by the
    tracking loop: momentum and core-force expectations, the closed-form
    control field, and an in-place split-operator advance with the smooth
    pulse sampled at the step midpoint (second order in dt).  The pulse
    is tabulated once: ``e_tl`` at the grid nodes, ``_e_mid`` at the step
    midpoints.
    """

    channel_names = ("p", "force")

    def __init__(self, atom: AtomSpec, pulse: PulseSpec, numerics: AtomNumerics):
        self.atom = atom
        self.pulse = pulse
        self.numerics = numerics
        self.grid = numerics.grid()
        self.dt = numerics.dt
        self.n_steps = pulse.n_steps(self.dt)
        steps = np.arange(self.n_steps + 1)
        self.e_tl = evaluate_tl_field(self.dt * steps, pulse)
        self._e_mid = evaluate_tl_field(self.dt * (steps[:-1] + 0.5), pulse)
        # x_j = x[m r] + dx c for j = m r + c, so exp(s x) is the outer
        # product of exp(s x[::m]) and exp(s dx c): two short exponentials
        n = self.grid.n_points
        m = 1 << (n.bit_length() // 2)
        self._x_rows = self.grid.x()[::m]
        self._x_cols = self.grid.dx * np.arange(m)
        k = self.grid.k()
        self._V = soft_coulomb_potential(self.grid, atom.alpha)
        # k and the force, each value twice, against the float view of a state
        self._k_pairs = np.repeat(k, 2)
        self._force_pairs = np.repeat(soft_coulomb_force(self.grid, atom.alpha), 2)
        self._exp_v_half = np.exp(-0.5j * self.dt * self._V)
        self._exp_k = np.exp(-0.5j * self.dt * k**2)
        self._mask = numerics.absorber.mask(self.grid)
        self.ground_energy = None

    def initial_state(self) -> np.ndarray:
        psi, energy = imaginary_time_ground_state(self.grid, self._V)
        self.ground_energy = energy
        tail = self.grid.n_points // 20
        edge = max(np.abs(psi[:tail]).max(), np.abs(psi[-tail:]).max())
        if edge > 1e-8:
            raise ValueError(
                f"ground state does not decay at the box edge (|psi|={edge:.2e}); "
                "enlarge the box"
            )
        return psi

    def observables(self, psi: np.ndarray) -> dict:
        dx, n = self.grid.dx, self.grid.n_points
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

    def control(self, obs, e_tl, y, cfg, u_prev):
        # d<p>/dt falls by one for each unit of control field
        rate = self.response(obs, e_tl)
        return feedback.control_field(rate, -1.0, y, cfg, u_prev)

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
