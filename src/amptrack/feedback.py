"""Proportional amplifier controller and the self-consistent tracking loop.

The loop is strictly causal: the control field at step n is a closed-form
function of the driven state at step n and the reference sample Y_n, and
is then held constant while the state advances one step.  An open-loop
run is the same loop with the control fixed in advance (zero for a
reference run, or a recorded sequence replayed), so a system tracking its
own reference reproduces that run bit for bit (the control field is
exactly zero, not merely small).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .pulses import _require_finite
from .series import TimeSeries

__all__ = [
    "FeedbackConfig",
    "RunRecord",
    "check_reference",
    "control_field",
    "relative_rms",
    "rms",
    "run_open_loop",
    "run_tracking",
]


@dataclass(frozen=True)
class FeedbackConfig:
    """Amplifier gain of the proportional controller."""

    k_p: float

    def __post_init__(self):
        _require_finite(k_p=self.k_p)
        if not self.k_p >= 0:
            raise ValueError("k_p must be nonnegative")


def control_field(response: float, coupling: float, y: float, cfg) -> float:
    """Closed-form solve of the self-consistent control law.

    ``response`` is the system's Ehrenfest rate under the pulse alone and
    ``coupling`` its slope in the control field, so the law
    u = k_p (response + coupling u - y) solves to
    u = k_p (response - y) / (1 - k_p coupling).  The coupling is -1 for
    the atom's momentum, so that denominator never vanishes; on the ring,
    in hopping units, it is -<H_kin>, and a denominator of exactly zero,
    where no field moves the rate, raises NumericalError.
    """
    denom = 1.0 - cfg.k_p * coupling
    if denom == 0.0:
        raise NumericalError(
            f"control law is singular: 1 - k_p coupling = 0 at k_p = {cfg.k_p!r}, "
            f"coupling = {coupling!r}"
        )
    return cfg.k_p * (response - y) / denom


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def relative_rms(diff: np.ndarray, target: np.ndarray) -> float:
    """RMS of ``diff`` over the RMS of ``target``.

    Falls back to the absolute RMS when the target is identically zero.
    """
    scale = rms(target)
    if scale == 0.0:
        return rms(diff)
    return rms(diff) / scale


def _channel(name: str) -> property:
    return property(lambda self: self.channels[name], doc=f"The {name!r} channel.")


@dataclass
class RunRecord:
    """Per-step channels of one run, on the grid t = dt * arange(len(record)).

    A run of the loop records the system's observables, then ``e_total``,
    ``u``, ``response``, ``y`` and ``residual``; an open-loop run records
    its own response as ``y``, so its residual is zero.  A run CSV reads
    back (`storage.read_table`) as a record of its columns after ``t``.
    """

    dt: float
    channels: dict

    u = _channel("u")
    response = _channel("response")
    y = _channel("y")
    residual = _channel("residual")

    def series(self, name: str) -> TimeSeries:
        if name not in self.channels:
            raise ValueError(
                f"no column {name!r}; record has {', '.join(self.channels)}"
            )
        return TimeSeries(0.0, self.dt, self.channels[name])

    def __len__(self) -> int:
        first = next(iter(self.channels.values()))
        return len(first)

    @property
    def rms_relative(self) -> float:
        """RMS of the residual over the RMS of ``y``; absolute when ``y``
        is identically zero, which ``absolute_rms`` flags."""
        return relative_rms(self.residual, self.y)

    @property
    def absolute_rms(self) -> bool:
        """True when the target is identically zero and the RMS is absolute."""
        return rms(self.y) == 0.0


def _run(system, y=None, cfg=None, u_forced=None) -> RunRecord:
    n = system.n_steps
    psi = system.initial_state()
    names = system.channel_names
    cols = {name: np.empty(n + 1) for name in names}
    u_arr = np.empty(n + 1)
    e_total_arr = np.empty(n + 1)
    resp_arr = np.empty(n + 1)
    for i in range(n + 1):
        obs = system.observables(psi)
        e_tl = system.e_tl[i]
        if y is not None:
            u = system.control(obs, e_tl, y[i], cfg)
        else:
            u = 0.0 if u_forced is None else float(u_forced[i])
        e_total = e_tl + u
        resp_arr[i] = system.response(obs, e_total)
        for name in names:
            cols[name][i] = obs[name]
        u_arr[i] = u
        e_total_arr[i] = e_total
        if i < n:
            psi = system.advance(psi, i, u)

    y_arr = (resp_arr if y is None else y).copy()
    channels = dict(cols)
    channels["e_total"] = e_total_arr
    channels["u"] = u_arr
    channels["response"] = resp_arr
    channels["y"] = y_arr
    channels["residual"] = resp_arr - y_arr
    return RunRecord(dt=system.dt, channels=channels)


def run_open_loop(system, u_forced: np.ndarray | None = None) -> RunRecord:
    """Propagate without feedback and record the Ehrenfest response as y.

    With ``u_forced`` given, that control sequence is replayed instead of
    zero (used to re-drive a system with a recorded field).
    """
    if u_forced is not None and len(u_forced) != system.n_steps + 1:
        raise ValueError("forced control sequence does not match the grid")
    return _run(system, u_forced=u_forced)


def check_reference(reference: TimeSeries, n_steps: int, dt: float) -> None:
    """Reject a reference that is not ``n_steps`` steps of ``dt`` from t = 0,
    by the rule of `TimeSeries.same_grid`, or that has a non-finite sample;
    no interpolation is ever performed."""
    if len(reference) != n_steps + 1:
        raise ValueError(
            f"reference has {len(reference)} samples, propagation needs {n_steps + 1}"
        )
    if not TimeSeries(0.0, dt, reference.values).same_grid(reference):
        raise ValueError("reference grid does not match the propagation grid")
    bad = np.flatnonzero(~np.isfinite(reference.values))
    if bad.size:
        raise ValueError(
            f"reference has {bad.size} non-finite samples, the first at step {bad[0]}"
        )


def run_tracking(system, reference: TimeSeries, cfg: FeedbackConfig) -> RunRecord:
    """Drive ``system`` so its response follows the reference signal.

    The reference must pass `check_reference` on the system's own grid,
    so a bad one is rejected before anything is propagated.
    """
    check_reference(reference, system.n_steps, system.dt)
    return _run(system, reference.values, cfg)
