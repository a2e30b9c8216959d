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

from .exceptions import NumericalError, _check_samples, _require
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
        _require("nonnegative", k_p=self.k_p)


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
    return property(lambda self: self.channel(name), doc=f"The {name!r} channel.")


@dataclass
class RunRecord:
    """Per-step channels of one run, on the grid t = dt * arange(len(record)).

    A run records the system's observables and ``e_total``; an open-loop
    run adds its own response as ``y``, a tracking run ``u``, ``response``,
    ``y`` and ``residual``.  A run CSV is ``t`` and then these channels,
    and reads back (`storage.read_table`) as the record it came from.
    ``dt`` must be positive, and the channels at least one, each 1-D and
    all of one length.
    """

    dt: float
    channels: dict

    u = _channel("u")
    response = _channel("response")
    y = _channel("y")
    residual = _channel("residual")

    def __post_init__(self):
        _require("positive", dt=self.dt)
        if not self.channels:
            raise ValueError("a record needs at least one channel")
        n = len(self)
        for name, values in self.channels.items():
            shape = np.shape(values)
            if shape != (n,):
                raise ValueError(f"channel {name!r} has shape {shape}, not ({n},)")

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            # a run CSV's first column reads back as the grid, not a channel
            what = ("'t' is the record's time grid, not a channel" if name == "t"
                    else f"no column {name!r}")
            raise ValueError(f"{what}; record has {', '.join(self.channels)}")
        return self.channels[name]

    def series(self, name: str) -> TimeSeries:
        return TimeSeries(0.0, self.dt, self.channel(name))

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


def _run(system, u, y=None, cfg=None) -> RunRecord:
    """Step ``system`` under the per-node control ``u``: an open loop fills it
    in advance; tracking passes ``y`` and ``cfg`` and solves each sample into it."""
    n = system.n_steps
    psi = system.initial_state()
    names = system.channel_names
    cols = {name: np.empty(n + 1) for name in (*names, "e_total", "response")}
    for i in range(n + 1):
        obs = system.observables(psi)
        if y is not None:
            u[i] = system.control(obs, system.e_tl[i], y[i], cfg)
        u_i = float(u[i])
        e_total = cols["e_total"][i] = system.e_tl[i] + u_i
        cols["response"][i] = system.response(obs, e_total)
        for name in names:
            cols[name][i] = obs[name]
        if i < n:
            psi = system.advance(psi, i, u_i)

    response = cols.pop("response")
    if y is None:
        cols["y"] = response
    else:
        cols.update(u=u, response=response, y=y.copy(), residual=response - y)
    return RunRecord(dt=system.dt, channels=cols)


def run_open_loop(system, u_forced: np.ndarray | None = None) -> RunRecord:
    """Propagate without feedback and record the Ehrenfest response as y.

    With ``u_forced`` given, that control sequence is replayed instead of
    zero (used to re-drive a system with a recorded field; it shows in
    ``e_total``).  The record holds the channels of a reference CSV.  A
    NaN or inf in ``u_forced`` is rejected before anything is propagated.
    """
    if u_forced is not None:
        if len(u_forced) != system.n_steps + 1:
            raise ValueError("forced control sequence does not match the grid")
        _check_samples("forced control", u_forced)
    return _run(system, np.zeros(system.n_steps + 1) if u_forced is None else u_forced)


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
    _check_samples("reference", reference.values)


def run_tracking(system, reference: TimeSeries, cfg: FeedbackConfig) -> RunRecord:
    """Drive ``system`` so its response follows the reference signal.

    The reference must pass `check_reference` on the system's own grid,
    so a bad one is rejected before anything is propagated.
    """
    check_reference(reference, system.n_steps, system.dt)
    return _run(system, np.empty(system.n_steps + 1), reference.values, cfg)
