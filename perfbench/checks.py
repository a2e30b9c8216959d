"""Output checks for the benchmark workloads.

Each check compares a run's output with a separate computation or with a
property the tracking method must have, and returns a `Check`.  Every
comparison is written so that NaN fails it.  The dense Hubbard
Hamiltonian below is built from occupation bitmasks on its own and
shares no code with `amptrack.lattice`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

# stated bounds
CALIBRATION_TOL = 1e-4      # |E0 + Ip|, the tolerance calibrate_softening works to
RESIDUAL_LIMIT = 0.02       # relative RMS of response - y
CONTROL_LAW_TOL = 1e-9      # max |u - k_p (response - y)|
PLATEAU_DB_LIMIT = 0.5      # max |peak ratio| over the shared plateau, dB
CD_QUANTILE = 0.99          # central difference bound: dt^2 * this quantile of |y''|
LADDER_RATIO = (5.0, 20.0)  # residual ratio per decade of gain
DENSE_ENERGY_TOL = 1e-8


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float


def _max_abs(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def relative_rms(response, y) -> float:
    """RMS of response - y over the RMS of y, recomputed from the arrays."""
    response = np.asarray(response, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sqrt(np.mean((response - y) ** 2)) / np.sqrt(np.mean(y**2)))


def ground_energy(energy: float, ip: float, tol: float = CALIBRATION_TOL) -> Check:
    err = abs(energy + ip)
    return Check("ground_energy", err <= tol, err, tol)


def residual(response, y, limit: float = RESIDUAL_LIMIT) -> Check:
    rel = relative_rms(response, y)
    return Check("residual", rel <= limit, rel, limit)


def control_law(u, response, y, k_p: float, tol: float = CONTROL_LAW_TOL) -> Check:
    """The closed-form solve must satisfy u = k_p (response - y) on every step."""
    err = _max_abs(np.asarray(u) - k_p * (np.asarray(response) - np.asarray(y)))
    return Check("control_law", err <= tol, err, tol)


def finite(channels: dict) -> Check:
    bad = sum(int(np.count_nonzero(~np.isfinite(np.asarray(v, dtype=float))))
              for v in channels.values())
    return Check("finite", bad == 0, float(bad), 0.0)


def bitwise_equal(read_back, in_memory) -> Check:
    """A CSV round trip must return the recorded floats bit for bit."""
    a = np.ascontiguousarray(read_back, dtype=np.float64)
    b = np.ascontiguousarray(in_memory, dtype=np.float64)
    if a.shape != b.shape:
        return Check("read_back", False, float("inf"), 0.0)
    diff = int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64)))
    return Check("read_back", diff == 0, float(diff), 0.0)


def imposter(comparison, db_limit: float = PLATEAU_DB_LIMIT) -> list:
    """Same cutoff order, and plateau levels that agree within ``db_limit``.

    ``comparison`` is the `SpectrumComparison` of the reference's y and
    the driven system's response.
    """
    ratios = np.asarray(comparison.ratios_db, dtype=float)
    worst = _max_abs(ratios) if ratios.size else float("inf")
    return [
        Check("cutoff_orders", comparison.delta_orders == 0,
              float(comparison.delta_orders), 0.0),
        Check("plateau_db", worst <= db_limit, worst, db_limit),
    ]


def central_difference(current, y, dt: float, quantile: float = CD_QUANTILE) -> Check:
    """Ehrenfest identity of an open-loop run: dJ/dt at node i equals y_i.

    The central difference of the recorded current misses the exact rate
    by O(dt^2): the difference stencil and the midpoint-frozen phase each
    add a term of order dt^2 J''', and J''' = y''.  The bound is dt^2
    times the 99th percentile of |y''|, from the second difference of y.
    A percentile, so that one corrupted sample cannot raise the bound.  On
    the default rings the error is 0.20 (six sites) and 0.33 (ten sites,
    one cycle) of this bound, and halving dt divides it by 4.0.
    """
    current = np.asarray(current, dtype=float)
    y = np.asarray(y, dtype=float)
    cd = (current[2:] - current[:-2]) / (2.0 * dt)
    err = _max_abs(cd - y[1:-1])
    y2 = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (dt * dt)
    bound = dt * dt * float(np.quantile(np.abs(y2), quantile))
    return Check("central_difference", err <= bound, err, bound)


def gain_ladder(residuals: dict, ratio_range=LADDER_RATIO) -> Check:
    """Residuals fall monotonically with gain, by a ratio per decade in range.

    ``residuals`` maps k_p to the relative RMS residual at that gain.
    """
    gains = sorted(residuals)
    lo, hi = ratio_range
    ratios = [(residuals[g0] / residuals[g1]) ** (1.0 / np.log10(g1 / g0))
              for g0, g1 in zip(gains, gains[1:])]
    ok = bool(ratios) and all(lo <= r <= hi for r in ratios)
    return Check("gain_ladder", ok, float(min(ratios, default=0.0)), lo)


def self_tracking(u, residual_arr) -> Check:
    """A system tracking its own record needs exactly zero control."""
    worst = _max_abs(np.concatenate([np.ravel(u), np.ravel(residual_arr)]))
    return Check("self_tracking", worst == 0.0, worst, 0.0)


def dense_hubbard_ground_energy(n_sites: int, n_up: int, n_down: int,
                                t0: float, u: float) -> float:
    """Lowest eigenvalue of the ring Hamiltonian in one (N_up, N_down) sector.

    H = -t0 sum_{j,s} (c+_{j+1,s} c_{j,s} + h.c.) + u sum_j n_{j,up} n_{j,down}
    with periodic bonds.  Modes are ordered up then down, so a hop picks
    up the parity of the same-spin occupations strictly between its ends.
    """

    def masks(n):
        return [sum(1 << s for s in c)
                for c in itertools.combinations(range(n_sites), n)]

    states = [(a, b) for a in masks(n_up) for b in masks(n_down)]
    index = {s: i for i, s in enumerate(states)}
    H = np.zeros((len(states), len(states)))
    for i, (up, dn) in enumerate(states):
        H[i, i] = u * bin(up & dn).count("1")
        for spin in (0, 1):
            occ = (up, dn)[spin]
            for j in range(n_sites):
                for src, dst in ((j, (j + 1) % n_sites), ((j + 1) % n_sites, j)):
                    if not occ >> src & 1 or occ >> dst & 1:
                        continue
                    lo, hi = min(src, dst), max(src, dst)
                    between = occ & ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
                    sign = -1.0 if bin(between).count("1") % 2 else 1.0
                    new = occ ^ (1 << src) ^ (1 << dst)
                    target = (new, dn) if spin == 0 else (up, new)
                    H[index[target], i] += -t0 * sign
    return float(np.linalg.eigvalsh(H)[0])


def dense_energy(energy: float, dense: float, tol: float = DENSE_ENERGY_TOL) -> Check:
    err = abs(energy - dense)
    return Check("dense_ground_energy", err <= tol, err, tol)
