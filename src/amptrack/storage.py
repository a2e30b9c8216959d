"""Deterministic CSV and JSON writers for run artifacts.

Every float is written with ``repr``, the shortest decimal string that
round-trips to the identical binary value, so rerunning a configuration
on the same build produces byte-identical files.  Column orders are
fixed per platform and documented in docs/formats.md; readers rebuild
time series from the ``t`` column without interpolation.
"""

import json
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

__all__ = [
    "REFERENCE_COLUMNS",
    "TRACKING_COLUMNS",
    "SPECTRUM_COLUMNS",
    "Table",
    "write_reference_csv",
    "write_tracking_csv",
    "write_spectrum_csv",
    "read_table",
    "write_metadata",
]

# fixed column orders; the per-platform observable channels come first
REFERENCE_COLUMNS = {
    "atom": ("t", "p", "force", "e_total", "y"),
    "hubbard": ("t", "current", "kinetic", "phase", "e_total", "y"),
}

TRACKING_COLUMNS = {
    "atom": ("t", "p", "force", "e_total", "u", "response", "y", "residual"),
    "hubbard": (
        "t", "current", "kinetic", "phase", "e_total",
        "u", "response", "y", "residual",
    ),
}

SPECTRUM_COLUMNS = ("omega", "harmonic_order", "power")


def _write_csv(path, header, columns) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(repr(float(col[i])) for col in columns) + "\n")


def _write_record(path, record, header) -> None:
    columns = [record.dt * np.arange(len(record))]
    columns += [record.channels[name] for name in header[1:]]
    _write_csv(path, header, columns)


def write_reference_csv(path, record, platform: str) -> None:
    """Write an open-loop run in the fixed per-platform column order."""
    _write_record(path, record, REFERENCE_COLUMNS[platform])


def write_tracking_csv(path, record, platform: str) -> None:
    """Write a tracking run in the fixed per-platform column order."""
    _write_record(path, record, TRACKING_COLUMNS[platform])


def write_spectrum_csv(path, spectrum, omega0: float) -> None:
    """Write a one-sided power spectrum with the harmonic-order axis."""
    if not omega0 > 0:
        raise ValueError("omega0 must be positive")
    order = spectrum.omega / omega0
    _write_csv(path, SPECTRUM_COLUMNS, [spectrum.omega, order, spectrum.power])


@dataclass
class Table:
    """Columns of a run CSV, with time-series reconstruction."""

    header: tuple
    columns: dict

    def __len__(self) -> int:
        return len(self.columns[self.header[0]])

    def series(self, name: str) -> TimeSeries:
        """Rebuild a channel as a uniform series from the ``t`` column."""
        for column in (name, "t"):
            if column not in self.columns:
                raise ValueError(
                    f"no column {column!r}; file has {', '.join(self.header)}"
                )
        t = self.columns["t"]
        if len(t) < 2:
            raise ValueError("need at least two rows to form a series")
        dt = float(t[1] - t[0])
        steps = np.diff(t)
        if not np.all(np.abs(steps - dt) <= 1e-9 * max(1.0, abs(dt))):
            raise ValueError("t column is not uniformly spaced")
        return TimeSeries(float(t[0]), dt, self.columns[name])


def read_table(path) -> Table:
    """Read a CSV written by this module back into named float columns.

    Lines are read with universal newlines, so a copy with CRLF (or CR)
    line endings reads the same as the LF original.
    """
    with open(path, "r") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = tuple(lines[0].split(","))
    raw = [line.split(",") for line in lines[1:]]
    if not raw:
        raise ValueError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in raw):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(raw, dtype=float)
    columns = {name: data[:, j] for j, name in enumerate(header)}
    return Table(header=header, columns=columns)


def write_metadata(path, payload: dict) -> None:
    """Write a JSON sidecar with sorted keys (no timestamps, no randomness)."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
