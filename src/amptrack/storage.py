"""Deterministic CSV and JSON writers for run artifacts.

Every float is written with ``repr``, the shortest decimal string that
round-trips to the identical binary value, so rerunning a configuration
on the same build produces byte-identical files.  A run CSV is ``t`` and
then every channel of its `RunRecord`, in the record's order (see
docs/formats.md), and reads back as that record, without interpolation.
"""

import json

import numpy as np

from .exceptions import _require
from .feedback import RunRecord

__all__ = [
    "write_reference_csv",
    "write_tracking_csv",
    "write_spectrum_csv",
    "read_table",
    "write_metadata",
]


def _write_csv(path, columns: dict) -> tuple:
    """Write the named columns in order, one row per sample; return the header."""
    header = tuple(columns)
    values = list(columns.values())
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(values[0])):
            fh.write(",".join(repr(float(col[i])) for col in values) + "\n")
    return header


def _write_record(path, record) -> tuple:
    return _write_csv(path, {"t": record.dt * np.arange(len(record)),
                             **record.channels})


# ``platform`` is ignored, as a record's channels set its columns; it stays
# for callers that still pass it
def write_reference_csv(path, record, platform=None) -> tuple:
    """Write an open-loop run, ``t`` and then every channel; return the header."""
    return _write_record(path, record)


def write_tracking_csv(path, record, platform=None) -> tuple:
    """Write a tracking run, ``t`` and then every channel; return the header."""
    return _write_record(path, record)


def write_spectrum_csv(path, spectrum, omega0: float) -> tuple:
    """Write a one-sided power spectrum with the harmonic-order axis; return
    the header."""
    _require("positive", omega0=omega0)
    return _write_csv(path, {"omega": spectrum.omega,
                             "harmonic_order": spectrum.omega / omega0,
                             "power": spectrum.power})


def read_table(path) -> RunRecord:
    """Read a run CSV written by this module back into a `RunRecord`.

    The file is read once, with universal newlines, so a copy with CRLF
    (or CR) line endings reads the same as the LF original; numpy's text
    reader then fills the array, each cell read by Python's ``float``.
    A header with an empty or repeated column name is rejected, so that
    a name always means one column.  The ``t`` column must hold at least
    two rows, start at 0 and rise uniformly, to 1e-9 of its step; it sets
    the record's ``dt``, and every other column becomes a channel, in
    file order.  A file must hold at least one such column.  Every error
    names the path, and a row's error its line, blank lines counted.
    """
    with open(path, "r") as fh:
        lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, 1)
                 if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = tuple(lines[0][1].split(","))
    for j, name in enumerate(header):
        if not name:
            raise ValueError(f"{path}: header column {j + 1} has no name")
        if name in header[:j]:
            raise ValueError(f"{path}: header names column {name!r} twice")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for number, line in rows:
        if (cells := line.count(",") + 1) != len(header):
            raise ValueError(f"{path}: line {number} has {cells} cells, "
                             f"header has {len(header)}")
    try:
        data = np.loadtxt((line for _, line in rows), delimiter=",",
                          comments=None, ndmin=2, converters=float)
    except ValueError:
        for number, line in rows:
            for name, cell in zip(header, line.split(",")):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}: line {number}, column {name!r}: "
                                     f"{cell!r} is not a number") from None
        raise
    if "t" not in header:
        raise ValueError(f"{path}: no column 't'; file has {', '.join(header)}")
    if len(header) == 1:
        raise ValueError(f"{path}: no column besides 't'")
    t = data[:, header.index("t")]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least two rows to form a series")
    dt = float(t[1] - t[0])
    if not np.all(np.abs(np.diff(t) - dt) <= 1e-9 * max(1.0, abs(dt))):
        raise ValueError(f"{path}: t column is not uniformly spaced")
    if t[0] != 0.0:
        raise ValueError(f"{path}: t column starts at {float(t[0])!r}, not 0")
    channels = {name: data[:, j] for j, name in enumerate(header) if name != "t"}
    try:
        return RunRecord(dt=dt, channels=channels)
    except ValueError as exc:
        # a t column that stands still or falls breaks the record's dt rule
        raise ValueError(f"{path}: {exc}") from None


def write_metadata(path, payload: dict) -> None:
    """Write a JSON sidecar with sorted keys (no timestamps, no randomness).

    A NaN or inf anywhere in ``payload`` raises ValueError before the file
    is opened, since JSON has no such values.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
