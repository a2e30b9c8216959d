"""Deterministic CSV and JSON writers for run artifacts.

Every float is written with ``repr``, the shortest decimal string that
round-trips to the identical binary value, so rerunning a configuration
on the same build produces byte-identical files.  Column orders are
fixed per platform and documented in docs/formats.md; a run CSV reads
back as the `RunRecord` it was written from, without interpolation.
"""

import json

import numpy as np

from .feedback import RunRecord

__all__ = [
    "REFERENCE_COLUMNS",
    "TRACKING_COLUMNS",
    "SPECTRUM_COLUMNS",
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


def _data_line_numbers(path) -> list:
    """File line numbers of the data rows, blank lines counted.

    Read again only on a failure, to name the line at fault.
    """
    with open(path, "r") as fh:
        return [n for n, line in enumerate(fh, 1) if line.strip()][1:]


def read_table(path) -> RunRecord:
    """Read a run CSV written by this module back into a `RunRecord`.

    Lines are read with universal newlines, so a copy with CRLF (or CR)
    line endings reads the same as the LF original.  A header with an
    empty or repeated column name is rejected, so that a name always
    means one column.  The ``t`` column must hold at least two rows,
    start at 0 and be uniform to 1e-9 of its step; it sets the record's
    ``dt``, and every other column becomes a channel, in file order.
    """
    with open(path, "r") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = tuple(lines[0].split(","))
    for j, name in enumerate(header):
        if not name:
            raise ValueError(f"{path}: header column {j + 1} has no name")
        if name in header[:j]:
            raise ValueError(f"{path}: header names column {name!r} twice")
    raw = [line.split(",") for line in lines[1:]]
    if not raw:
        raise ValueError(f"{path}: no data rows")
    for i, row in enumerate(raw):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {_data_line_numbers(path)[i]} has "
                             f"{len(row)} cells, header has {len(header)}")
    try:
        data = np.array(raw, dtype=float)
    except ValueError:
        for number, row in zip(_data_line_numbers(path), raw):
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}: line {number}, column {name!r}: "
                                     f"{cell!r} is not a number") from None
        raise
    # the text rows are freed first, so the grid checks add nothing to the
    # peak memory of a read
    del lines, raw
    if "t" not in header:
        raise ValueError(f"{path}: no column 't'; file has {', '.join(header)}")
    t = data[:, header.index("t")]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least two rows to form a series")
    dt = float(t[1] - t[0])
    if not np.all(np.abs(np.diff(t) - dt) <= 1e-9 * max(1.0, abs(dt))):
        raise ValueError(f"{path}: t column is not uniformly spaced")
    if t[0] != 0.0:
        raise ValueError(f"{path}: t column starts at {float(t[0])!r}, not 0")
    channels = {name: data[:, j] for j, name in enumerate(header) if name != "t"}
    return RunRecord(dt=dt, channels=channels)


def write_metadata(path, payload: dict) -> None:
    """Write a JSON sidecar with sorted keys (no timestamps, no randomness).

    A NaN or inf anywhere in ``payload`` raises ValueError before the file
    is opened, since JSON has no such values.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
