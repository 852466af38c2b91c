"""Deterministic CSV output: fixed column order, round-trip exact floats."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["write_csv", "read_csv"]


_BLOCK_ROWS = 8192


def _format_column(values: np.ndarray) -> list[str]:
    """Integers as str, everything else as format(float(x), ".17g"), one per value."""
    vals = values.tolist()
    if values.dtype.kind in "iu":
        return list(map(str, vals))
    return (("%.17g\n" * len(vals)) % tuple(vals)).split("\n")[:-1]


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write columns under a header row, floats at 17 significant digits.

    Rows are formatted column by column in blocks of _BLOCK_ROWS, which bounds
    the memory held by the strings of one file.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one column per header entry required")
    nrows = len(columns[0])
    for c in columns:
        if len(c) != nrows:
            raise ValueError("all columns must share a length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, nrows, _BLOCK_ROWS):
            cells = [_format_column(c[start : start + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a header + float matrix CSV written by write_csv."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty CSV: {path}")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    mat = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, {name: mat[:, j] for j, name in enumerate(header)}
