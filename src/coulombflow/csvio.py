"""Deterministic CSV output: fixed column order, round-trip exact floats."""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

__all__ = ["write_csv", "read_csv"]


_BLOCK_ROWS = 8192


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write columns under a header row, floats at 17 significant digits.

    One row template serves the whole file: %d for integer columns and %.17g
    for the others.  Each block of _BLOCK_ROWS rows is formatted by a single
    %, which bounds the memory held by the strings of one file.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one column per header entry required")
    nrows = len(columns[0])
    for c in columns:
        if len(c) != nrows:
            raise ValueError("all columns must share a length")
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, nrows, _BLOCK_ROWS):
            block = [c[start : start + _BLOCK_ROWS].tolist() for c in columns]
            fh.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


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
