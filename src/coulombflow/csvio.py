"""Deterministic CSV output: fixed column order, round-trip exact floats.

One rule formats every cell: %d for an integer column and %.17g for any
other (bools print as 1/0, -0.0 as -0, infinities as inf/-inf).
`format_cells` applies it to one column, so a column that several files
share can be formatted once and handed to `write_csv` as its strings.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Union

import numpy as np

__all__ = ["format_cells", "write_csv", "read_csv"]


_BLOCK_ROWS = 8192


def _spec(column: np.ndarray) -> str:
    return "%d" if column.dtype.kind in "iu" else "%.17g"


def format_cells(values) -> list[str]:
    """The cells of one column as `write_csv` prints them."""
    column = np.atleast_1d(np.asarray(values))
    spec = _spec(column)
    return [spec % v for v in column.tolist()]


def _is_formatted(column) -> bool:
    return isinstance(column, list) and bool(column) and isinstance(column[0], str)


def write_csv(
    path, header: Sequence[str], columns: Sequence[Union[np.ndarray, list[str]]]
) -> None:
    """Write columns under a header row, floats at 17 significant digits.

    A column is an array, formatted by the module's one rule, or a list of
    cells that `format_cells` already formatted, written as they are.  One
    row template serves the whole file, and each block of _BLOCK_ROWS rows
    is formatted by a single %, which bounds the memory held by the strings
    of one file.
    """
    columns = [c if _is_formatted(c) else np.atleast_1d(np.asarray(c)) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one column per header entry required")
    nrows = len(columns[0])
    for c in columns:
        if len(c) != nrows:
            raise ValueError("all columns must share a length")
    row = ",".join("%s" if isinstance(c, list) else _spec(c) for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, nrows, _BLOCK_ROWS):
            block = [
                c[start : start + _BLOCK_ROWS] if isinstance(c, list)
                else c[start : start + _BLOCK_ROWS].tolist()
                for c in columns
            ]
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
