"""Initial-condition builders for the experiment configs."""

from __future__ import annotations

import numpy as np

from coulombflow.torus_field import ScalarField, TorusGrid

__all__ = ["build_initial_condition", "KINDS"]


def _constant(grid: TorusGrid, value: float) -> np.ndarray:
    if value < 0:
        raise ValueError("constant initial value must be >= 0")
    return np.full(grid.shape, float(value))


def _cosine(grid: TorusGrid, base: float, amplitudes=()) -> np.ndarray:
    """base + sum_k a_k cos(2 pi k x); in 2-D the mode is averaged over axes."""
    out = np.full(grid.shape, float(base))
    coords = grid.coordinates()
    for k, a in enumerate(amplitudes, start=1):
        if grid.dim == 1:
            out += a * np.cos(2 * np.pi * k * coords[0])
        else:
            out += (
                a
                * 0.5
                * (np.cos(2 * np.pi * k * coords[0]) + np.cos(2 * np.pi * k * coords[1]))
            )
    return out


def _blocks(grid: TorusGrid, blocks) -> np.ndarray:
    """Sum of indicator blocks: (lo, hi, height) in 1-D, plus (x2lo, x2hi) in 2-D."""
    out = np.zeros(grid.shape)
    coords = grid.coordinates()
    for block in blocks:
        if grid.dim == 1:
            lo, hi, height = block
            mask = (coords[0] > lo) & (coords[0] < hi)
        else:
            x1lo, x1hi, x2lo, x2hi, height = block
            mask = (
                (coords[0] > x1lo)
                & (coords[0] < x1hi)
                & (coords[1] > x2lo)
                & (coords[1] < x2hi)
            )
        if height < 0:
            raise ValueError("block height must be >= 0")
        out[mask] += height
    return out


def _power_edge(
    grid: TorusGrid, c: float, s0: float, exponent: float, center: float = 0.5
) -> np.ndarray:
    """Compact bump whose rearrangement vanishes like (s0 - s)^exponent.

    1-D: c * (1 - |x - center| / (s0/2))_+^exponent on an interval of measure
    s0.  2-D: the cone analogue on a disc of area s0 (same edge exponent in
    the mass coordinate near s0).
    """
    if not 0 < s0 < 1:
        raise ValueError("power_edge support measure s0 must lie in (0, 1)")
    if c <= 0 or exponent <= 0:
        raise ValueError("power_edge needs c > 0 and exponent > 0")
    coords = grid.coordinates()
    if grid.dim == 1:
        d = np.abs(coords[0] - center)
        d = np.minimum(d, 1.0 - d)
        prof = 1.0 - d / (s0 / 2.0)
    else:
        r0 = np.sqrt(s0 / np.pi)
        d1 = np.abs(coords[0] - center)
        d1 = np.minimum(d1, 1.0 - d1)
        d2 = np.abs(coords[1] - center)
        d2 = np.minimum(d2, 1.0 - d2)
        prof = 1.0 - np.sqrt(d1**2 + d2**2) / r0
    return c * np.maximum(prof, 0.0) ** exponent


def _from_file(grid: TorusGrid, path: str) -> np.ndarray:
    vals = np.loadtxt(path, delimiter=",", dtype=float)
    flat = np.atleast_1d(vals).ravel()
    if flat.size != grid.num_cells:
        raise ValueError(
            f"file {path} has {flat.size} values, grid needs {grid.num_cells}"
        )
    if np.min(flat) < 0:
        raise ValueError("initial data from file must be nonnegative")
    return flat.reshape(grid.shape)


# kind -> (builder, required keys, optional keys); the keys are the builder's arguments
KINDS = {
    "constant": (_constant, ("value",), ()),
    "cosine": (_cosine, ("base",), ("amplitudes",)),
    "blocks": (_blocks, ("blocks",), ()),
    "power_edge": (_power_edge, ("c", "s0", "exponent"), ("center",)),
    "from_file": (_from_file, ("path",), ()),
}


def build_initial_condition(grid: TorusGrid, params: dict) -> ScalarField:
    """Construct the initial field from a config dictionary: `kind` and its keys.

    A missing required key raises KeyError naming it; a key the kind does not
    use, or an unknown kind, raises ValueError.
    """
    kind = params.get("kind")
    if not (isinstance(kind, str) and kind in KINDS):
        raise ValueError(
            f"unknown initial_condition.kind: {kind!r} (expected one of {tuple(KINDS)})"
        )
    builder, required, optional = KINDS[kind]
    unused = params.keys() - {"kind", *required, *optional}
    if unused:
        raise ValueError(
            f"initial_condition.{min(unused)} is not used by kind {kind!r}; "
            f"it takes {[*required, *optional]}"
        )
    vals = builder(
        grid, *(params[key] for key in required), **{k: params[k] for k in optional if k in params}
    )
    if np.min(vals) < 0:
        raise ValueError("initial condition must be nonnegative")
    return ScalarField(grid, vals)
