"""Initial-condition builders for the experiment configs."""

from __future__ import annotations

import sys

import numpy as np

from coulombflow.torus_field import ScalarField, TorusGrid, is_number

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
    the mass coordinate near s0).  An s0 whose support radius, s0/2 or
    sqrt(s0/pi), rounds to 0 is rejected.
    """
    if not 0 < s0 < 1:
        raise ValueError("power_edge support measure s0 must lie in (0, 1)")
    if c <= 0 or exponent <= 0:
        raise ValueError("power_edge needs c > 0 and exponent > 0")
    coords = grid.coordinates()
    if grid.dim == 1:
        radius = s0 / 2.0
        dist = np.abs(coords[0] - center)
        dist = np.minimum(dist, 1.0 - dist)
    else:
        radius = np.sqrt(s0 / np.pi)
        d1 = np.abs(coords[0] - center)
        d1 = np.minimum(d1, 1.0 - d1)
        d2 = np.abs(coords[1] - center)
        d2 = np.minimum(d2, 1.0 - d2)
        dist = np.sqrt(d1**2 + d2**2)
    if radius == 0.0:
        raise ValueError(
            f"initial_condition.s0 = {s0!r} is too small: the support's radius rounds to 0"
        )
    # clipped at the radius, the distance over the radius cannot overflow
    return c * (1.0 - np.minimum(dist, radius) / radius) ** exponent


def _from_file(grid: TorusGrid, path: str) -> np.ndarray:
    vals = np.loadtxt(path, delimiter=",", dtype=float)
    flat = np.atleast_1d(vals).ravel()
    if flat.size != grid.num_cells:
        raise ValueError(
            f"file {path} has {flat.size} values, grid needs {grid.num_cells}"
        )
    if not np.isfinite(flat).all():
        raise ValueError(f"file {path} holds a non-finite value; initial data must be finite")
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

# The keys that hold numbers, each with its nesting: a number (0), a list of
# numbers (1) or a list of number lists (2).  path is the only other key.
_NUMERIC = {
    "value": 0, "base": 0, "c": 0, "s0": 0, "exponent": 0, "center": 0,
    "amplitudes": 1, "blocks": 2,
}
_NUMERIC_NAMES = (
    "a finite number", "a list of finite numbers", "a list of finite-number lists"
)


def _holds_numbers(value, depth: int) -> bool:
    """Whether value is a finite number (depth 0) or a list of such values nested depth deep.

    A JSON boolean is not a number (`is_number`).  Finite means within the
    float range, which rejects NaN, the infinities and integers too large
    for a float.
    """
    if depth == 0:
        return is_number(value) and abs(value) <= sys.float_info.max
    return isinstance(value, (list, tuple)) and all(_holds_numbers(v, depth - 1) for v in value)


def build_initial_condition(grid: TorusGrid, params: dict) -> ScalarField:
    """Construct the initial field from a config dictionary: `kind` and its keys.

    A missing required key raises KeyError naming it; a key the kind does not
    use, an unknown kind, or a numeric key that holds anything but finite
    numbers (a JSON boolean, NaN or an infinity included) raises ValueError
    naming it.
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
    for key in sorted(params.keys() & _NUMERIC.keys()):
        depth = _NUMERIC[key]
        if not _holds_numbers(params[key], depth):
            raise ValueError(
                f"initial_condition.{key} must be {_NUMERIC_NAMES[depth]}, got {params[key]!r}"
            )
    vals = builder(
        grid, *(params[key] for key in required), **{k: params[k] for k in optional if k in params}
    )
    if np.min(vals) < 0:
        raise ValueError("initial condition must be nonnegative")
    return ScalarField(grid, vals)
