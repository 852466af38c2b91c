"""Uniform grids on the unit torus and the spectral Coulomb machinery.

Cell-centered collocation on T^d (d = 1 or 2, unit volume).  The repulsive
potential solves -Lap(phi) = u - mean(u) with zero mean, which is diagonal in
Fourier space with symbol 1/(4 pi^2 |k|^2) on integer wavenumbers k != 0.
Face values of the drift field are obtained by a half-cell phase shift in
spectral space so that the conservative divergence keeps its accuracy.

This module owns every Fourier symbol: spectral_symbols(grid) builds them
once per grid, and the potential, the drift, the Laplacian, the energy and
the solver's mollifier all read them from there.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "SpectralSymbols",
    "make_grid",
    "spectral_symbols",
    "coulomb_drift",
    "mode_energy",
    "coulomb_potential",
    "coulomb_field",
    "spectral_laplacian",
    "lp_norm",
    "mean",
    "interaction_energy",
    "hminus1_norm",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform cell-centered grid with n cells per axis on the unit d-torus."""

    dim: int
    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def cell_measure(self) -> float:
        return self.h**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_cells(self) -> int:
        return self.n**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Cell centers along one axis, x_i = (i + 1/2) h."""
        return (np.arange(self.n) + 0.5) * self.h

    def coordinates(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coordinates()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))


@dataclass(frozen=True)
class ScalarField:
    """Cell-centered scalar samples on a torus grid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)


def make_grid(dim: int, n: int) -> TorusGrid:
    """Build a uniform torus grid; rejects dim not in {1, 2} and n not an integer >= 8.

    Each error message begins with the name of the offending argument.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim = {dim!r} is an unsupported dimension (expected 1 or 2)")
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 8:
        raise ValueError(f"n = {n} < 8 makes the grid too coarse")
    return TorusGrid(dim=dim, n=int(n))


@dataclass(frozen=True)
class SpectralSymbols:
    """Fourier multipliers of one grid, on the layout of np.fft.fftn.

    Per-axis arrays broadcast against the grid shape.  The derivative
    multipliers 2 pi i k zero the Nyquist mode to keep the odd derivative of
    real data real and symmetric; the face ones add the half-cell phase shift
    exp(i pi k h) that samples at the face on the positive side of each cell.
    """

    ksq: np.ndarray
    nonzero: np.ndarray
    lap_denom: np.ndarray  # 4 pi^2 |k|^2 on the nonzero modes
    inv_lap: np.ndarray  # 1 / (4 pi^2 |k|^2), zero on the mean mode
    cell_diff: tuple[np.ndarray, ...]
    face_diff: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=8)
def spectral_symbols(grid: TorusGrid) -> SpectralSymbols:
    """The grid's Fourier symbols, built once per grid and shared read-only."""
    k1 = np.fft.fftfreq(grid.n, d=grid.h)  # integer-valued floats
    ks = (k1,) if grid.dim == 1 else (k1[:, None], k1[None, :])
    ksq = ks[0] ** 2
    for k in ks[1:]:
        ksq = ksq + k**2
    nonzero = ksq > 0
    lap_denom = 4.0 * np.pi**2 * ksq[nonzero]
    inv_lap = np.zeros_like(ksq)
    inv_lap[nonzero] = 1.0 / lap_denom
    nyq = -grid.n // 2
    cell_diff = tuple(np.where(k == nyq, 0.0, 2j * np.pi * k) for k in ks)
    face_diff = tuple(
        d * np.exp(1j * np.pi * k * grid.h) for d, k in zip(cell_diff, ks)
    )
    for a in (ksq, nonzero, lap_denom, inv_lap, *cell_diff, *face_diff):
        a.flags.writeable = False
    return SpectralSymbols(ksq, nonzero, lap_denom, inv_lap, cell_diff, face_diff)


def coulomb_drift(
    grid: TorusGrid, uhat: np.ndarray, staggering: str = "face"
) -> tuple[np.ndarray, ...]:
    """Gradient of the Coulomb potential per axis, from uhat = fftn(u)."""
    if staggering not in ("cell", "face"):
        raise ValueError(f"unknown staggering {staggering!r}")
    sym = spectral_symbols(grid)
    mults = sym.face_diff if staggering == "face" else sym.cell_diff
    phihat = uhat * sym.inv_lap
    return tuple(np.fft.ifftn(phihat * d).real for d in mults)


def mode_energy(grid: TorusGrid, uhat: np.ndarray) -> float:
    """Squared H^-1 norm from uhat = fftn(u).

    The sum over nonzero modes of |h^d uhat(k)|^2 / (4 pi^2 |k|^2).
    """
    sym = spectral_symbols(grid)
    weighted = np.abs(uhat[sym.nonzero] * grid.cell_measure) ** 2 / sym.lap_denom
    return float(np.sum(weighted))


def coulomb_potential(u: ScalarField) -> ScalarField:
    """Zero-mean solution of -Lap(phi) = u - mean(u), computed spectrally."""
    inv_lap = spectral_symbols(u.grid).inv_lap
    return ScalarField(u.grid, np.fft.ifftn(np.fft.fftn(u.values) * inv_lap).real)


def coulomb_field(u: ScalarField, staggering: str = "cell") -> tuple[np.ndarray, ...]:
    """Gradient of the Coulomb potential, cell-centered or at +half-cell faces.

    One array per axis.  For staggering="face", component a is sampled at the
    face on the positive side of each cell along axis a.
    """
    return coulomb_drift(u.grid, np.fft.fftn(u.values), staggering)


def spectral_laplacian(u: ScalarField) -> ScalarField:
    """Spectral Laplacian, used for round-trip checks of the Coulomb solve."""
    ksq = spectral_symbols(u.grid).ksq
    out = np.fft.ifftn(np.fft.fftn(u.values) * (-4.0 * np.pi**2 * ksq)).real
    return ScalarField(u.grid, out)


def lp_norm(u: ScalarField, p: float) -> float:
    """Discrete L^p norm on the unit-volume torus; p = inf gives the max norm."""
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((np.sum(np.abs(u.values) ** p) * u.grid.cell_measure) ** (1.0 / p))


def mean(u: ScalarField) -> float:
    """Total mass, which equals the spatial average on the unit torus."""
    return float(np.sum(u.values) * u.grid.cell_measure)


def interaction_energy(u: ScalarField) -> float:
    """Quadratic Coulomb energy of the mean-free part of u."""
    return 0.5 * mode_energy(u.grid, np.fft.fftn(u.values))


def hminus1_norm(u: ScalarField) -> float:
    """Negative-order Sobolev norm of the mean-free part.

    Convention fixed here: the squared norm is the sum over nonzero modes of
    |u_hat(k)|^2 / (4 pi^2 |k|^2), so hminus1_norm(u)^2 == 2 * interaction_energy(u)
    holds exactly.
    """
    return float(np.sqrt(mode_energy(u.grid, np.fft.fftn(u.values))))
