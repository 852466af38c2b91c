"""Uniform grids on the unit torus and the spectral Coulomb machinery.

Cell-centered collocation on T^d (d = 1 or 2, unit volume).  The repulsive
potential solves -Lap(phi) = u - mean(u) with zero mean, which is diagonal in
Fourier space with symbol 1/(4 pi^2 |k|^2) on integer wavenumbers k != 0.
Face values of the drift field are obtained by a half-cell phase shift in
spectral space so that the conservative divergence keeps its accuracy.

This module owns every Fourier symbol: spectral_symbols(grid) builds them
once per grid, and the potential, the drift, the Laplacian, the energy and
the mollifier of initial data all read them from there.  The data are real,
so every operation runs on the half spectrum of np.fft.rfftn: the first axis
keeps all n wavenumbers (fftfreq), the last only 0..n//2 (rfftfreq), and
irfftn restores the real field.  The modes the half spectrum leaves out are
the complex conjugates of the ones it keeps, which the energy counts with a
weight of 2.  Odd derivatives zero the Nyquist mode, 2|k| = n, which exists
only for even n.

A field occupies the trailing grid.axes of an array.  half_spectrum, the
drift and the energy work over those axes only, so a leading batch axis of
fields on one grid passes through them.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "SpectralSymbols",
    "make_grid",
    "spectral_symbols",
    "half_spectrum",
    "coulomb_drift",
    "mode_energy",
    "coulomb_potential",
    "coulomb_field",
    "spectral_laplacian",
    "mollify",
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

    @functools.cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing array axes a field on this grid occupies; leading axes are a batch."""
        return tuple(range(-self.dim, 0))

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


def is_number(value, kind: type = numbers.Real) -> bool:
    """Whether value is a finite number: an instance of the numeric ABC kind, not a bool.

    The one rule for a number read from outside; each caller checks only
    its own range.  Finite means an absolute value of at most the largest
    float, which rejects NaN, both infinities and integers too large for a
    float.  numbers.Real and numbers.Integral include bool, so without the
    bool test a JSON true would pass as 1.
    """
    return (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def make_grid(dim: int, n: int) -> TorusGrid:
    """Build a uniform torus grid; rejects dim not in {1, 2} and n not an integer >= 8.

    Each error message begins with the name of the offending argument.
    """
    if not (is_number(dim, numbers.Integral) and dim in (1, 2)):
        raise ValueError(f"dim = {dim!r} is an unsupported dimension (expected 1 or 2)")
    if not is_number(n, numbers.Integral):
        raise ValueError(f"n must be a finite integer, got {n!r}")
    if n < 8:
        raise ValueError(f"n = {n} < 8 makes the grid too coarse")
    return TorusGrid(dim=int(dim), n=int(n))


@dataclass(frozen=True)
class SpectralSymbols:
    """Fourier multipliers of one grid, on the half-spectrum layout of np.fft.rfftn.

    Per-axis arrays broadcast against the half-spectrum shape: the last axis
    holds the wavenumbers 0..n//2, where the Nyquist mode n/2 (even n only)
    is +n/2.  The derivative multipliers 2 pi i k zero the Nyquist mode,
    wherever 2|k| = n, to keep the odd derivative of real data real and
    symmetric; the face ones add the half-cell phase shift exp(i pi k h)
    that samples at the face on the positive side of each cell.
    energy_weight is inv_lap times the Hermitian multiplicity of each kept
    mode: 1 on the k_last = 0 and Nyquist columns, which have no conjugate
    partner among the left-out modes, and 2 elsewhere.
    """

    ksq: np.ndarray
    inv_lap: np.ndarray  # 1 / (4 pi^2 |k|^2), zero on the mean mode
    energy_weight: np.ndarray
    cell_diff: tuple[np.ndarray, ...]
    face_diff: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=8)
def spectral_symbols(grid: TorusGrid) -> SpectralSymbols:
    """The grid's Fourier symbols, built once per grid and shared read-only."""
    # Rounded, because n * (1/n) != 1 in floating point for some n (49, 98, ...)
    k_last = np.fft.rfftfreq(grid.n, d=grid.h).round()
    if grid.dim == 1:
        ks = (k_last,)
    else:
        ks = (np.fft.fftfreq(grid.n, d=grid.h).round()[:, None], k_last[None, :])
    ksq = ks[0] ** 2
    for k in ks[1:]:
        ksq = ksq + k**2
    nonzero = ksq > 0
    inv_lap = np.zeros_like(ksq)
    inv_lap[nonzero] = 1.0 / (4.0 * np.pi**2 * ksq[nonzero])
    unpaired = (k_last == 0) | (2 * k_last == grid.n)
    energy_weight = np.where(unpaired, 1.0, 2.0) * inv_lap
    cell_diff = tuple(np.where(2 * np.abs(k) == grid.n, 0.0, 2j * np.pi * k) for k in ks)
    face_diff = tuple(
        d * np.exp(1j * np.pi * k * grid.h) for d, k in zip(cell_diff, ks)
    )
    for a in (ksq, inv_lap, energy_weight, *cell_diff, *face_diff):
        a.flags.writeable = False
    return SpectralSymbols(ksq, inv_lap, energy_weight, cell_diff, face_diff)


def half_spectrum(
    grid: TorusGrid, values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """rfftn of fields on `grid` over the trailing axes; leading axes are a batch.

    At d = 1 this is np.fft.rfft itself, which rfftn calls after its axis
    bookkeeping; skipping that saves a few microseconds a call.  out, if
    given, is the complex array the spectrum is written into (the `out` of
    numpy's FFT functions, new in numpy 2.0).
    """
    if grid.dim == 1:
        return np.fft.rfft(values, out=out)
    return np.fft.rfftn(values, s=grid.shape, axes=grid.axes, out=out)


def _to_grid(grid: TorusGrid, xhat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The real fields on `grid` whose half spectra, over the trailing axes, are xhat.

    At d = 2 these are the two calls irfftn makes, with the first one's
    result written over xhat, so xhat is lost.  out, if given, is the real
    array the fields are written into.
    """
    if grid.dim == 1:
        return np.fft.irfft(xhat, grid.n, out=out)
    np.fft.ifft(xhat, grid.n, axis=-2, out=xhat)
    return np.fft.irfft(xhat, grid.n, axis=-1, out=out)


def _fourier_multiply(u: ScalarField, multiplier: np.ndarray) -> np.ndarray:
    """Values of u with each Fourier mode scaled by a half-spectrum multiplier."""
    return _to_grid(u.grid, half_spectrum(u.grid, u.values) * multiplier)


def coulomb_drift(
    grid: TorusGrid,
    uhat: np.ndarray,
    staggering: str = "face",
    out: Optional[tuple[np.ndarray, ...]] = None,
    spec: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, ...]:
    """Gradient of the Coulomb potential per axis, from uhat = rfftn(u).

    uhat may carry leading batch axes before the grid's half spectrum; each
    returned array then has the same leading axes.  Each axis's spectrum,
    uhat * inv_lap times its derivative symbol, is built in spec and
    transformed from there.  out, if given, holds one real array per axis
    the drift is written into, and spec, if given, is a complex array
    shaped like uhat; those that are not given are allocated.
    """
    if staggering not in ("cell", "face"):
        raise ValueError(f"unknown staggering {staggering!r}")
    sym = spectral_symbols(grid)
    mults = sym.face_diff if staggering == "face" else sym.cell_diff
    faces = []
    for d, face in zip(mults, out or (None,) * grid.dim):
        spec = np.multiply(uhat, sym.inv_lap, out=spec)
        np.multiply(spec, d, out=spec)
        faces.append(_to_grid(grid, spec, face))
    return tuple(faces)


def mode_energy(grid: TorusGrid, uhat: np.ndarray) -> np.ndarray:
    """Squared H^-1 norm from uhat = rfftn(u), per field of a batch.

    The sum over all nonzero modes of |h^d uhat(k)|^2 / (4 pi^2 |k|^2), as one
    energy_weight-weighted sum over the half spectrum, reduced along the
    trailing grid axes: a scalar for one field, an array over the leading
    axes for a batch.
    """
    power = uhat.real**2 + uhat.imag**2
    weighted = spectral_symbols(grid).energy_weight * power
    return weighted.sum(axis=grid.axes) * grid.cell_measure**2


def coulomb_potential(u: ScalarField) -> ScalarField:
    """Zero-mean solution of -Lap(phi) = u - mean(u), computed spectrally."""
    return ScalarField(u.grid, _fourier_multiply(u, spectral_symbols(u.grid).inv_lap))


def coulomb_field(u: ScalarField, staggering: str = "cell") -> tuple[np.ndarray, ...]:
    """Gradient of the Coulomb potential, cell-centered or at +half-cell faces.

    One array per axis.  For staggering="face", component a is sampled at the
    face on the positive side of each cell along axis a.
    """
    return coulomb_drift(u.grid, half_spectrum(u.grid, u.values), staggering)


def spectral_laplacian(u: ScalarField) -> ScalarField:
    """Spectral Laplacian, used for round-trip checks of the Coulomb solve."""
    ksq = spectral_symbols(u.grid).ksq
    return ScalarField(u.grid, _fourier_multiply(u, -4.0 * np.pi**2 * ksq))


# exp(-2 pi^2 w^2 |k|^2) is 0 in float64 for every wavenumber k != 0 once w
# exceeds about 6.2, so every width beyond this one damps exactly as it does.
_MOLLIFY_WIDTH_CAP = 1e3


def mollify(u: ScalarField, width: float) -> ScalarField:
    """Spectral Gaussian smoothing with standard deviation `width`; u itself if width <= 0.

    A width beyond ~6.2 leaves only the mean.  Widths are capped at 1e3,
    where that already holds, so width**2 cannot overflow.
    """
    if width <= 0:
        return u
    width = min(width, _MOLLIFY_WIDTH_CAP)
    damp = np.exp(-2.0 * np.pi**2 * width**2 * spectral_symbols(u.grid).ksq)
    return ScalarField(u.grid, np.maximum(_fourier_multiply(u, damp), 0.0))


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
    return float(0.5 * mode_energy(u.grid, half_spectrum(u.grid, u.values)))


def hminus1_norm(u: ScalarField) -> float:
    """Negative-order Sobolev norm of the mean-free part.

    Convention fixed here: the squared norm is the sum over nonzero modes of
    |u_hat(k)|^2 / (4 pi^2 |k|^2), so hminus1_norm(u)^2 == 2 * interaction_energy(u)
    holds exactly.
    """
    return float(np.sqrt(mode_energy(u.grid, half_spectrum(u.grid, u.values))))
