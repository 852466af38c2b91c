"""Decreasing rearrangement, its primitive, and support diagnostics.

Sorting the cell values in nonincreasing order and laying them out on
intervals of one cell measure gives the decreasing rearrangement u_* on
[0, 1], exactly equimeasurable with u.  Its primitive k(s) = int_0^s u_* is
piecewise linear, nondecreasing and concave; it is the object that obeys a
one-sided Hamilton-Jacobi inequality and a comparison principle against the
analytic front solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from coulombflow.torus_field import ScalarField

__all__ = [
    "RearrangedProfile",
    "rearrange",
    "support_measure",
    "support_threshold",
    "waiting_time_indicator",
    "subsolution_residual",
]


@dataclass(frozen=True)
class RearrangedProfile:
    """Nonincreasing step profile u_* and its primitive k on the mass coordinate.

    s_edges has length ncells + 1 spanning [0, 1]; u_star[i] is the value on
    [s_edges[i], s_edges[i+1]); k is the cumulative integral at the edges,
    k[0] = 0 and k[-1] = total mass.
    """

    s_edges: np.ndarray
    u_star: np.ndarray
    k: np.ndarray

    @property
    def cell_measure(self) -> float:
        return float(self.s_edges[1] - self.s_edges[0])

    @property
    def s_midpoints(self) -> np.ndarray:
        return 0.5 * (self.s_edges[:-1] + self.s_edges[1:])

    def k_at(self, s) -> np.ndarray:
        """Piecewise-linear evaluation of the primitive."""
        return np.interp(s, self.s_edges, self.k)

    def k_at_midpoints(self) -> np.ndarray:
        return 0.5 * (self.k[:-1] + self.k[1:])


def rearrange(u: ScalarField) -> RearrangedProfile:
    """Decreasing rearrangement of a nonnegative field."""
    values = u.values.ravel()
    if np.min(values) < 0:
        raise ValueError("rearrange requires nonnegative values")
    cm = u.grid.cell_measure
    u_star = np.sort(values)[::-1].copy()
    ncells = u_star.size
    s_edges = np.arange(ncells + 1) * cm
    s_edges[-1] = 1.0
    k = np.concatenate(([0.0], np.cumsum(u_star) * cm))
    return RearrangedProfile(s_edges=s_edges, u_star=u_star, k=k)


def support_threshold(u: ScalarField) -> float:
    """Level 1e-8 max(u) above which a cell counts as in the support."""
    return 1e-8 * float(np.max(u.values))


def support_measure(u: ScalarField, theta: float) -> float:
    """Cell measure times the number of cells strictly above theta."""
    return float(np.count_nonzero(u.values > theta)) * u.grid.cell_measure


def divergence_growth_threshold(m: float) -> float:
    """Per-dyadic-step growth separating the edge-mass ratio classes.

    A jump profile makes the ratio grow by exactly 2^(1/(m-1)) per dyadic
    step toward the support edge, while the critically vanishing profile
    keeps it constant; the classifier threshold is the geometric midpoint
    2^(1/(2(m-1))) between the two regimes.
    """
    return 2.0 ** (1.0 / (2.0 * (m - 1.0)))


def waiting_time_indicator(
    u0: ScalarField, m: float, S0: float
) -> tuple[str, tuple[np.ndarray, np.ndarray]]:
    """Dyadic edge-mass ratio classifier for initial support growth.

    Evaluates R(s_j) = (S0 - s_j)^(-m/(m-1)) * int_{s_j}^{S0} u0_* on the
    dyadic points s_j = S0 - 2^{-j} S0 / 4, j >= 2, down to the 4-cell
    resolution limit.  Classifies "diverges" when every growth factor among
    the last three ratios reaches the m-dependent threshold, "finite" when
    the last three ratios vary by less than 10 percent or are non-growing
    (edge profiles steeper than critical make the ratio decrease, which also
    means a finite limit), else "inconclusive".  This is a grid proxy for a
    limsup as s -> S0; the model profiles (jump edge versus critically or
    faster vanishing edge) separate cleanly under it.
    """
    if not m > 1:
        raise ValueError(f"waiting-time classification requires m > 1, got {m}")
    if not 0 < S0 < 1:
        raise ValueError(f"S0 must lie in (0, 1), got {S0}")
    profile = rearrange(u0)
    cm = profile.cell_measure
    exponent = m / (m - 1.0)
    k_total = profile.k_at(S0)

    s_list, r_list = [], []
    j = 2
    while True:
        delta = 2.0**-j * S0 / 4.0
        if delta < 4.0 * cm:
            break
        s_j = S0 - delta
        tail_mass = k_total - profile.k_at(s_j)
        s_list.append(s_j)
        r_list.append(tail_mass / delta**exponent)
        j += 1

    s_arr, r_arr = np.array(s_list), np.array(r_list)
    if len(r_arr) < 3:
        return "inconclusive", (s_arr, r_arr)
    last = r_arr[-3:]
    if np.min(last) <= 0:
        return "inconclusive", (s_arr, r_arr)
    growth = last[1:] / last[:-1]
    if np.all(growth >= divergence_growth_threshold(m)):
        return "diverges", (s_arr, r_arr)
    if np.max(last) / np.min(last) - 1.0 < 0.10 or np.all(growth <= 1.02):
        return "finite", (s_arr, r_arr)
    return "inconclusive", (s_arr, r_arr)


def subsolution_residual(
    profiles: Sequence[tuple[float, RearrangedProfile]], m: float, ubar: float
) -> float:
    """Max over interior samples of dk/dt + (ds k)_+^m (k - s ubar).

    Time derivative by centered differences across uniformly spaced profiles;
    spatial slope is the local u_star value; k is evaluated at the midpoints
    of the mass partition.  Positive values violate the one-sided inequality,
    so the return value is the measured violation (discretization floor for
    smooth runs).
    """
    if len(profiles) < 3:
        raise ValueError("subsolution_residual needs at least 3 profiles")
    times = np.array([t for t, _ in profiles])
    dts = np.diff(times)
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("profiles must be uniformly spaced in time")
    dt = float(dts[0])
    s_mid = profiles[0][1].s_midpoints
    k_mid = np.array([p.k_at_midpoints() for _, p in profiles])
    u_star = np.array([p.u_star for _, p in profiles])

    dkdt = (k_mid[2:] - k_mid[:-2]) / (2.0 * dt)
    hamil = np.maximum(u_star[1:-1], 0.0) ** m * (k_mid[1:-1] - s_mid[None, :] * ubar)
    return float(np.max(dkdt + hamil))
