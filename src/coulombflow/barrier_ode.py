"""Scalar comparison dynamics dPhi/dt = Phi^m (ubar - Phi) and its envelopes.

This ODE bounds the running max and min of solutions of the transport model:
trajectories started at the initial max (resp. min) dominate (resp. minorize)
the solution pointwise; closed-form envelopes bound the curve case by case.

The curve is the inverse of its exact time map.  With Phi = ubar (1 +
e^-sigma)^q, q = -1 below ubar and +1 above, the ODE becomes ubar^m t =
integral from sigma0 to sigma of (1 + e^-s)^p ds, with p = m - 1 below ubar,
p = -m above and sigma0 = log(min(beta, ubar) / |beta - ubar|).  Outside
|s| <= 36 the smooth integrand is e^-ps (s < 0) or 1 (s > 0) to ~1e-16
relative, so both ends integrate and invert in closed form.  beta = inf and
beta = 0 with m < 1 (the positive branch leaving 0) start at sigma0 = -inf;
beta = 0 with m >= 1 has an infinite tail integral: the zero solution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "BarrierParams",
    "phi",
    "phi_curve",
    "phi_envelopes",
    "tau_half",
    "lower_barrier",
    "upper_regularization",
]

_TAIL, _PIECE = 36.0, 0.25  # closed-form ends beyond |sigma| = 36; quadrature pieces


@dataclass(frozen=True)
class BarrierParams:
    """Mass ubar > 0, initial value beta in [0, inf], mobility exponent m > 0."""

    ubar: float
    beta: float
    m: float

    def __post_init__(self):
        if not self.ubar > 0:
            raise ValueError(f"ubar must be positive, got {self.ubar}")
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not (self.beta >= 0 or math.isinf(self.beta)):
            raise ValueError(f"beta must be >= 0 or +inf, got {self.beta}")


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss-Legendre rule on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(8)
    return 0.5 * (x + 1.0), 0.5 * w


def _quad(p: float, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Integral of (1 + e^-s)^p over each [left, right] (length <= 0.25)."""
    x, w = _gauss_legendre()
    width = right - left
    return width * ((1.0 + np.exp(-(left[:, None] + width[:, None] * x))) ** p @ w)


@dataclass(frozen=True)
class _TimeMap:
    """cum[k] is the integral from sigma0 to knots[k], on pieces of length 0.25
    from max(sigma0, -36) to max(sigma0, 36); cum[0] is the closed-form tail."""

    p: float
    sigma0: float
    knots: np.ndarray
    cum: np.ndarray

    @classmethod
    def of(cls, ubar: float, beta: float, m: float) -> _TimeMap:
        p = m - 1.0 if beta < ubar else -m
        # sigma0 = -inf at beta = 0 or inf; the tail overflows to inf for the zero solution
        with np.errstate(divide="ignore", over="ignore"):
            sigma0 = float(np.log(np.divide(min(beta, ubar), abs(beta - ubar))))
            lo, hi = max(sigma0, -_TAIL), max(sigma0, _TAIL)
            tail = lo - sigma0 if p == 0 else np.exp(-p * lo) * np.expm1(p * (lo - sigma0)) / p
        knots = np.linspace(lo, hi, math.ceil((hi - lo) / _PIECE) + 1)
        cum = tail + np.concatenate([[0.0], np.cumsum(_quad(p, knots[:-1], knots[1:]))])
        return cls(p, sigma0, knots, cum)

    def time(self, sigma: float) -> float:
        """The integral from sigma0 to a sigma inside the knots, summed pairwise."""
        k = int(np.searchsorted(self.knots, sigma, side="right"))
        ends = np.append(self.knots[1:k], sigma)
        return float(self.cum[0] + np.sum(_quad(self.p, self.knots[:k], ends)))

    def sigma(self, tau: np.ndarray) -> np.ndarray:
        """Invert the time map at integral values tau >= 0."""
        p, sigma0, knots, cum = self.p, self.sigma0, self.knots, self.cum
        out = knots[-1] + (tau - cum[-1])
        tail = tau < cum[0]
        with np.errstate(divide="ignore", over="ignore"):
            if p == 0:
                out[tail] = sigma0 + tau[tail]
            elif p < 0:
                out[tail] = -np.logaddexp(-p * sigma0, np.log(-p * tau[tail])) / p
            else:
                out[tail] = sigma0 - np.log1p(-p * tau[tail] * np.exp(p * sigma0)) / p
        # Newton inside each value's piece, from the linear interpolant
        inner = ~tail & (tau < cum[-1])
        target = tau[inner]
        k = np.searchsorted(cum, target, side="right") - 1
        left, c = knots[k], cum[k]
        s = left + (knots[k + 1] - left) * (target - c) / (cum[k + 1] - c)
        for _ in range(8):
            step = (c + _quad(p, left, s) - target) / (1.0 + np.exp(-s)) ** p
            s -= step
            if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(s))):
                break
        out[inner] = s
        return out


def phi_curve(params: BarrierParams, ts) -> np.ndarray:
    """Evaluate the comparison curve at sorted times ts >= 0 (> 0 if beta=inf)."""
    ubar, beta, m = params.ubar, params.beta, params.m
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(np.diff(ts) < 0):
        raise ValueError("times must be sorted")
    if len(ts) == 0:
        return np.array([])
    if math.isinf(beta) and ts[0] <= 0:
        raise ValueError("beta = +inf requires t > 0")
    if ts[0] < 0:
        raise ValueError("t must be >= 0")
    if beta == ubar:
        return np.full(len(ts), ubar)
    tmap = _TimeMap.of(ubar, beta, m)
    # ubar (1 + e^-sigma)^q with q = sign(beta - ubar), free of overflow at sigma << 0
    out = ubar * np.exp(np.sign(beta - ubar) * np.logaddexp(0.0, -tmap.sigma(ubar**m * ts)))
    # exact at t = 0 and between beta and ubar, past the ulps lost through sigma0
    out[ts == 0] = beta
    return np.clip(out, min(beta, ubar), max(beta, ubar))


def phi(params: BarrierParams, t: float) -> float:
    """Comparison curve value at a single time."""
    return float(phi_curve(params, [t])[0])


def tau_half(params: BarrierParams) -> float:
    """First time the increasing branch reaches ubar / 2 (m < 1, beta < ubar).

    The half level is sigma = 0, so this is the time map evaluated there.  A
    rigorous a priori bound for the crossing is 2^m / ((1 - m) ubar^m),
    obtained by integrating Phi' >= Phi^m ubar / 2 below the half level.
    """
    ubar, beta, m = params.ubar, params.beta, params.m
    if m >= 1:
        raise ValueError(f"tau_half requires m < 1, got m = {m}")
    if not 0 <= beta < ubar:
        raise ValueError(f"tau_half requires 0 <= beta < ubar, got beta = {beta}")
    if beta >= 0.5 * ubar:
        return 0.0
    return _TimeMap.of(ubar, beta, m).time(0.0) / ubar**m


def phi_envelopes(params: BarrierParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (lower, upper) bounds for the comparison curve.

    beta > ubar: decreasing case, upper bound is the tighter of the algebraic
    and the exponential envelope.  beta < ubar with m >= 1: exponential lower
    envelope.  beta < ubar with m < 1: power-law lower envelope up to the
    half-level crossing, exponential contraction restarted there.  Scalars in,
    scalars out; arrays broadcast.
    """
    ubar, beta, m = params.ubar, params.beta, params.m
    t = np.asarray(t, dtype=float)
    if math.isinf(beta):
        upper = ubar + (np.maximum(t, 0.0) * m) ** (-1.0 / m)
        return np.full_like(upper, ubar), upper
    if beta == ubar:
        return np.full_like(t, ubar), np.full_like(t, ubar)
    if beta > ubar:
        gap = beta - ubar
        alg = (t * m + gap**-m) ** (-1.0 / m)
        expo = gap * np.exp(-(ubar**m) * t)
        return np.full_like(t, ubar), ubar + np.minimum(alg, expo)
    if m >= 1:
        lower = beta - (ubar - beta) * np.expm1(-(beta**m) * t)
        return lower, np.full_like(t, ubar)
    # beta < ubar, m < 1: tau_half branching
    tau = tau_half(params)
    with np.errstate(divide="ignore"):  # log form of the power law, accurate as m -> 1
        log_base = np.logaddexp((1.0 - m) * np.log(beta), np.log((1.0 - m) * 0.5 * ubar * t))
    power = np.exp(log_base / (1.0 - m))
    expo = ubar - 0.5 * ubar * np.exp(-((0.5 * ubar) ** m) * np.maximum(t - tau, 0.0))
    lower = np.where(t <= tau, np.minimum(power, 0.5 * ubar), expo)
    return lower, np.full_like(t, ubar)


def lower_barrier(ubar: float, m: float, min0: float, t) -> Union[float, np.ndarray]:
    """Pointwise lower bound for fast-diffusion (m < 1) solutions with minimum min0.

    The lower envelope of `phi_envelopes` from beta = min0: the power law
    (min0^(1-m) + (1 - m) ubar t / 2)^(1/(1-m)) up to the half-level time,
    exponential saturation toward the mass restarted there.  It lies below
    the comparison curve from min0, which the minimum of a smooth solution
    follows, so below tanh^2(t/2) at m = 1/2, ubar = 1, min0 = 0.
    """
    if not 0 < m < 1:
        raise ValueError(f"lower_barrier requires 0 < m < 1, got m = {m}")
    if min0 < 0:
        raise ValueError("min0 must be >= 0")
    out = phi_envelopes(BarrierParams(ubar=ubar, beta=min0, m=m), t)[0]
    return float(out) if out.ndim == 0 else out


def upper_regularization(ubar: float, m: float, t) -> Union[float, np.ndarray]:
    """Instantaneous sup bound ubar + (m t)^(-1/m), valid for any bounded data.

    The upper envelope of `phi_envelopes` from beta = inf.
    """
    out = phi_envelopes(BarrierParams(ubar=ubar, beta=math.inf, m=m), t)[1]
    return float(out) if out.ndim == 0 else out
