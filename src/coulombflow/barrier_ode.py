"""Scalar comparison dynamics dPhi/dt = Phi^m (ubar - Phi) and its envelopes.

This ODE bounds the running max and min of solutions of the transport model:
trajectories started at the initial max (resp. min) dominate (resp. minorize)
the solution pointwise.  Closed-form envelopes exist case by case; for
m < 1 the right-hand side is not Lipschitz at 0 and the positive increasing
branch through beta = 0 is selected by integrating the substituted variable
psi = Phi^(1-m), whose dynamics psi' = (1-m)(ubar - psi^(1/(1-m))) is regular
at psi = 0.

scipy is imported inside `_solve` and `tau_half`, not at module top: this
module is imported by the package and the CLI, and only a barrier solve
needs scipy, so `simulate`, `fronts` and `plot` run without loading it.
"""

from __future__ import annotations

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

_RTOL = 1e-10
_ATOL = 1e-13


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


class BarrierIntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails; carries the last bracket."""

    def __init__(self, message: str, t_bracket=None):
        super().__init__(message)
        self.t_bracket = t_bracket


def _solve(fun, t0: float, y0: float, t_eval: np.ndarray) -> np.ndarray:
    from scipy.integrate import solve_ivp

    t_end = float(t_eval[-1])
    if t_end == t0:
        return np.full(len(t_eval), y0)
    sol = solve_ivp(
        fun,
        (t0, t_end),
        [y0],
        method="RK45",
        rtol=_RTOL,
        atol=_ATOL,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise BarrierIntegrationError(
            f"barrier ODE integration failed: {sol.message}",
            t_bracket=(sol.t[-1] if len(sol.t) else t0, t_end),
        )
    return sol.y[0]


def phi_curve(params: BarrierParams, ts) -> np.ndarray:
    """Evaluate the comparison curve at sorted times ts >= 0 (> 0 if beta=inf)."""
    ubar, beta, m = params.ubar, params.beta, params.m
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(np.diff(ts) < 0):
        raise ValueError("times must be sorted")
    if len(ts) == 0:
        return np.array([])

    if math.isinf(beta):
        if ts[0] <= 0:
            raise ValueError("beta = +inf requires t > 0")
        # start from the regularizing majorant just before the first
        # requested time; the flow contracts the seeding excess forward
        t0 = ts[0] * 1e-3
        y0 = ubar + (t0 * m) ** (-1.0 / m)
        fun = lambda t, y: y[0] ** m * (ubar - y[0])
        return _solve(fun, t0, y0, ts)

    if ts[0] < 0:
        raise ValueError("t must be >= 0")
    if beta == ubar:
        return np.full(len(ts), ubar)

    if m < 1 and beta < ubar:
        # positive increasing branch via psi = Phi^(1-m); regular at psi = 0
        q = 1.0 / (1.0 - m)
        fun = lambda t, y: (1.0 - m) * (ubar - max(y[0], 0.0) ** q)
        psi = _solve(fun, 0.0, beta ** (1.0 - m), ts)
        return np.maximum(psi, 0.0) ** q

    if beta == 0.0:
        # m >= 1: the zero solution is the unique one
        return np.zeros(len(ts))

    fun = lambda t, y: max(y[0], 0.0) ** m * (ubar - y[0])
    return _solve(fun, 0.0, beta, ts)


def phi(params: BarrierParams, t: float) -> float:
    """Comparison curve value at a single time."""
    return float(phi_curve(params, [t])[0])


def tau_half(params: BarrierParams) -> float:
    """First time the increasing branch reaches ubar / 2 (m < 1, beta < ubar).

    Found by bisection on the monotone numerical solution.  A rigorous a
    priori bound for the crossing is 2^m / ((1 - m) ubar^m), obtained by
    integrating Phi' >= Phi^m ubar / 2 below the half level.
    """
    ubar, beta, m = params.ubar, params.beta, params.m
    if m >= 1:
        raise ValueError(f"tau_half requires m < 1, got m = {m}")
    if not 0 <= beta < ubar:
        raise ValueError(f"tau_half requires 0 <= beta < ubar, got beta = {beta}")
    if beta >= 0.5 * ubar:
        return 0.0
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    t_max = 2.0 * 2.0**m / ((1.0 - m) * ubar**m) + 1.0
    q = 1.0 / (1.0 - m)
    target = (0.5 * ubar) ** (1.0 - m)
    fun = lambda t, y: (1.0 - m) * (ubar - max(y[0], 0.0) ** q)
    sol = solve_ivp(
        fun,
        (0.0, t_max),
        [beta ** (1.0 - m)],
        method="RK45",
        rtol=_RTOL,
        atol=_ATOL,
        dense_output=True,
    )
    if not sol.success:
        raise BarrierIntegrationError("tau_half integration failed", (0.0, t_max))
    end_val = sol.sol(t_max)[0]
    if end_val < target:
        raise BarrierIntegrationError(
            "half level not reached inside the a priori window", (0.0, t_max)
        )
    return float(brentq(lambda t: sol.sol(t)[0] - target, 0.0, t_max, xtol=1e-10))


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
        lower = ubar - (ubar - beta) * np.exp(-(beta**m) * t)
        return lower, np.full_like(t, ubar)
    # beta < ubar, m < 1: tau_half branching
    tau = tau_half(params)
    power = (beta ** (1.0 - m) + (1.0 - m) * 0.5 * ubar * t) ** (1.0 / (1.0 - m))
    expo = ubar - 0.5 * ubar * np.exp(-((0.5 * ubar) ** m) * (t - tau))
    lower = np.where(t <= tau, np.minimum(power, 0.5 * ubar), expo)
    return lower, np.full_like(t, ubar)


def lower_barrier(ubar: float, m: float, min0: float, t) -> Union[float, np.ndarray]:
    """Pointwise lower bound for fast-diffusion (m < 1) solutions.

    Power-law growth (ubar t / 2)^(1/(1-m)) up to the half-level time, then
    exponential saturation toward the mass; a positive initial minimum shifts
    the power branch.
    """
    if not 0 < m < 1:
        raise ValueError(f"lower_barrier requires 0 < m < 1, got m = {m}")
    if min0 < 0:
        raise ValueError("min0 must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    tau = tau_half(BarrierParams(ubar=ubar, beta=min(min0, 0.5 * ubar), m=m))
    power = (min0 ** (1.0 - m) + 0.5 * ubar * t_arr) ** (1.0 / (1.0 - m))
    expo = ubar - 0.5 * ubar * np.exp(-(2.0**-m) * ubar**m * t_arr)
    out = np.where(t_arr <= tau, power, expo)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def upper_regularization(ubar: float, m: float, t) -> Union[float, np.ndarray]:
    """Instantaneous sup bound ubar + (m t)^(-1/m), valid for any bounded data."""
    t_arr = np.asarray(t, dtype=float)
    out = ubar + (m * t_arr) ** (-1.0 / m)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out
