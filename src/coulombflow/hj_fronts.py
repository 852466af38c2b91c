"""Analytic front systems for the rearranged Hamilton-Jacobi problem.

Piecewise-linear profiles k(t, s) whose breakpoints move by Rankine-Hugoniot
shock speeds solve the rearranged equation dk/dt + (ds k)_+^m (k - s ubar) = 0
exactly: a chain of rising ramps between plateaus, whose one-ramp member is
the single vortex and two-ramp member the two vortex, and a four-piece
supersolution whose middle ramp follows the power map u -> u^(m/(m-1)).  All
front positions obey small ODE systems integrated here with fixed-step RK4
plus cubic Hermite dense output, and the piecewise profiles support
finite-difference viscosity residual checks away from the kinks.

Each system is described once, by its state class: `MOVING` names the
fronts its ODE moves (in trajectory column order), `kinks` lists the
interfaces where the profile is not smooth, and `k(s)` evaluates the
profile, a scalar s as a one-element array.  The two vortex states share
one chain description (`_VortexChain`) and one chain integrator.
FRONT_SYSTEMS maps each `fronts.mode` to its state class and integrator;
everything else reads those members.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SingleVortexState",
    "TwoVortexState",
    "SupersolutionState",
    "FrontTrajectory",
    "FrontIntegrationError",
    "integrate_single_vortex",
    "integrate_two_vortex",
    "integrate_supersolution",
    "FRONT_SYSTEMS",
    "k_evaluator",
    "kink_locator",
    "smooth_samples",
    "viscosity_residual",
    "comparison_check",
    "m1_front_errors",
    "envelope_margins",
    "calibrate_front_constants",
    "FRONT_BOUND_CONSTANTS",
]

_GAP_FLOOR = 1e-10
_BASE_STEP = 1e-4
# The front ODEs step on Python floats, whose division by zero raises.  A
# divisor that underflowed to zero (a gap^(m-1) or ubar^m at large m) is
# replaced by this, so the quotient is the inf or NaN that float64 gives.
_IEEE_ZERO = np.float64(0.0)


class FrontIntegrationError(RuntimeError):
    """Gap collapse or hypothesis violation; carries the last reached time."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(message)
        self.t_reached = t_reached


def _on_arrays(rule: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """A profile's k(s) from its rule on arrays of at least one dimension.

    A scalar s is evaluated as a one-element array and returned as a float,
    so a point gives the same bits alone as inside an array: numpy's scalar
    and array powers can differ in the last bit.
    """

    @functools.wraps(rule)
    def k(self, s):
        s = np.asarray(s, dtype=float)
        out = rule(self, s if s.ndim else s.reshape(1))
        return out if s.ndim else float(out[0])

    return k


class _VortexChain:
    """Rising ramps between plateaus, the vortex profiles described once.

    `_plateaus` are the plateau masses in units of ubar, from 0 to 1.  Ramp
    j rises from plateau j to plateau j + 1 between the fronts MOVING[2j]
    and MOVING[2j + 1], which move toward those plateaus at the rate
    f^(m-1) ubar^m / gap^(m-1) of the ramp's mass fraction f.  The single
    vortex is the one-ramp chain (0, 1), the two vortex (0, alpha, 1).
    """

    MOVING: ClassVar[tuple[str, ...]]
    _plateaus: tuple[float, ...]

    def _check_ubar_m(self):
        if not self.ubar > 0:
            raise ValueError("ubar must be positive")
        if not self.m >= 1:
            raise ValueError(f"front systems require m >= 1, got {self.m}")

    @property
    def kinks(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.MOVING])

    @_on_arrays
    def k(self, s: np.ndarray) -> np.ndarray:
        """Plateaus at p ubar for each plateau mass p, joined by the ramps."""
        fronts = self.kinks
        levels = [p * self.ubar for p in self._plateaus]
        out = levels[-1]
        for j in reversed(range(len(levels) - 1)):
            a, b = fronts[2 * j], fronts[2 * j + 1]
            ramp = (levels[j + 1] - levels[j]) / (b - a) * (s - a) + levels[j]
            out = np.where(s < a, levels[j], np.where(s < b, ramp, out))
        return out


@dataclass(frozen=True)
class SingleVortexState(_VortexChain):
    """One ramp of slope ubar / (s2 - s1) between a zero and a full plateau."""

    MOVING: ClassVar[tuple[str, ...]] = ("s1", "s2")
    _plateaus: ClassVar[tuple[float, ...]] = (0.0, 1.0)

    s1: float
    s2: float
    ubar: float
    m: float

    def __post_init__(self):
        if not (0.0 <= self.s1 < self.s2 <= 1.0):
            raise ValueError(f"need 0 <= s1 < s2 <= 1, got ({self.s1}, {self.s2})")
        self._check_ubar_m()


@dataclass(frozen=True)
class TwoVortexState(_VortexChain):
    """Two ramps carrying mass fractions alpha and 1 - alpha."""

    MOVING: ClassVar[tuple[str, ...]] = ("s1", "s2", "s3", "s4")

    s1: float
    s2: float
    s3: float
    s4: float
    alpha: float
    ubar: float
    m: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 <= self.s1 < self.s2 <= self.alpha <= self.s3 < self.s4 <= 1.0):
            raise ValueError("ordering 0 <= s1 < s2 <= alpha <= s3 < s4 <= 1 violated")
        self._check_ubar_m()

    @property
    def _plateaus(self) -> tuple[float, ...]:
        return (0.0, self.alpha, 1.0)


@dataclass(frozen=True)
class SupersolutionState:
    """Four-piece dominating profile; s1 = C alpha ubar is pinned in time.

    Hypotheses: C ubar <= 1 and 2 (1 - alpha) sigma'(1) <= 1 with
    sigma(u) = u^(m/(m-1)).
    """

    MOVING: ClassVar[tuple[str, ...]] = ("s2", "s3")

    C: float
    alpha: float
    s2: float
    s3: float
    ubar: float
    m: float

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError(f"supersolution requires m > 1, got {self.m}")
        if not self.C > 0:
            raise ValueError("C must be positive")
        if self.C * self.ubar > 1.0 + 1e-12:
            raise ValueError(f"hypothesis C * ubar <= 1 violated: {self.C * self.ubar}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        sp1 = self.m / (self.m - 1.0)
        if 2.0 * (1.0 - self.alpha) * sp1 > 1.0 + 1e-12:
            raise ValueError(
                f"hypothesis 2 (1 - alpha) sigma'(1) <= 1 violated: "
                f"{2.0 * (1.0 - self.alpha) * sp1}"
            )
        if not (self.s1 < self.s2 < self.s3 <= 1.0):
            raise ValueError("ordering s1 < s2 < s3 <= 1 violated")

    @property
    def s1(self) -> float:
        return self.C * self.alpha * self.ubar

    @property
    def sigma_prime_1(self) -> float:
        return self.m / (self.m - 1.0)

    @property
    def kinks(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])

    @_on_arrays
    def k(self, s: np.ndarray) -> np.ndarray:
        """Four-piece profile whose middle ramp follows sigma(u) = u^(m/(m-1))."""
        ubar, alpha = self.ubar, self.alpha
        gap = self.s3 - self.s2
        u = np.clip((s - self.s2) / gap, 0.0, 1.0)
        sigma = u ** (self.m / (self.m - 1.0))
        ramp = sigma * (1.0 - alpha) * ubar + alpha * ubar
        return np.where(
            s <= self.s1,
            s / self.C,
            np.where(s <= self.s2, alpha * ubar, np.where(s <= self.s3, ramp, ubar)),
        )


@dataclass
class FrontTrajectory:
    """Dense front-position series with exact endpoint derivatives.

    Column j of positions is the front state0.MOVING[j].
    """

    times: np.ndarray
    positions: np.ndarray  # shape (N, npos)
    derivs: np.ndarray  # shape (N, npos), RHS at the stored points
    state0: object
    halted_at: Optional[float] = None
    t_star: float = math.inf
    t_upper: float = math.inf

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def interpolate(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation of all positions at time t."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ValueError(f"time {t} outside integrated range [{times[0]}, {times[-1]}]")
        t = min(max(t, times[0]), times[-1])
        i = int(np.searchsorted(times, t, side="right") - 1)
        i = min(max(i, 0), len(times) - 2)
        h = times[i + 1] - times[i]
        if h <= 0:
            return self.positions[i]
        tau = (t - times[i]) / h
        h00 = 2 * tau**3 - 3 * tau**2 + 1
        h10 = tau**3 - 2 * tau**2 + tau
        h01 = -2 * tau**3 + 3 * tau**2
        h11 = tau**3 - tau**2
        return (
            h00 * self.positions[i]
            + h10 * h * self.derivs[i]
            + h01 * self.positions[i + 1]
            + h11 * h * self.derivs[i + 1]
        )

    def state_at(self, t: float):
        moved = zip(self.state0.MOVING, self.interpolate(t))
        return replace(self.state0, **{name: float(p) for name, p in moved})


def _rk4_integrate(
    rhs: Callable[[tuple[float, ...]], tuple[tuple[float, ...], float]],
    init,
    t_end: float,
    gap_of: Callable[[tuple[float, ...]], float],
    valid: Callable[[tuple[float, ...]], bool],
) -> FrontTrajectory:
    """Fixed-rule RK4 stepping of the fronts init.MOVING.

    rhs(y) returns the front velocities and the rate r(y), the coefficient
    of their linear terms.  Base step 1e-4 * min(1, gap^(m-1) / ubar^m),
    floored by a relative-motion step that moves fronts by at most 0.1
    percent of the current gap (the base rule alone stalls for large m where
    it scales like gap^(m-1)), and capped at 0.05 / r: the floor grows
    without limit as the fronts settle, and the cap keeps RK4 far inside its
    stability interval.  The rules keep the local RK4 error orders of
    magnitude below every stated tolerance.  Integration halts when the gap
    falls below 1e-10 or a step leaves the region `valid` accepts.

    The state and the stages are tuples of Python floats, since a system has
    two or four fronts and per-call numpy overhead would dominate the cost.
    Each stage is formed in the order the array expressions
    y + (0.5 dt) k and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) evaluate, so
    the trajectory is bit-identical to stepping float64 arrays; its arrays
    are built once, when the integration ends.
    """
    m = init.m
    um = init.ubar**m or _IEEE_ZERO
    y = tuple(float(getattr(init, name)) for name in init.MOVING)
    d, rate = rhs(y)
    t, ts, ys, ds = 0.0, [0.0], [y], [d]
    halted = None
    while t < t_end - 1e-15:
        gap = gap_of(y)
        if gap < _GAP_FLOOR:
            halted = t
            break
        k1 = d  # rhs at y, evaluated once at the end of the previous step
        dt = _BASE_STEP * min(1.0, gap ** (m - 1.0) / um)
        speed = max(map(abs, k1))
        if speed > 0.0 and not any(map(math.isnan, k1)):  # np.max keeps a NaN
            dt = max(dt, 1e-3 * gap / speed)
        dt = min(dt, 0.05 / (rate or _IEEE_ZERO), t_end - t)
        half = 0.5 * dt
        k2 = rhs(tuple([a + half * b for a, b in zip(y, k1)]))[0]
        k3 = rhs(tuple([a + half * b for a, b in zip(y, k2)]))[0]
        k4 = rhs(tuple([a + dt * b for a, b in zip(y, k3)]))[0]
        sixth = dt / 6.0
        y_new = tuple([
            a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ])
        if not valid(y_new):
            halted = t
            break
        t, y = t + dt, y_new
        d, rate = rhs(y)
        ts.append(t)
        ys.append(y)
        ds.append(d)
    return FrontTrajectory(np.array(ts), np.array(ys), np.array(ds), init, halted_at=halted)


def _integrate_chain(init: _VortexChain, t_end: float) -> FrontTrajectory:
    """RK4 on the fronts of a vortex chain until t_end or a halt.

    It halts when a ramp's gap collapses or a front leaves the span of its
    ramp's plateaus.
    """
    m, p = init.m, init._plateaus
    um = init.ubar**m
    # (column of the ramp's first front, its plateaus, f^(m-1) ubar^m)
    ramps = tuple(
        (2 * j, lo, hi, (hi - lo) ** (m - 1.0) * um) for j, (lo, hi) in enumerate(zip(p, p[1:]))
    )

    def rhs(y):
        velocities, rate = (), None
        for j, lo, hi, fac in ramps:
            a, b = y[j], y[j + 1]
            denom = max(b - a, _GAP_FLOOR) ** (m - 1.0) or _IEEE_ZERO
            velocities += (fac * (lo - a) / denom, fac * (hi - b) / denom)
            r = fac / denom
            if rate is None or r > rate:  # as max(first, ...): a NaN first rate stays
                rate = r
        return velocities, rate

    def valid(y):
        tol = 1e-12
        return all(lo - tol <= y[j] < y[j + 1] <= hi + tol for j, lo, hi, _ in ramps)

    return _rk4_integrate(
        rhs, init, t_end, gap_of=lambda y: min(y[j + 1] - y[j] for j, *_ in ramps), valid=valid
    )


def integrate_single_vortex(init: SingleVortexState, t_end: float) -> FrontTrajectory:
    """Track the shock pair of the single-vortex profile until t_end."""
    traj = _integrate_chain(init, t_end)
    if traj.halted_at is not None:
        raise FrontIntegrationError(
            f"single-vortex ordering lost at t = {traj.halted_at:.6g}", t_reached=traj.halted_at
        )
    return traj


def integrate_two_vortex(init: TwoVortexState, t_end: float) -> FrontTrajectory:
    """Track the four shocks of the two-vortex profile on its maximal interval."""
    return _integrate_chain(init, t_end)


def _hit_time(traj: FrontTrajectory, value_of: Callable[[np.ndarray], np.ndarray]) -> float:
    """First root in time of value_of(positions) via bisection, +inf if none.

    value_of maps positions (the last axis indexes the fronts) to values.
    Hermite interpolation returns the stored positions exactly at the stored
    times, so the scan for a sign change reads them directly.
    """
    ts = traj.times
    vals = value_of(traj.positions)
    if vals[0] == 0.0:
        return float(ts[0])
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
    if len(sign_change) == 0:
        return math.inf
    i = sign_change[0]
    lo, hi, f_lo = float(ts[i]), float(ts[i + 1]), vals[i]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = value_of(traj.interpolate(mid))
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def integrate_supersolution(init: SupersolutionState, t_end: float) -> FrontTrajectory:
    """Integrate the dominating profile's two moving fronts.

    Returns the trajectory together with the first-hitting times t_star
    (s2 reaches the pinned s1) and t_upper (s3 covers half its headroom),
    reported as +inf when not reached before t_end.
    """
    ubar, m, alpha = init.ubar, init.m, init.alpha
    sp1 = init.sigma_prime_1
    fac = (1.0 - alpha) ** (m - 1.0) * ubar**m * sp1 ** (m - 1.0)

    def rhs(y):
        s2, s3 = y
        denom = max(s3 - s2, _GAP_FLOOR) ** (m - 1.0) or _IEEE_ZERO
        velocities = (-fac * (s3 - s2 + (1.0 - alpha) * sp1) / denom, fac * (1.0 - s3) / denom)
        return velocities, fac / denom

    traj = _rk4_integrate(
        rhs, init, t_end, gap_of=lambda y: y[1] - y[0], valid=lambda y: y[1] <= 1.0 + 1e-12
    )
    traj.t_star = _hit_time(traj, lambda pos: pos[..., 0] - init.s1)
    traj.t_upper = _hit_time(traj, lambda pos: 2.0 * pos[..., 1] - (1.0 + init.s3))
    return traj


# fronts.mode -> (state class, integrator)
FRONT_SYSTEMS = {
    "single": (SingleVortexState, integrate_single_vortex),
    "double": (TwoVortexState, integrate_two_vortex),
    "super": (SupersolutionState, integrate_supersolution),
}


def k_evaluator(traj: FrontTrajectory) -> Callable[[float, np.ndarray], np.ndarray]:
    """Callable (t, s) -> k built from the integrated fronts."""

    def k_of(t: float, s):
        return traj.state_at(t).k(s)

    return k_of


def kink_locator(traj: FrontTrajectory) -> Callable[[float], np.ndarray]:
    """Callable t -> interface positions where the profile is not smooth."""

    def kinks(t: float) -> np.ndarray:
        return traj.state_at(t).kinks

    return kinks


def smooth_samples(
    traj: FrontTrajectory, n_times: int = 12, t_max: Optional[float] = None
) -> list[tuple[float, float]]:
    """Sample points (t, s) at 30, 50 and 70 percent of every smooth piece.

    Points closer than 1e-3 to a moving interface are dropped, as are
    times too close to the window ends for a centered time difference.
    """
    guard = 1e-3
    t_hi = min(traj.t_end, t_max if t_max is not None else traj.t_end)
    if traj.halted_at is not None:
        t_hi = min(t_hi, traj.halted_at)
    kinks = kink_locator(traj)
    out = []
    times = np.linspace(0.05 * t_hi, 0.95 * t_hi, n_times)
    for t in times:
        pos = np.concatenate(([0.0], np.sort(kinks(t)), [1.0]))
        for a, b in zip(pos[:-1], pos[1:]):
            if b - a < 4 * guard:
                continue
            for f in (0.3, 0.5, 0.7):
                s = a + f * (b - a)
                if s - a >= guard and b - s >= guard:
                    out.append((float(t), float(s)))
    return out


def viscosity_residual(
    k_eval: Callable[[float, np.ndarray], np.ndarray],
    m: float,
    ubar: float,
    kind: str,
    samples: Iterable[tuple[float, float]],
    kinks: Optional[Callable[[float], np.ndarray]] = None,
) -> float:
    """Worst signed residual dk/dt + (ds k)_+^m (k - s ubar) at smooth samples.

    kind="sub" returns the max (compliant when <= tol); kind="super" returns
    the min (compliant when >= -tol).  Central finite differences with step
    delta = 1e-5; samples must keep a 2-delta margin from any kink, enforced
    when a kink locator is supplied: every sample is checked before any is
    evaluated, and the first offender in input order is named.

    k_eval(t, s) must accept an array of s.  The profile is evaluated once
    per distinct sample time t, at t on s and s -+ delta and at t -+ dt on
    s, with dt = min(delta, 0.45 t); each sample's residual is then formed
    on floats and folded in input order.
    """
    delta = 1e-5
    if kind not in ("sub", "super"):
        raise ValueError(f"kind must be 'sub' or 'super', got {kind!r}")
    samples = list(samples)
    if not samples:
        raise ValueError("no samples supplied")
    at_time: dict[float, list[int]] = {}
    for i, (t, _) in enumerate(samples):
        at_time.setdefault(t, []).append(i)
    s_at = {t: np.array([samples[i][1] for i in idx], dtype=float) for t, idx in at_time.items()}
    if kinks is not None:
        near = []
        for t, idx in at_time.items():
            close = np.min(np.abs(kinks(t) - s_at[t][:, None]), axis=1) < 2 * delta
            if close.any():
                near.append(idx[int(np.argmax(close))])
        if near:
            t, s = samples[min(near)]
            raise ValueError(f"sample ({t}, {s}) too close to a kink")
    residuals = [0.0] * len(samples)
    for t, idx in at_time.items():
        s = s_at[t]
        dt = min(delta, 0.45 * t) if t > 0 else delta
        k_all = np.asarray(k_eval(t, np.concatenate((s, s + delta, s - delta))), dtype=float)
        k0, k_right, k_left = (part.tolist() for part in np.split(k_all, 3))
        k_later = np.asarray(k_eval(t + dt, s), dtype=float).tolist()
        k_earlier = np.asarray(k_eval(t - dt, s), dtype=float).tolist()
        for j, i in enumerate(idx):
            dkdt = (k_later[j] - k_earlier[j]) / (2 * dt)
            dkds = (k_right[j] - k_left[j]) / (2 * delta)
            r = dkdt + max(dkds, 0.0) ** m * (k0[j] - samples[i][1] * ubar)
            residuals[i] = r
    worst = -math.inf if kind == "sub" else math.inf
    for r in residuals:
        worst = max(worst, r) if kind == "sub" else min(worst, r)
    return float(worst)


def comparison_check(
    profiles: Sequence[tuple[float, "RearrangedProfile"]],
    k_super: Callable[[float, np.ndarray], np.ndarray],
    t_max: Optional[float] = None,
) -> float:
    """Max over sampled (t, s) of simulated k minus the dominating profile."""
    worst = -math.inf
    for t, prof in profiles:
        if t_max is not None and t > t_max + 1e-12:
            continue
        s = prof.s_midpoints
        excess = prof.k_at_midpoints() - np.asarray(k_super(t, s), dtype=float)
        worst = max(worst, float(np.max(excess)))
    if worst == -math.inf:
        raise ValueError("no profiles inside the comparison window")
    return worst


def m1_front_errors(t_single: float, t_two: float) -> tuple[float, float]:
    """Deviation of the integrated m = 1 fronts from their exact exponentials.

    At m = 1 the single vortex from (0.25, 0.75) moves as s1 = 0.25 e^-t,
    s2 = 1 - 0.25 e^-t, and the inner fronts of the two vortex from
    (0.1, 0.3, 0.7, 0.9) with alpha = 0.5 as s2,3 = 0.5 -+ 0.2 e^-t.  Each
    error is the max, over times every 0.05 up to its horizon, of the summed
    absolute deviations.
    """

    def samples(traj, t_end):
        return ((t, traj.interpolate(t)) for t in np.linspace(0.0, t_end, round(t_end / 0.05) + 1))

    single = integrate_single_vortex(SingleVortexState(0.25, 0.75, 1.0, 1.0), t_single)
    two = integrate_two_vortex(TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 1.0), t_two)
    err_single = max(
        abs(s[0] - 0.25 * math.exp(-t)) + abs(s[1] - (1 - 0.25 * math.exp(-t)))
        for t, s in samples(single, t_single)
    )
    err_two = max(
        abs(s[1] - (0.5 - 0.2 * math.exp(-t))) + abs(s[2] - (0.5 + 0.2 * math.exp(-t)))
        for t, s in samples(two, t_two)
    )
    return float(err_single), float(err_two)


def _envelope_samples(
    traj: FrontTrajectory, t_first: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """The supersolution fronts on n log-spaced times from t_first to the end.

    The end is that of the integration, or its halt.  Returns s2 and s3, the
    scale ubar t^(1/m), the advance factor (1 - alpha)^((m-1)/m), and the
    masks of the windows t <= t_star and t <= min(t_star, t_upper).
    """
    state = traj.state0
    m = state.m
    ts = np.geomspace(t_first, min(traj.t_end, traj.halted_at or math.inf), n)
    s2, s3 = np.array([traj.interpolate(t) for t in ts]).T
    return (
        s2,
        s3,
        state.ubar * ts ** (1.0 / m),
        (1.0 - state.alpha) ** ((m - 1.0) / m),
        ts <= traj.t_star,
        ts <= min(traj.t_star, traj.t_upper),
    )


def envelope_margins(traj: FrontTrajectory) -> dict[str, float]:
    """Largest violation of each t^(1/m) envelope of the supersolution fronts.

    The retreat, advance, spread and gap bounds stated in
    calibrate_front_constants, with FRONT_BOUND_CONSTANTS widened by 5
    percent, on 60 log-spaced times from 1e-4 to the end of the integration
    (retreat on t <= t_star, advance and gap on t <= min(t_star, t_upper)).
    A value <= 0 means its bound holds.
    """
    state = traj.state0
    c = FRONT_BOUND_CONSTANTS[state.m]
    s2, s3, scale, afac, star, both = _envelope_samples(traj, 1e-4, 60)
    violations = {
        "retreat": (state.s2 - s2[star]) - 1.05 * c["c_retreat"] * scale[star],
        "advance": (state.s3 + 0.95 * c["c_advance"] * afac * scale[both]) - s3[both],
        "spread": s3 - (state.s3 + 1.05 * c["c_spread"] * scale),
        "gap": 0.95 * c["c_gap"] * (1 - state.alpha) * scale[both] - (s3[both] - s2[both]),
    }
    return {name: float(np.max(v)) for name, v in violations.items()}


# --- one-time calibration of the front-tracking constants --------------------

def calibrate_front_constants(m: float) -> dict[str, float]:
    """Measure the extremal constants of the supersolution front envelopes.

    The analytic statements assert the existence of m-dependent constants
    such that, for the collapsed-gap profile started from a double point s0
    and in time windows tied to the hitting times,

        s2(t) >= s0 - c_retreat * ubar * t^(1/m)
        s3(t) >= s0 + c_advance * (1-alpha)^((m-1)/m) * ubar * t^(1/m)
        s3(t) <= s0 + c_spread * ubar * t^(1/m)
        s3(t) - s2(t) >= c_gap * (1-alpha) * ubar * t^(1/m)
        t_star >= c_tstar * ((s2(0) - s1) / ubar)^m

    The sweep integrates a family of admissible configurations with a nearly
    collapsed initial gap (the regime the t^(1/m) envelopes describe; with an
    order-one initial gap the advance ratio degenerates at small times) to
    t = 2, samples the ratios on 200 log-spaced times from 1e-5, and records
    the extremes.  The output is frozen in FRONT_BOUND_CONSTANTS and reused
    by the verification suite with small safety margins.  The constants are invariant under
    rescaling of ubar (the dynamics depends on ubar only through ubar^m t),
    so the sweep varies alpha and the front positions at ubar = 1.
    """
    gap0 = 3e-4
    sp1 = m / (m - 1.0)
    alpha_lo = 1.0 - 0.5 / sp1  # tightest admissible alpha
    configs = []
    for alpha in (alpha_lo, 0.5 * (alpha_lo + 1.0), 0.95):
        if not alpha_lo - 1e-12 <= alpha < 1:
            continue
        for s0 in (0.3, 0.5, 0.7):
            state = SupersolutionState(C=0.25, alpha=alpha, s2=s0, s3=s0 + gap0, ubar=1.0, m=m)
            configs.append(state)
    out = {
        "c_retreat": 0.0,
        "c_advance": math.inf,
        "c_spread": 0.0,
        "c_gap": math.inf,
        "c_tstar": math.inf,
    }
    for state in configs:
        traj = integrate_supersolution(state, 2.0)
        s2, s3, scale, afac, in_star, in_both = _envelope_samples(traj, 1e-5, 200)
        # an empty window leaves its constants as they are
        largest = {
            "c_retreat": (state.s2 - s2[in_star]) / scale[in_star],
            "c_spread": (s3 - state.s3) / scale,
        }
        smallest = {
            "c_advance": (s3[in_both] - state.s3) / (afac * scale[in_both]),
            "c_gap": (s3[in_both] - s2[in_both]) / ((1.0 - state.alpha) * scale[in_both]),
        }
        for name, ratio in largest.items():
            out[name] = max(out[name], float(np.max(ratio, initial=-math.inf)))
        for name, ratio in smallest.items():
            out[name] = min(out[name], float(np.min(ratio, initial=math.inf)))
        if math.isfinite(traj.t_star):
            out["c_tstar"] = min(
                out["c_tstar"],
                traj.t_star / ((state.s2 - state.s1) / state.ubar) ** m,
            )
    return out


# Frozen one-time calibration output (sweep of calibrate_front_constants over
# the default admissible family at t_end = 2); the verification suite asserts
# the envelope bounds with these values and small safety margins.
FRONT_BOUND_CONSTANTS: dict[float, dict[str, float]] = {
    2.0: {
        "c_retreat": 0.82544,
        "c_advance": 0.45769,
        "c_spread": 0.62378,
        "c_gap": 3.58713,
        "c_tstar": 1.46418,
    },
    3.0: {
        "c_retreat": 0.75146,
        "c_advance": 0.42774,
        "c_spread": 0.54935,
        "c_gap": 2.53916,
        "c_tstar": 2.32811,
    },
    4.0: {
        "c_retreat": 0.69449,
        "c_advance": 0.39114,
        "c_spread": 0.49721,
        "c_gap": 2.13568,
        "c_tstar": 4.26098,
    },
}
