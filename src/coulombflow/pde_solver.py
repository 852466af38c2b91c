"""Conservative finite-volume integrator with vanishing viscosity.

The transport model is a scalar conservation law whose flux couples a
nonlinear mobility u^m to the self-generated Coulomb drift.  The scheme is
forward Euler on a cell-centered grid with

  * spectral face velocities (half-cell phase shift of grad of the potential),
  * velocity-upwind evaluation of the mobility u^m at faces,
  * an explicit centered viscosity eps * Lap(u), eps = h by default, so grid
    refinement and viscosity removal are one knob.

Fluxes telescope, so mass is conserved to roundoff.  The CFL bound is meant
to keep the update monotone (max nonincreasing, min nondecreasing, and the
entropy production of the Kruzhkov pairs dissipative up to O(h)), but that
does not yet hold for every configuration the validator accepts: at d = 1,
n = 8, m ~ 4.81 the max rises by about 0.1 within 7 steps.  ROADMAP item 2
(a compatible Coulomb operator and a reaction-aware step bound) is the fix.
"""

from __future__ import annotations

import functools
import numbers
from array import array
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from coulombflow.torus_field import (
    ScalarField,
    TorusGrid,
    coulomb_drift,
    half_spectrum,
    mean,
    mode_energy,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "Observables",
    "Trajectory",
    "cfl_dt",
    "step",
    "run",
    "run_batch",
    "entropy_residual",
    "dissipation_check",
    "default_bump_bank",
]

_DT_UNDERFLOW = 1e-14
_NEGATIVITY_GUARD = 1e-13


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one integration run, checked once when built.

    epsilon = "auto" resolves to the cell width h when the run starts.
    Snapshots are taken at the output_times, each in (0, t_end], and at
    t_end. The advective and viscous step bounds are each scaled by cfl and
    the update is monotone only while they sum to at most 1, so a positive
    viscosity ("auto" included, since h > 0) needs cfl <= 0.5; with
    epsilon = 0, cfl may go up to 1.  The rule that m < 1 needs a positive
    initial minimum is one of the data, which run_batch checks.
    """

    m: float
    epsilon: Union[float, str] = "auto"
    cfl: float = 0.45
    t_end: float = 1.0
    output_times: Sequence[float] = ()
    record_every: int = 1

    def __post_init__(self):
        """Check the invariants; each error message begins with the offending field."""
        for name, value in (("m", self.m), ("cfl", self.cfl), ("t_end", self.t_end)):
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.m < np.inf:
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        times = self.output_times
        if not isinstance(times, (list, tuple, np.ndarray)) or not all(
            isinstance(t, numbers.Real) and 0 < t <= self.t_end for t in times
        ):
            raise ValueError("output_times must be numbers in (0, t_end]")
        auto = self.epsilon == "auto"
        if not (auto or (isinstance(self.epsilon, numbers.Real) and 0 <= self.epsilon < np.inf)):
            raise ValueError(
                f"epsilon must be 'auto' or a finite number >= 0, got {self.epsilon!r}"
            )
        if (auto or self.epsilon > 0) and self.cfl > 0.5:
            raise ValueError(
                f"cfl must be <= 0.5 when epsilon > 0 (the advective and viscous "
                f"bounds are each scaled by cfl and must sum to at most 1), got {self.cfl}"
            )

    def output_schedule(self) -> list[float]:
        """The snapshot times after t = 0: the distinct output times, ending at t_end."""
        outputs: list[float] = []
        for t in sorted(float(t) for t in self.output_times):
            if not outputs or t - outputs[-1] > 1e-12:
                outputs.append(t)
        if not outputs or outputs[-1] < self.t_end - 1e-12:
            outputs.append(self.t_end)
        return outputs

    def epsilon_at(self, grid: TorusGrid) -> float:
        """The viscosity on `grid`: its cell width h for "auto"."""
        return grid.h if self.epsilon == "auto" else float(self.epsilon)


@dataclass
class Observables:
    """Per-recorded-step scalar diagnostics of a run, one float array per field.

    run_batch reduces them along the grid axes for all members of a batch at
    once and keeps each member's rows in one flat array of doubles until the
    run ends.

    cumulative_dissipation integrates only the transport dissipation, the
    integral of |drift|^2 u^m.  The viscous loss eps * ||u - ubar||^2_{L^2}
    is left out, so with eps > 0 the energy balance is one-sided:
    E(t) + cumulative_dissipation(t) <= E(0).

    l2 is the discrete L^2 norm.  The iterates are nonnegative (run rejects
    negative u0 and clamps every update at zero), so mass is also the L^1
    norm and max the L^inf norm.
    """

    t: np.ndarray
    mass: np.ndarray
    min: np.ndarray
    max: np.ndarray
    l2: np.ndarray
    energy: np.ndarray
    cumulative_dissipation: np.ndarray
    grad_sup: np.ndarray


@dataclass
class Trajectory:
    """Snapshots at requested times plus the step-level observables."""

    snapshots: list[tuple[float, ScalarField]]
    observables: Observables
    m: float
    epsilon: float

    @property
    def grid(self) -> TorusGrid:
        return self.snapshots[0][1].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])


@functools.lru_cache(maxsize=None)
def _roll_pieces(ndim: int, axis: int, shift: int) -> tuple[tuple, tuple]:
    """Index tuples of the two pieces np.roll(values, shift, axis) joins."""
    lead = (slice(None),) * (axis % ndim)
    return lead + (slice(-shift, None),), lead + (slice(None, -shift),)


def _next(values: np.ndarray, axis: int) -> np.ndarray:
    """Periodic + neighbour along `axis`: np.roll(values, -1, axis) by slicing."""
    head, tail = _roll_pieces(values.ndim, axis, -1)
    return np.concatenate((values[head], values[tail]), axis)


def _prev(values: np.ndarray, axis: int) -> np.ndarray:
    """Periodic - neighbour along `axis`: np.roll(values, 1, axis) by slicing."""
    head, tail = _roll_pieces(values.ndim, axis, 1)
    return np.concatenate((values[head], values[tail]), axis)


def _axis_sum(terms) -> np.ndarray:
    """Sum of per-axis arrays, starting from the first (no zero accumulator)."""
    return functools.reduce(np.add, terms)


def _upwind_face_values(values: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Donor-cell value at each +side face: the neighbor when w > 0, else self.

    The mass velocity is opposite in sign to the potential gradient, so a
    positive face drift means mass flows from the + neighbor into this cell.
    """
    return np.where(w > 0.0, _next(values, axis), values)


def _mobility(values: np.ndarray, m: float) -> np.ndarray:
    return np.power(np.maximum(values, 0.0), m)


def _divergence_flux(
    grid: TorusGrid, mob: np.ndarray, faces: tuple[np.ndarray, ...]
) -> np.ndarray:
    """div_h of the upwinded flux u^m * drift, cellwise, from the mobility u^m.

    Upwinding the mobility is upwinding the value: u -> u^m acts per cell.
    Works over the trailing grid axes; leading axes are a batch.
    """
    fluxes = (w * _upwind_face_values(mob, w, axis) for axis, w in zip(grid.axes, faces))
    return _axis_sum((g - _prev(g, axis)) / grid.h for axis, g in zip(grid.axes, fluxes))


def _laplacian(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Centered Laplacian over the trailing grid axes; leading axes are a batch."""
    return _axis_sum(
        (_next(values, axis) - 2.0 * values + _prev(values, axis)) / grid.h**2
        for axis in grid.axes
    )


def _advective_speed_scale(values: np.ndarray, m: float) -> float:
    """Lipschitz constant of u -> u^m over the current values, entering the CFL.

    m * u_max^(m-1) for m >= 1 and m * u_min^(m-1) for m < 1, where the
    mobility is steepest at the smallest value (run_batch rejects m < 1
    data whose minimum is not positive).
    """
    if m < 1.0:
        umin = float(values.min())
        return m * umin ** (m - 1.0) if umin > 0.0 else np.inf
    umax = float(values.max())
    if umax <= 0.0:
        return 0.0 if m > 1 else np.inf
    return m * umax ** (m - 1.0)


def cfl_dt(
    u: ScalarField,
    cfg: SolverConfig,
    next_output_gap: Optional[float] = None,
    faces: Optional[tuple[np.ndarray, ...]] = None,
) -> float:
    """Stable explicit step: advective and viscous bounds, clamped to outputs."""
    grid = u.grid
    eps = cfg.epsilon_at(grid)
    if faces is None:
        faces = coulomb_drift(grid, half_spectrum(grid, u.values))
    vmax = max(float(np.abs(w).max()) for w in faces)
    speed = _advective_speed_scale(u.values, cfg.m)
    dt = np.inf
    if vmax > 0.0 and speed > 0.0:
        dt = cfg.cfl * grid.h / (grid.dim * vmax * speed)
    if eps > 0.0:
        dt = min(dt, cfg.cfl * grid.h**2 / (2.0 * grid.dim * eps))
    if next_output_gap is not None:
        dt = min(dt, next_output_gap)
    if not np.isfinite(dt):
        raise SolverError("time step unbounded: provide an output-time gap")
    if dt < _DT_UNDERFLOW:
        raise SolverError(f"time step underflow: dt = {dt:.3e}")
    return float(dt)


def _members(batch: np.ndarray, grid: TorusGrid) -> list[np.ndarray]:
    """The members of a batch array, one grid-shaped view each.

    Batch arrays are (B, *grid.shape), except that a batch of one keeps no
    batch axis: the helpers work over the trailing grid axes either way, and
    a single run pays nothing for broadcasting.
    """
    return [batch] if batch.ndim == grid.dim else list(batch)


def _listed(reduced: np.ndarray) -> list[float]:
    """One value per member from a reduction over the grid axes of a batch array."""
    return [float(reduced)] if reduced.ndim == 0 else reduced.tolist()


def _per_member(values: list[float], grid: TorusGrid) -> Union[float, np.ndarray]:
    """One float per member, as a factor of a batch array.

    The shared float when all members agree, else a (B, 1[, 1]) column:
    either way each member's product is the one a batch of one computes.
    """
    first = values[0]
    if values.count(first) == len(values):
        return first
    return np.array(values).reshape((-1,) + (1,) * grid.dim)


def _negativity(worst: float) -> str:
    return f"negativity beyond roundoff ({worst:.3e}): scheme misconfigured"


def _euler_update(
    grid: TorusGrid,
    values: np.ndarray,
    mob: np.ndarray,
    faces: tuple[np.ndarray, ...],
    dt: list[float],
    eps: list[float],
) -> tuple[np.ndarray, list[float]]:
    """values + dt * (div_h(mob * drift) + eps Lap_h values) for a batch array.

    dt and eps hold one float per member.  Only members with eps > 0 get the
    viscosity and only members whose update went negative are clamped at
    zero, so each member's arithmetic, down to the signs of zeros, is that
    of a batch of one.  Returns the update and each member's minimum before
    the clamp.
    """
    rhs = _divergence_flux(grid, mob, faces)
    viscous = [r for r, e in enumerate(eps) if e > 0.0]
    if len(viscous) == len(eps):
        rhs += _per_member(eps, grid) * _laplacian(grid, values)
    elif viscous:
        lap = _laplacian(grid, values[viscous])
        rhs[viscous] += _per_member([eps[r] for r in viscous], grid) * lap
    new = values + _per_member(dt, grid) * rhs
    worst = _listed(new.min(axis=grid.axes))
    for member, lowest in zip(_members(new, grid), worst):
        if lowest < 0.0:
            np.maximum(member, 0.0, out=member)
    return new, worst


def step(u: ScalarField, dt: float, cfg: SolverConfig) -> ScalarField:
    """One forward-Euler conservative update; dt must respect cfl_dt."""
    grid = u.grid
    lo, hi = float(u.values.min()), float(u.values.max())
    if lo < -_NEGATIVITY_GUARD:
        raise SolverError("negative input density")
    if hi == lo:
        return u  # constants are exact steady states for any dt
    faces = coulomb_drift(grid, half_spectrum(grid, u.values))
    limit = cfl_dt(u, cfg, next_output_gap=dt, faces=faces)
    if dt > limit * (1.0 + 1e-12):
        raise SolverError(f"CFL violation: dt = {dt:.3e} > {limit:.3e}")
    mob = _mobility(u.values, cfg.m)
    new, worst = _euler_update(grid, u.values, mob, faces, [dt], [cfg.epsilon_at(grid)])
    if worst[0] < -_NEGATIVITY_GUARD:
        raise SolverError(_negativity(worst[0]))
    return ScalarField(grid, new)


def _dissipation_density(mob: np.ndarray, faces: tuple[np.ndarray, ...]) -> np.ndarray:
    """Sum over cells of |drift|^2 u^m, with |drift|^2 averaged from adjacent faces.

    One face array per grid axis; the sum runs over those trailing axes, so
    a batch gets one value per member.
    """
    axes = tuple(range(-len(faces), 0))
    squares = (w**2 for w in faces)
    sq = _axis_sum(0.5 * (s + _prev(s, axis)) for axis, s in zip(axes, squares))
    return (sq * mob).sum(axis=axes)


def _grad_sup(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Max over cells of the Euclidean centered-difference |grad u|, per member."""
    sq = _axis_sum(
        ((_next(values, axis) - _prev(values, axis)) / (2.0 * grid.h)) ** 2
        for axis in grid.axes
    )
    return np.sqrt(sq.max(axis=grid.axes))


SnapshotHook = Callable[[int, float, ScalarField], None]


def run(
    u0: ScalarField, cfg: SolverConfig, on_snapshot: Optional[SnapshotHook] = None
) -> Trajectory:
    """Integrate u0 to cfg.t_end: the one-member case of `run_batch`.

    `on_snapshot` is called as in `run_batch`, always with member 0.
    """
    return run_batch([(u0, cfg)], on_snapshot)[0]


def run_batch(
    members: Sequence[tuple[ScalarField, SolverConfig]],
    on_snapshot: Optional[SnapshotHook] = None,
) -> list[Trajectory]:
    """Integrate each (u0, cfg) member to its t_end; one trajectory per member.

    The members share a grid and step together in one forward-Euler kernel
    over a (B, *grid.shape) array; everything else is their own: m, eps,
    cfl, t_end, output times and record_every.  Each step
    every active member takes its own dt from cfl_dt, the observables are
    reduced along the grid axes for all members at once, and a member leaves
    the batch at its t_end, so each trajectory is bit-identical to the
    member integrated alone.

    Snapshots land exactly on the requested times (the step is clamped to the
    next output).  Observables are recorded every `record_every` steps and at
    the final time; the dissipation integral accumulates every step with the
    same left-endpoint rule as the Euler update.

    `on_snapshot(i, t, field)`, if given, is called with each snapshot of
    member i as it is appended to that member's trajectory, t = 0 included:
    the (t, field) pair is the one the trajectory holds, in landing order.
    The field is never written to afterwards, so the hook may keep it.  An
    exception from the hook ends the run and propagates.

    The members' data are integrated as given: each must be nonnegative, and
    positive where m < 1, since u^m is not Lipschitz at zero.  Raises
    ValueError for an empty batch or members on different grids.  In a batch
    of more than one, a SolverError names the failing member's index.
    """
    members = list(members)
    if not members:
        raise ValueError("run_batch needs at least one member")
    grid = members[0][0].grid
    for i, (u0, _) in enumerate(members):
        if u0.grid != grid:
            raise ValueError(
                f"member {i} is on {u0.grid}, member 0 on {grid}; a batch shares one grid"
            )

    def fail(i: int, message: str):
        raise SolverError(message if len(members) == 1 else f"member {i}: {message}")

    cfgs = [cfg for _, cfg in members]
    for i, (u0, cfg) in enumerate(members):
        lowest = float(np.min(u0.values))
        if lowest < 0.0:
            fail(i, "initial data must be nonnegative")
        if cfg.m < 1 and not lowest > 0.0:
            fail(i, f"m < 1 requires a positive initial minimum, got {lowest}")

    start = [u0.values for u0, _ in members]
    values = np.stack(start) if len(start) > 1 else start[0].copy()
    outputs = [cfg.output_schedule() for cfg in cfgs]
    eps = [cfg.epsilon_at(grid) for cfg in cfgs]
    cm = grid.cell_measure
    t = [0.0] * len(members)
    out_idx = [0] * len(members)
    cum_diss = [0.0] * len(members)
    snapshots = [[(0.0, ScalarField(grid, v.copy()))] for v in start]
    if on_snapshot is not None:
        for i, member_snapshots in enumerate(snapshots):
            on_snapshot(i, *member_snapshots[0])
    # Iterates stay nonnegative (u0 is checked and every update clamped at
    # zero), so the L^1 norm is the mass and the L^inf norm is the max.  Each
    # member's rows go flat into one array of doubles, in Observables order.
    rows = [array("d") for _ in members]
    n_fields = len(fields(Observables))

    # Row r of the batch arrays steps member active[r]; a member's row is
    # dropped once it reaches its t_end.
    active = list(range(len(members)))

    def regroup():
        """The active members' viscosities, and their m if they share one."""
        ms = {cfgs[i].m for i in active}
        return [eps[i] for i in active], (ms.pop() if len(ms) == 1 else None)

    def record(which, uhat):
        vals = values
        if len(which) < len(active):
            vals, uhat = values[which], uhat[which]
        columns = [
            _listed(column)
            for column in (
                vals.sum(axis=grid.axes) * cm,
                vals.min(axis=grid.axes),
                vals.max(axis=grid.axes),
                np.sqrt((vals**2).sum(axis=grid.axes) * cm),
                0.5 * mode_energy(grid, uhat),
                _grad_sup(grid, vals),
            )
        ]
        for r, mass, umin, umax, l2, energy, gsup in zip(which, *columns):
            i = active[r]
            rows[i].extend((t[i], mass, umin, umax, l2, energy, cum_diss[i], gsup))

    every = [cfg.record_every for cfg in cfgs]
    stop = [cfg.t_end - 1e-13 for cfg in cfgs]
    eps_rows, shared_m = regroup()
    step_idx = 0
    while True:
        uhat = half_spectrum(grid, values)
        faces = coulomb_drift(grid, uhat)
        due = [r for r, i in enumerate(active) if step_idx % every[i] == 0]
        if due:
            record(due, uhat)
        done = [r for r, i in enumerate(active) if t[i] >= stop[i]]
        if done:
            late = [r for r in done if rows[active[r]][-n_fields] < t[active[r]] - 1e-15]
            if late:
                record(late, uhat)
            keep = [r for r in range(len(active)) if r not in done]
            if not keep:
                break
            active = [active[r] for r in keep]
            values, faces = values[keep], tuple(w[keep] for w in faces)
            eps_rows, shared_m = regroup()
        dts = []
        face_rows = zip(*[_members(w, grid) for w in faces])
        for i, v, member_faces in zip(active, _members(values, grid), face_rows):
            gap = outputs[i][out_idx[i]] - t[i]
            try:
                dts.append(cfl_dt(ScalarField(grid, v), cfgs[i], gap, member_faces))
            except SolverError as exc:
                fail(i, str(exc))
        # Each member's exponent stays a Python float: np.power has fast
        # paths for a scalar exponent (square, sqrt) that an array one skips.
        if shared_m is not None:
            mob = _mobility(values, shared_m)
        else:
            mob = np.stack([_mobility(v, cfgs[i].m) for v, i in zip(values, active)])
        dissipation = _listed(_dissipation_density(mob, faces))
        values, worst = _euler_update(grid, values, mob, faces, dts, eps_rows)
        lowest = min(worst)
        if lowest < -_NEGATIVITY_GUARD:
            fail(active[worst.index(lowest)], _negativity(lowest))
        if not np.isfinite(values).all():
            r = _listed(np.isfinite(values).all(axis=grid.axes)).index(False)
            fail(active[r], f"non-finite values at t = {t[active[r]] + dts[r]:.6g}")
        step_idx += 1
        for i, dt, dissipated, v in zip(active, dts, dissipation, _members(values, grid)):
            cum_diss[i] += dt * dissipated * cm
            t[i] += dt
            if abs(t[i] - outputs[i][out_idx[i]]) < 1e-12:
                t[i] = outputs[i][out_idx[i]]
                field = ScalarField(grid, v.copy())
                snapshots[i].append((t[i], field))
                if on_snapshot is not None:
                    on_snapshot(i, t[i], field)
                out_idx[i] = min(out_idx[i] + 1, len(outputs[i]) - 1)

    # Popping frees each member's flat rows once they are copied out.
    rows.reverse()
    return [
        Trajectory(
            snapshots=snapshots[i],
            observables=Observables(*np.frombuffer(rows.pop()).reshape(-1, n_fields).T.copy()),
            m=cfg.m,
            epsilon=eps[i],
        )
        for i, cfg in enumerate(cfgs)
    ]


def dissipation_check(traj: Trajectory) -> float:
    """Max over recorded times of E(t) + int_0^t D - E(0); <= tol is compliant."""
    obs = traj.observables
    drift = obs.energy + obs.cumulative_dissipation - obs.energy[0]
    return float(np.max(drift))


# --- entropy residual -------------------------------------------------------

def _bump(r: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump, peak 1 at r = 0, support |r| < 1."""
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def default_bump_bank(grid: TorusGrid, t0: float, t1: float) -> Callable[[float], np.ndarray]:
    """Fixed reproducible bank of 16 space-time test bumps, profiles built once.

    Two time centers, four x centers and two widths (4h and 8h), in that
    order; temporal half-width 0.3 of the window, vanishing at both window
    ends.  Returns t -> the (16, *grid.shape) array of (amp(t) * b_x1) * b_x2.
    """
    span = t1 - t0
    t_centers = np.array([t0 + 0.35 * span, t0 + 0.65 * span])
    wt = 0.3 * span
    if grid.dim == 1:
        x_centers = [(0.125,), (0.375,), (0.625,), (0.875,)]
    else:
        x_centers = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    coords = grid.coordinates()
    factors = []  # one (8, *grid.shape) b_x per axis, (x center, width) in bank order
    for axis in range(grid.dim):
        d = [coords[axis] - xc[axis] for xc in x_centers]
        d = [di - np.round(di) for di in d]  # periodic distance
        factors.append(np.array([_bump(di / w) for di in d for w in (4.0 * grid.h, 8.0 * grid.h)]))

    def bank(t: float) -> np.ndarray:
        out = _bump((t - t_centers) / wt).reshape((-1, 1) + (1,) * grid.dim)
        for f in factors:
            out = out * f
        return out.reshape((-1,) + grid.shape)

    return bank


def entropy_residual(traj: Trajectory, cfg: SolverConfig, kappas: Sequence[float]) -> float:
    """Most negative Kruzhkov weak-form residual over the bump bank.

    For eta_kappa(u) = |u - kappa| and q_kappa(u) = sgn(u - kappa)(u^m - kappa^m)
    the inequality tested is, against the nonnegative bumps phi of
    `default_bump_bank` (one array per snapshot), which vanish at both ends,

        sum_n [ <eta(u^n), phi^{n+1} - phi^n>
                - dt_n <q-upwind-flux^n, grad_h phi^{n+1}>
                + dt_n <z(u^n), phi^{n+1}> ]  >= 0,

    with z = -sgn(u - kappa) kappa^m (u - ubar).  Trajectories produced with
    eps > 0 solve the viscous system, whose entropy inequality carries the
    extra right-hand term eps * Lap(eta(u)); its weak form
    eps * dt_n * <eta(u^n), Lap_h phi^{n+1}> is included so the test matches
    the object actually computed (the term vanishes as eps -> 0).  The
    discrete pairing mirrors the scheme (forward time difference, face-upwind
    entropy flux against face differences of phi, centered Laplacian), so at
    kappa = 0 the residual telescopes to roundoff for trajectories recorded
    at every step.  Nonnegative values mean compliant dissipation.
    """
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise ValueError("entropy_residual needs at least 3 snapshots")
    times = traj.times
    dts = np.diff(times)
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("entropy_residual needs uniformly spaced snapshots")
    grid = traj.grid
    cm = grid.cell_measure
    m = cfg.m
    ubar = mean(snaps[0][1])
    bank = default_bump_bank(grid, times[0], times[-1])

    kap = np.asarray(kappas, dtype=float).reshape((-1,) + (1,) * grid.dim)
    km = kap**m
    eps = traj.epsilon

    def stack(fields: np.ndarray) -> np.ndarray:
        return fields.reshape(len(fields), -1)

    # Kappa-dependent terms are (K, N) arrays and bump-dependent ones (B, N),
    # so each pairing of the weak form is one (K, N) @ (N, B) product.
    p_now = bank(times[0])
    totals = np.zeros((len(kappas), len(p_now)))
    for n in range(len(snaps) - 1):
        u = snaps[n][1].values
        dt = dts[n]
        faces = coulomb_drift(grid, half_spectrum(grid, u))
        p_next = bank(times[n + 1])
        eta = np.abs(u - kap)
        sgn = np.sign(u - kap)
        q = sgn * (_mobility(u, m) - km)
        z = -sgn * km * (u - ubar)
        totals += (stack(eta) @ stack(p_next - p_now).T) * cm
        for axis, w in zip(grid.axes, faces):
            flux = _upwind_face_values(q, w, axis) * w
            dphi = (_next(p_next, axis) - p_next) / grid.h
            totals -= dt * (stack(flux) @ stack(dphi).T) * cm
        totals += dt * (stack(z) @ stack(p_next).T) * cm
        if eps > 0.0:
            totals += dt * eps * (stack(eta) @ stack(_laplacian(grid, p_next)).T) * cm
        p_now = p_next
    return float(np.min(totals))
