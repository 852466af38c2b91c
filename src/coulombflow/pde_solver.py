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
import math
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
    is_number,
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
# Times this close are one time (output times merge, a step lands on an
# output); t_end and every output time must be at least this large.
_TIME_RESOLUTION = 1e-12
_NEGATIVITY_GUARD = 1e-13
# Field values run_batch holds before it reduces their observables.  Kept
# small: a 1 MB budget, which joins two 2-D n = 256 states, made that grid's
# run 15 % slower.  A state larger than the budget is reduced alone.
_RECORD_BLOCK_BYTES = 32 * 1024


class SolverError(RuntimeError):
    """A run that cannot go on; `member` is the batch row at fault, where known."""

    def __init__(self, message: str, member: Optional[int] = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one integration run, checked once when built.

    epsilon = "auto" resolves to the cell width h when the run starts.
    Snapshots are taken at the output_times, each in [1e-12, t_end], and at
    t_end >= 1e-12.  The advective and viscous step bounds are each scaled by
    cfl and the update is monotone only while they sum to at most 1, so a
    positive viscosity ("auto" included, since h > 0) needs cfl <= 0.5; with
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
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.m < np.inf:
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not _TIME_RESOLUTION <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and >= {_TIME_RESOLUTION:g}, got {self.t_end}")
        if not is_number(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        times = self.output_times
        if not isinstance(times, (list, tuple, np.ndarray)) or not all(
            is_number(t) and _TIME_RESOLUTION <= t <= self.t_end for t in times
        ):
            raise ValueError(f"output_times must be numbers in [{_TIME_RESOLUTION:g}, t_end]")
        auto = self.epsilon == "auto"
        if not (auto or (is_number(self.epsilon) and 0 <= self.epsilon < np.inf)):
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
            if not outputs or t - outputs[-1] > _TIME_RESOLUTION:
                outputs.append(t)
        if not outputs or outputs[-1] < self.t_end - _TIME_RESOLUTION:
            outputs.append(self.t_end)
        return outputs

    def epsilon_at(self, grid: TorusGrid) -> float:
        """The viscosity on `grid`: its cell width h for "auto"."""
        return grid.h if self.epsilon == "auto" else float(self.epsilon)


@dataclass
class Observables:
    """Per-recorded-step scalar diagnostics of a run, one float array per field.

    run_batch holds each recorded step's (B, n[, n]) state, B = 1 for a lone
    run, and reduces them along the grid axes after the step, in blocks of
    steps and for all members at once, a member's final row included.  numpy
    reduces each held state alone and in the same order, so every value is
    bit-identical to one reduced at its step.  Each member's rows stay in
    one flat array of doubles until the run ends.

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


@dataclass(frozen=True)
class _Stencil:
    """What the stencil stages read of a grid, bound once per run or call.

    neighbours holds, per trailing grid axis, (axis, next, prev): two pairs
    of index tuples (head, tail) whose pieces, joined along axis, are
    np.roll(values, -1, axis), the + neighbour, and np.roll(values, 1,
    axis), the - neighbour.  The pieces index from the end, so the leading
    axes of a batch pass through.
    """

    grid: TorusGrid
    h: float
    h2: float
    neighbours: tuple[tuple[int, tuple[tuple, tuple], tuple[tuple, tuple]], ...]


@functools.lru_cache(maxsize=None)
def _stencil(grid: TorusGrid) -> _Stencil:
    """The grid's stencil, built once per grid."""
    neighbours = []
    for axis in grid.axes:
        after = (slice(None),) * (-axis - 1)
        neighbours.append((
            axis,
            ((..., slice(1, None)) + after, (..., slice(None, 1)) + after),
            ((..., slice(-1, None)) + after, (..., slice(None, -1)) + after),
        ))
    return _Stencil(grid, grid.h, grid.h**2, tuple(neighbours))


def _upwind_face_values(values: np.ndarray, w: np.ndarray, neighbour) -> np.ndarray:
    """Donor-cell value at each +side face: the neighbor when w > 0, else self.

    neighbour is the face axis's entry of `_Stencil.neighbours`.  The mass
    velocity is opposite in sign to the potential gradient, so a positive
    face drift means mass flows from the + neighbor into this cell.
    """
    axis, (head, tail), _ = neighbour
    return np.where(w > 0.0, np.concatenate((values[head], values[tail]), axis), values)


def _mobility(values: np.ndarray, m: float) -> np.ndarray:
    return np.power(np.maximum(values, 0.0), m)


def _divergence_flux(st: _Stencil, mob: np.ndarray, faces: tuple[np.ndarray, ...]) -> np.ndarray:
    """div_h of the upwinded flux u^m * drift, cellwise, from the mobility u^m.

    Upwinding the mobility is upwinding the value: u -> u^m acts per cell.
    Works over the trailing grid axes; leading axes are a batch.  The axes'
    terms are summed in order, starting from the first (no zero
    accumulator), as are those of the other stages.
    """
    div = None
    for neighbour, w in zip(st.neighbours, faces):
        g = w * _upwind_face_values(mob, w, neighbour)
        axis, _, (head, tail) = neighbour
        term = (g - np.concatenate((g[head], g[tail]), axis)) / st.h
        div = term if div is None else div + term
    return div


def _laplacian(st: _Stencil, values: np.ndarray) -> np.ndarray:
    """Centered Laplacian over the trailing grid axes; leading axes are a batch."""
    lap = None
    for axis, (nhead, ntail), (phead, ptail) in st.neighbours:
        term = (
            np.concatenate((values[nhead], values[ntail]), axis)
            - 2.0 * values
            + np.concatenate((values[phead], values[ptail]), axis)
        ) / st.h2
        lap = term if lap is None else lap + term
    return lap


def _advective_speed_scale(m: float, umin: Optional[float], umax: Optional[float]) -> float:
    """Lipschitz constant of u -> u^m between the values umin and umax, entering the CFL.

    m * umax^(m-1) for m >= 1 and m * umin^(m-1) for m < 1, where the
    mobility is steepest at the smallest value (run_batch rejects m < 1
    data whose minimum is not positive); the other bound is not read.  A
    power beyond the float range is an infinite rate, which cfl_dt reports
    as a time step underflow.
    """
    try:
        if m < 1.0:
            return m * umin ** (m - 1.0) if umin > 0.0 else np.inf
        if umax <= 0.0:
            return 0.0 if m > 1 else np.inf
        return m * umax ** (m - 1.0)
    except OverflowError:
        return np.inf


def cfl_dt(
    u: Union[ScalarField, tuple[TorusGrid, np.ndarray]],
    cfg: Union[SolverConfig, Sequence[SolverConfig]],
    next_output_gap: Union[None, float, Sequence[Optional[float]]] = None,
    faces: Optional[tuple[np.ndarray, ...]] = None,
) -> Union[float, list[float]]:
    """Stable explicit step: advective and viscous bounds, clamped to outputs.

    For one field u, a float.  For a batch, u = (grid, values) with values
    of shape (B, *grid.shape), cfg and next_output_gap hold one entry per
    member (a gap may be None) and the result one float per member; a field
    is the B = 1 batch.  faces, the drift of values (with or without the
    batch axis for one field), is computed when not given.  Each member's
    |drift| max and value extremes are reduced along the grid axes for all
    members at once, which is exact, so every dt is the one its field alone
    gets.  A SolverError carries the failing member's row as `member`.
    """
    one = isinstance(u, ScalarField)
    if one:
        grid, values = u.grid, u.values[None]
        cfgs, gaps = [cfg], [next_output_gap]
        if faces is not None:
            faces = tuple(w if w.ndim > grid.dim else w[None] for w in faces)
    else:
        (grid, values), cfgs, gaps = u, cfg, next_output_gap
    if faces is None:
        faces = coulomb_drift(grid, half_spectrum(grid, values))
    vmaxes = np.abs(faces[0]).max(axis=grid.axes).tolist()
    for w in faces[1:]:
        # Python's max over the axes in order, as one field takes it
        vmaxes = [max(a, b) for a, b in zip(vmaxes, np.abs(w).max(axis=grid.axes).tolist())]
    # Only the extreme some member's mobility reads is reduced at all.
    ms = [c.m for c in cfgs]
    lows = values.min(axis=grid.axes).tolist() if min(ms) < 1.0 else [None] * len(ms)
    highs = values.max(axis=grid.axes).tolist() if max(ms) >= 1.0 else [None] * len(ms)
    h, dim = grid.h, grid.dim
    h2, two_d = h**2, 2.0 * dim
    dts = []
    for r, (c, gap, vmax, umin, umax) in enumerate(zip(cfgs, gaps, vmaxes, lows, highs)):
        eps = c.epsilon_at(grid)
        rate = dim * vmax * _advective_speed_scale(c.m, umin, umax)
        # advective, viscous and output bounds, an absent one inf: min
        # returns the first smallest, as taking them one after another does
        dt = min(
            c.cfl * h / rate if rate > 0.0 else np.inf,
            c.cfl * h2 / (two_d * eps) if eps > 0.0 else np.inf,
            np.inf if gap is None else gap,
        )
        if not math.isfinite(dt):
            raise SolverError("time step unbounded: provide an output-time gap", member=r)
        if dt < _DT_UNDERFLOW:
            raise SolverError(f"time step underflow: dt = {dt:.3e}", member=r)
        dts.append(float(dt))
    return dts[0] if one else dts


def _per_member(values: list[float], grid: TorusGrid) -> Union[float, np.ndarray]:
    """One float per member, as a factor of a (B, *grid.shape) array.

    The shared float when all members agree, else a (B, 1[, 1]) column:
    either way each member's product is the one its lone run computes.  A
    column for every run costs a lone 1-D n = 128 run 2-6 % a step (2-core x86-64).
    """
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * grid.dim)


def _negativity(worst: float) -> str:
    return f"negativity beyond roundoff ({worst:.3e}): scheme misconfigured"


@dataclass(frozen=True)
class _StepPlan:
    """What each batch step reads that changes only when a member leaves.

    stencil is the grid's.  ms holds the active rows' mobility exponents
    and m the one they share, None when they differ.  viscous lists the
    rows with eps > 0, None when that is every row, and eps is their factor
    (`_per_member`), None when no row has one.
    """

    stencil: _Stencil
    m: Optional[float]
    ms: list[float]
    viscous: Optional[list[int]]
    eps: Union[None, float, np.ndarray]


def _step_plan(grid: TorusGrid, ms: list[float], eps: list[float]) -> _StepPlan:
    """The plan of a batch step whose rows have exponents ms and viscosities eps."""
    m = ms[0] if ms.count(ms[0]) == len(ms) else None
    viscous = [r for r, e in enumerate(eps) if e > 0.0]
    if len(viscous) == len(eps):
        return _StepPlan(_stencil(grid), m, ms, None, _per_member(eps, grid))
    factor = _per_member([eps[r] for r in viscous], grid) if viscous else None
    return _StepPlan(_stencil(grid), m, ms, viscous, factor)


def _euler_update(
    plan: _StepPlan,
    values: np.ndarray,
    mob: np.ndarray,
    faces: tuple[np.ndarray, ...],
    dt: list[float],
) -> tuple[np.ndarray, list[float]]:
    """values + dt * (div_h(mob * drift) + eps Lap_h values) for a (B, *grid.shape) array.

    dt holds one float per member, and plan the rows' viscosities.  Only
    members with eps > 0 get the viscosity and only members whose update
    went negative are clamped at zero, so each member's arithmetic, down to
    the signs of zeros, is that of its lone run.  Returns the update and
    each member's minimum before the clamp.
    """
    st = plan.stencil
    rhs = _divergence_flux(st, mob, faces)
    if plan.viscous is None:
        rhs += plan.eps * _laplacian(st, values)
    elif plan.viscous:
        lap = _laplacian(st, values[plan.viscous])
        rhs[plan.viscous] += plan.eps * lap
    new = values + _per_member(dt, st.grid) * rhs
    worst = new.min(axis=st.grid.axes).tolist()
    for member, lowest in zip(new, worst):
        if lowest < 0.0:
            np.maximum(member, 0.0, out=member)
    return new, worst


def _data_fault(values: np.ndarray, m: float) -> Optional[str]:
    """Why run_batch and step reject values as data at mobility exponent m, or None."""
    lowest = float(np.min(values))
    if lowest < 0.0:
        return "initial data must be nonnegative"
    if m < 1 and not lowest > 0.0:
        return f"m < 1 requires a positive initial minimum, got {lowest}"
    if not np.isfinite(values).all():
        return "initial data must be finite"
    return None


def step(u: ScalarField, dt: float, cfg: SolverConfig) -> ScalarField:
    """One forward-Euler update of run_batch's kernel, on a (1, *grid.shape) array.

    dt must respect cfl_dt, and u must pass run_batch's data rule.
    """
    grid = u.grid
    if fault := _data_fault(u.values, cfg.m):
        raise SolverError(fault)
    if u.values.min() == u.values.max():
        return u  # constants are exact steady states for any dt
    values = u.values[None]
    faces = coulomb_drift(grid, half_spectrum(grid, values))
    limit = cfl_dt(u, cfg, next_output_gap=dt, faces=faces)
    if dt > limit * (1.0 + 1e-12):
        raise SolverError(f"CFL violation: dt = {dt:.3e} > {limit:.3e}")
    plan = _step_plan(grid, [cfg.m], [cfg.epsilon_at(grid)])
    mob = _mobility(values, cfg.m)
    new, worst = _euler_update(plan, values, mob, faces, [dt])
    if worst[0] < -_NEGATIVITY_GUARD:
        raise SolverError(_negativity(worst[0]))
    return ScalarField(grid, new[0])


def _dissipation_density(
    st: _Stencil, mob: np.ndarray, faces: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Sum over cells of |drift|^2 u^m, with |drift|^2 averaged from adjacent faces.

    One face array per grid axis; the sum runs over the trailing grid axes,
    so a batch gets one value per member.
    """
    sq = None
    for (axis, _, (head, tail)), w in zip(st.neighbours, faces):
        s = w**2
        term = 0.5 * (s + np.concatenate((s[head], s[tail]), axis))
        sq = term if sq is None else sq + term
    # The last axis's arrays die before the product is allocated, as they
    # did at the end of a generator pipeline: alive there, they raised a
    # lone 2-D n = 256 run's minor page faults from ~73k to ~97k (glibc
    # malloc trims and regrows the heap).
    del s, term
    return (sq * mob).sum(axis=st.grid.axes)


def _grad_sup(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Max over cells of the Euclidean centered-difference |grad u|, per member."""
    st = _stencil(grid)
    sq = None
    for axis, (nhead, ntail), (phead, ptail) in st.neighbours:
        diff = np.concatenate((values[nhead], values[ntail]), axis) - np.concatenate(
            (values[phead], values[ptail]), axis
        )
        term = (diff / (2.0 * st.h)) ** 2
        sq = term if sq is None else sq + term
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
    over a (B, *grid.shape) array, B = 1 for a lone run; everything else is
    their own: m, eps, cfl, t_end, output times and record_every.  Each step
    makes one cfl_dt call, which gives every active member its own dt, and
    a member leaves the batch at its t_end.  The observables of the
    recorded steps are reduced along the grid axes after the step, in
    blocks of up to ~32 KB of held field values, for all members at once,
    those that have left included; a larger state is reduced alone, as it
    stands.  Each trajectory is bit-identical to the member integrated
    alone, each step reduced alone.

    Bound once per run, and again only when a member leaves: the step plan,
    which holds the grid's stencil (h, h^2 and the index pieces of each
    axis's neighbours), the active members' configs and exponents (and the
    one they share, if they do), and the rows with eps > 0 with their eps
    factor.  Done at every step: the half spectrum and the face drift, the
    cfl_dt call, the mobility, the dissipation density and the Euler update,
    whose stages loop over the axes reading the plan's pieces.

    Snapshots land exactly on the requested times (the step is clamped to the
    next output).  Observables are recorded every `record_every` steps and at
    the final time, once; the dissipation integral accumulates every step
    with the same left-endpoint rule as the Euler update.

    `on_snapshot(i, t, field)`, if given, is called with each snapshot of
    member i as it is appended to that member's trajectory, t = 0 included:
    the (t, field) pair is the one the trajectory holds, in landing order.
    The field is never written to afterwards, so the hook may keep it.  An
    exception from the hook ends the run and propagates.

    The members' data are integrated as given: each must be finite and
    nonnegative, and positive where m < 1, since u^m is not Lipschitz at
    zero; step applies the same rule.  Raises ValueError for an empty batch
    or members on different grids.  In a batch of more than one, a
    SolverError names the failing member's index.
    """
    members = list(members)
    if not members:
        raise ValueError("run_batch needs at least one member")
    grid = members[0][0].grid

    def fail(i: int, message: str):
        raise SolverError(message if len(members) == 1 else f"member {i}: {message}")

    for i, (u0, cfg) in enumerate(members):
        if u0.grid != grid:
            raise ValueError(
                f"member {i} is on {u0.grid}, member 0 on {grid}; a batch shares one grid"
            )
        if fault := _data_fault(u0.values, cfg.m):
            fail(i, fault)

    cfgs = [cfg for _, cfg in members]
    values = np.stack([u0.values for u0, _ in members])
    outputs = [cfg.output_schedule() for cfg in cfgs]
    eps = [cfg.epsilon_at(grid) for cfg in cfgs]
    cm = grid.cell_measure
    t = [0.0] * len(members)
    out_idx = [0] * len(members)
    cum_diss = [0.0] * len(members)
    snapshots = [[(0.0, ScalarField(grid, v.copy()))] for v in values]
    if on_snapshot is not None:
        for i, member_snapshots in enumerate(snapshots):
            on_snapshot(i, *member_snapshots[0])
    # Each member's rows go flat into one array of doubles, in Observables order.
    rows = [array("d") for _ in members]
    n_fields = len(fields(Observables))

    # Row r of the batch arrays steps member active[r]; a member's row is
    # dropped once it reaches its t_end.
    active = list(range(len(members)))

    # record() holds the due rows of a step's values and uhat, which are
    # fresh arrays never written again, with each row's member, t and
    # dissipation; flush() reduces up to `block` held states at once, also
    # of members that have left the batch.
    held = []
    block = max(1, _RECORD_BLOCK_BYTES // values.nbytes)

    def record(which, uhat):
        vals = values
        if len(which) < len(active):
            vals, uhat = values[which], uhat[which]
        held.append((vals, uhat, [(active[r], t[active[r]], cum_diss[active[r]]) for r in which]))
        if len(held) == block:
            flush()

    def flush():
        if not held:
            return
        vals, uhat, owners = held[0]
        if len(held) > 1:
            vals = np.concatenate([v for v, _, _ in held])
            uhat = np.concatenate([u for _, u, _ in held])
            owners = [owner for _, _, entry in held for owner in entry]
        held.clear()
        columns = [
            column.tolist()
            for column in (
                vals.sum(axis=grid.axes) * cm,
                vals.min(axis=grid.axes),
                vals.max(axis=grid.axes),
                np.sqrt((vals**2).sum(axis=grid.axes) * cm),
                0.5 * mode_energy(grid, uhat),
            )
        ]
        for (i, ti, diss), mass, umin, umax, l2, energy in zip(owners, *columns):
            rows[i].extend((ti, mass, umin, umax, l2, energy, diss))

    every = [cfg.record_every for cfg in cfgs]
    stop = [cfg.t_end - 1e-13 for cfg in cfgs]
    # The active rows' configs and step plan, rebuilt when a member leaves.
    active_cfgs = cfgs
    plan = _step_plan(grid, [cfg.m for cfg in cfgs], eps)
    step_idx = 0
    while True:
        uhat = half_spectrum(grid, values)
        faces = coulomb_drift(grid, uhat)
        done = [r for r, i in enumerate(active) if t[i] >= stop[i]]
        due = [r for r, i in enumerate(active) if step_idx % every[i] == 0 or r in done]
        if due:
            record(due, uhat)
        if done:
            keep = [r for r in range(len(active)) if r not in done]
            if not keep:
                break
            active = [active[r] for r in keep]
            values, faces = values[keep], tuple(w[keep] for w in faces)
            active_cfgs = [cfgs[i] for i in active]
            plan = _step_plan(grid, [cfg.m for cfg in active_cfgs], [eps[i] for i in active])
        gaps = [outputs[i][out_idx[i]] - t[i] for i in active]
        try:
            dts = cfl_dt((grid, values), active_cfgs, gaps, faces)
        except SolverError as exc:
            fail(active[exc.member], str(exc))
        # Each member's exponent stays a Python float: np.power has fast
        # paths for a scalar exponent (square, sqrt) that an array one skips.
        # Mixed m raise each row of one clamped copy in place, as _mobility
        # would raise that member alone.
        if plan.m is not None:
            mob = _mobility(values, plan.m)
        else:
            mob = np.maximum(values, 0.0)
            for row, m in zip(mob, plan.ms):
                np.power(row, m, out=row)
        dissipation = _dissipation_density(plan.stencil, mob, faces).tolist()
        values, worst = _euler_update(plan, values, mob, faces, dts)
        lowest = min(worst)
        if lowest < -_NEGATIVITY_GUARD:
            fail(active[worst.index(lowest)], _negativity(lowest))
        if not np.isfinite(values).all():
            r = np.isfinite(values).all(axis=grid.axes).tolist().index(False)
            fail(active[r], f"non-finite values at t = {t[active[r]] + dts[r]:.6g}")
        step_idx += 1
        for i, dt, dissipated, v in zip(active, dts, dissipation, values):
            cum_diss[i] += dt * dissipated * cm
            t[i] += dt
            if abs(t[i] - outputs[i][out_idx[i]]) < _TIME_RESOLUTION:
                t[i] = outputs[i][out_idx[i]]
                field = ScalarField(grid, v.copy())
                snapshots[i].append((t[i], field))
                if on_snapshot is not None:
                    on_snapshot(i, t[i], field)
                out_idx[i] = min(out_idx[i] + 1, len(outputs[i]) - 1)

    flush()
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


def _bump_bank_parts(
    grid: TorusGrid, t0: float, t1: float
) -> tuple[Callable[[np.ndarray], np.ndarray], list[np.ndarray]]:
    """The bump bank's temporal amplitudes and per-axis spatial factors.

    The one definition that default_bump_bank and entropy_residual read.
    Returns the amplitudes, t -> the (*t.shape, 2) array of both temporal
    bumps at each time in t, and one (8, *grid.shape) array b_x per axis,
    (x center, width) in bank order.
    """
    span = t1 - t0
    t_centers = np.array([t0 + 0.35 * span, t0 + 0.65 * span])
    wt = 0.3 * span
    if grid.dim == 1:
        x_centers = [(0.125,), (0.375,), (0.625,), (0.875,)]
    else:
        x_centers = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    coords = grid.coordinates()
    factors = []
    for axis in range(grid.dim):
        d = [coords[axis] - xc[axis] for xc in x_centers]
        d = [di - np.round(di) for di in d]  # periodic distance
        factors.append(np.array([_bump(di / w) for di in d for w in (4.0 * grid.h, 8.0 * grid.h)]))

    def amplitudes(t: np.ndarray) -> np.ndarray:
        return _bump((np.asarray(t)[..., None] - t_centers) / wt)

    return amplitudes, factors


def default_bump_bank(grid: TorusGrid, t0: float, t1: float) -> Callable[[float], np.ndarray]:
    """Fixed reproducible bank of 16 space-time test bumps, profiles built once.

    Two time centers, four x centers and two widths (4h and 8h), in that
    order; temporal half-width 0.3 of the window, vanishing at both window
    ends.  Returns t -> the (16, *grid.shape) array of (amp(t) * b_x1) * b_x2.
    """
    amplitudes, factors = _bump_bank_parts(grid, t0, t1)

    def bank(t: float) -> np.ndarray:
        out = amplitudes(t).reshape((-1, 1) + (1,) * grid.dim)
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

    m and eps are the trajectory's; a cfg whose m differs is a ValueError.

    Each bump is separable, phi = a_c(t) F_j(x), with 2 temporal amplitudes
    a_c and 8 spatial profiles F_j, and every pairing is linear in phi.  So
    F, its forward face difference per axis and, when eps > 0, its
    Laplacian are built once per call, and both amplitudes are evaluated at
    every snapshot time at once.  Per snapshot only the drift and the kappa
    terms (eta, the upwinded q * drift per axis, z) are built, each a
    (K, N) array contracted against the 8 profiles as one (K, N) @ (N, 8)
    product.  Those products are weighted by a_c(t_{n+1}) - a_c(t_n) (the
    eta term) and dt_n * a_c(t_{n+1}) (the rest) and summed over snapshots.
    """
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise ValueError("entropy_residual needs at least 3 snapshots")
    if cfg.m != traj.m:
        raise ValueError(
            f"entropy_residual: cfg.m = {cfg.m} differs from the trajectory's m = {traj.m}"
        )
    times = traj.times
    dts = np.diff(times)
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("entropy_residual needs uniformly spaced snapshots")
    grid = traj.grid
    m = traj.m
    eps = traj.epsilon
    ubar = mean(snaps[0][1])
    amplitudes, factors = _bump_bank_parts(grid, times[0], times[-1])

    def flat(fields: np.ndarray) -> np.ndarray:
        return fields.reshape(len(fields), -1)

    st = _stencil(grid)
    profiles = functools.reduce(np.multiply, factors)
    prof = flat(profiles).T
    dprof = [
        flat(np.concatenate((profiles[head], profiles[tail]), axis) - profiles).T / grid.h
        for axis, (head, tail), _ in st.neighbours
    ]
    lprof = flat(_laplacian(st, profiles)).T * eps if eps > 0.0 else None

    kap = np.asarray(kappas, dtype=float).reshape((-1,) + (1,) * grid.dim)
    km = kap**m
    amps = amplitudes(times)
    # weights[n] @ pairs sends snapshot n's pairings with the profiles, eta's
    # (pairs[0]) and those of the flux, z and viscous terms (pairs[1]), to
    # both amplitudes: by a(t_{n+1}) - a(t_n) and by dt_n * a(t_{n+1}).
    weights = np.stack((amps[1:] - amps[:-1], dts[:, None] * amps[1:]), axis=-1)
    pairs = np.empty((2, len(kap), len(profiles)))
    totals = np.zeros((2, pairs[0].size))
    for n in range(len(snaps) - 1):
        u = snaps[n][1].values
        faces = coulomb_drift(grid, half_spectrum(grid, u))
        gap = u - kap
        eta = np.abs(gap)
        sgn = np.sign(gap)
        q = sgn * (_mobility(u, m) - km)
        z = -sgn * km * (u - ubar)
        pairs[0] = flat(eta) @ prof
        pairs[1] = flat(z) @ prof
        for neighbour, w, dp in zip(st.neighbours, faces, dprof):
            pairs[1] -= flat(_upwind_face_values(q, w, neighbour) * w) @ dp
        if lprof is not None:
            pairs[1] += flat(eta) @ lprof
        totals += weights[n] @ pairs.reshape(2, -1)
    return float(np.min(totals)) * grid.cell_measure
