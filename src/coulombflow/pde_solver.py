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
import itertools
import math
import numbers
from array import array
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    Snapshots are taken at the output_times, each in [1e-12, t_end + 1e-12],
    and at t_end >= 1e-12.  The advective and viscous step bounds are each scaled by
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
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end < _TIME_RESOLUTION:
            raise ValueError(f"t_end must be finite and >= {_TIME_RESOLUTION:g}, got {self.t_end}")
        if not is_number(self.record_every, numbers.Integral) or self.record_every < 1:
            raise ValueError(
                f"record_every must be a finite integer >= 1, got {self.record_every!r}"
            )
        times = self.output_times
        t_last = self.t_end + _TIME_RESOLUTION
        if not isinstance(times, (list, tuple, np.ndarray)) or not all(
            is_number(t) and _TIME_RESOLUTION <= t <= t_last for t in times
        ):
            res = f"{_TIME_RESOLUTION:g}"
            raise ValueError(f"output_times must be numbers in [{res}, t_end + {res}]")
        auto = self.epsilon == "auto"
        if not (auto or (is_number(self.epsilon) and self.epsilon >= 0)):
            raise ValueError(
                f"epsilon must be 'auto' or a finite number >= 0, got {self.epsilon!r}"
            )
        if (auto or self.epsilon > 0) and self.cfl > 0.5:
            raise ValueError(
                f"cfl must be <= 0.5 when epsilon > 0 (the advective and viscous "
                f"bounds are each scaled by cfl and must sum to at most 1), got {self.cfl}"
            )

    def output_schedule(self) -> list[float]:
        """The snapshot times after t = 0: the distinct output times, ending at t_end.

        An output time within 1e-12 of t_end stands for it and is the last;
        run_batch ends a member's run where its last snapshot lands.
        """
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


class _Axis:
    """The neighbour reads along one trailing grid axis (a negative index).

    next(x) is np.roll(x, -1, axis), the + neighbour, and prev(x) is
    np.roll(x, 1, axis), the - neighbour, each joined from two slices that
    index from the end, so the leading axes of a batch pass through.  Each
    writes into out when it is given.
    """

    def __init__(self, axis: int):
        after = (slice(None),) * (-axis - 1)
        self.axis = axis
        self._next = ((..., slice(1, None)) + after, (..., slice(None, 1)) + after)
        self._prev = ((..., slice(-1, None)) + after, (..., slice(None, -1)) + after)

    def next(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        head, tail = self._next
        return np.concatenate((x[head], x[tail]), self.axis, out=out)

    def prev(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        head, tail = self._prev
        return np.concatenate((x[head], x[tail]), self.axis, out=out)


@dataclass(frozen=True)
class _Stencil:
    """What the stencil stages read of a grid, bound once per run or call.

    h, h^2 and one `_Axis` per trailing grid axis, in the grid's order.
    """

    grid: TorusGrid
    h: float
    h2: float
    axes: tuple[_Axis, ...]


@functools.lru_cache(maxsize=None)
def _stencil(grid: TorusGrid) -> _Stencil:
    """The grid's stencil, built once per grid."""
    return _Stencil(grid, grid.h, grid.h**2, tuple(_Axis(axis) for axis in grid.axes))


def _upwind_face_values(
    values: np.ndarray,
    w: np.ndarray,
    ax: _Axis,
    out: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Donor-cell value at each +side face along ax: the neighbor when w > 0, else self.

    The mass velocity is opposite in sign to the potential gradient, so a
    positive face drift means mass flows from the + neighbor into this cell.
    Written into out, with mask, a bool array shaped like w, as scratch;
    either is allocated when None.
    """
    out = ax.next(values, out)
    mask = np.greater(w, 0.0, out=mask)
    np.copyto(out, values, where=np.logical_not(mask, out=mask))
    return out


def _mobility(
    values: np.ndarray, ms: Sequence[float], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """u^m of a (B, *grid.shape) array: a clamped copy, each row raised to its own m.

    Each exponent stays a Python float: np.power has fast paths for a scalar
    exponent (square, sqrt) that an array one skips.  Raised in place row by
    row, each member's mobility is the one its lone run gets.  Rows are
    taken by index: iterating the array costs a lone 1-D n = 128 call
    ~1 us more (2-core x86-64).  The copy is out, allocated when None.
    """
    mob = np.maximum(values, 0.0, out=out)
    for r, m in enumerate(ms):
        row = mob[r]
        np.power(row, m, out=row)
    return mob


def _divergence_flux(
    st: _Stencil,
    mob: np.ndarray,
    faces: tuple[np.ndarray, ...],
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """div_h of the upwinded flux u^m * drift, cellwise, from the mobility u^m.

    Upwinding the mobility is upwinding the value: u -> u^m acts per cell.
    Works over the trailing grid axes; leading axes are a batch.  The axes'
    terms are summed in order, starting from the first (no zero
    accumulator), as are those of the other stages.  Written into out, with
    a, b and mask (bool) as scratch, all shaped like mob.
    """
    for k, (ax, w) in enumerate(zip(st.axes, faces)):
        g = _upwind_face_values(mob, w, ax, a, mask)
        np.multiply(w, g, out=g)
        term = ax.prev(g, b if k else out)
        np.subtract(g, term, out=term)
        np.divide(term, st.h, out=term)
        if k:
            np.add(out, term, out=out)
    return out


def _laplacian(
    st: _Stencil,
    values: np.ndarray,
    out: Optional[np.ndarray] = None,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Centered Laplacian over the trailing grid axes; leading axes are a batch.

    Written into out, with a and b as scratch, each shaped like values and
    allocated when None.
    """
    for k, ax in enumerate(st.axes):
        term = ax.next(values, a if k else out)
        b = np.multiply(values, 2.0, out=b)
        np.subtract(term, b, out=term)
        np.add(term, ax.prev(values, b), out=term)
        np.divide(term, st.h2, out=term)
        if k:
            np.add(out, term, out=out)
        else:
            out = term
    return out


def _advective_speed_scale(m: float, u: float) -> float:
    """Lipschitz constant of u -> u^m at u, the value extreme it reads, entering the CFL.

    m * umax^(m-1) for m >= 1 and m * umin^(m-1) for m < 1, where the
    mobility is steepest at the smallest value (run_batch rejects m < 1
    data whose minimum is not positive); u is that extreme.  A power
    beyond the float range is an infinite rate, which the bound reports as
    a time step underflow.
    """
    try:
        if m < 1.0:
            return m * u ** (m - 1.0) if u > 0.0 else np.inf
        if u <= 0.0:
            return 0.0 if m > 1 else np.inf
        return m * u ** (m - 1.0)
    except OverflowError:
        return np.inf


class _StepBound(NamedTuple):
    """The stable explicit step of a batch's rows: per-row constants and their one evaluation.

    Per row: ms, its mobility exponent; advective, the advective numerator
    cfl * h; and viscous, the viscous bound cfl * h^2 / (2d * eps), inf
    where eps = 0.  runs holds the (rows, low) runs of adjacent rows, rows
    a slice, whose mobility reads the value min (low, m < 1) or the max.
    Built from the rows' configs by `_step_bound`: once per run for
    run_batch's step plan (again when a member leaves), once per call for
    step() and a one-off cfl_dt.  Every evaluation goes through cfl_dt.
    """

    ms: list[float]
    advective: list[float]
    viscous: list[float]
    runs: list[tuple[slice, bool]]

    def dts(
        self,
        grid: TorusGrid,
        values: np.ndarray,
        faces: tuple[np.ndarray, ...],
        gaps: Sequence[Optional[float]],
        scratch: Optional[np.ndarray] = None,
    ) -> list[float]:
        """Each row's dt: min(advective / rate, viscous, gap), an absent bound inf.

        values is the (B, *grid.shape) state on grid, faces its drift and
        gaps one output gap per row (None for none); scratch, shaped like a
        face array, takes each axis's |drift| when given.  Each row's
        |drift| max is reduced along the grid axes for all rows at once, and
        each value extreme over its run, which is exact, so every dt is the
        one its field alone gets.  A SolverError carries the failing row as
        `member`.
        """
        axes = grid.axes
        vmaxes = np.abs(faces[0], out=scratch).max(axis=axes).tolist()
        for w in faces[1:]:
            # Python's max over the axes in order, as one field takes it
            vmax = np.abs(w, out=scratch).max(axis=axes).tolist()
            vmaxes = [max(a, b) for a, b in zip(vmaxes, vmax)]
        extremes: list[float] = []
        for rows, low in self.runs:
            part = values[rows]
            extremes += (part.min(axis=axes) if low else part.max(axis=axes)).tolist()
        dim, dts = grid.dim, []
        for r, (m, advective, viscous, gap, vmax, u) in enumerate(
            zip(self.ms, self.advective, self.viscous, gaps, vmaxes, extremes)
        ):
            rate = dim * vmax * _advective_speed_scale(m, u)
            # advective, viscous and output bounds, an absent one inf: min
            # returns the first smallest, as taking them one after another does
            dt = min(
                advective / rate if rate > 0.0 else np.inf,
                viscous,
                np.inf if gap is None else gap,
            )
            if not math.isfinite(dt):
                raise SolverError("time step unbounded: provide an output-time gap", member=r)
            if dt < _DT_UNDERFLOW:
                raise SolverError(f"time step underflow: dt = {dt:.3e}", member=r)
            dts.append(float(dt))
        return dts


def _step_bound(
    grid: TorusGrid, cfgs: Sequence[SolverConfig], eps: Sequence[float]
) -> _StepBound:
    """The step bound of rows with configs cfgs and viscosities eps on grid."""
    h, two_d = grid.h, 2.0 * grid.dim
    h2 = h**2
    advective, viscous = [], []
    for c, e in zip(cfgs, eps):
        advective.append(c.cfl * h)
        viscous.append(c.cfl * h2 / (two_d * e) if e > 0.0 else np.inf)
    runs, start = [], 0
    for low, rows in itertools.groupby(c.m < 1.0 for c in cfgs):
        stop = start + len(list(rows))
        runs.append((slice(start, stop), low))
        start = stop
    return _StepBound([c.m for c in cfgs], advective, viscous, runs)


def cfl_dt(
    u: Union[ScalarField, tuple[TorusGrid, np.ndarray]],
    cfg: Union[SolverConfig, Sequence[SolverConfig], _StepBound],
    next_output_gap: Union[None, float, Sequence[Optional[float]]] = None,
    faces: Optional[tuple[np.ndarray, ...]] = None,
    scratch: Optional[np.ndarray] = None,
) -> Union[float, list[float]]:
    """Stable explicit step: advective and viscous bounds, clamped to outputs.

    For one field u, a float.  For a batch, u = (grid, values) with values
    of shape (B, *grid.shape), cfg and next_output_gap hold one entry per
    member (a gap may be None) and the result one float per member; a field
    is the B = 1 batch.  faces, the drift of values (with or without the
    batch axis for one field), is computed when not given; scratch, an
    array shaped like one of them, takes each axis's |drift| when given.

    cfg may instead be the rows' bound constants (`_StepBound`): run_batch
    and step() pass their step plan's (`_StepPlan.bound`) at every step,
    and a one-off call with configs builds the same constants
    (`_step_bound`).  Either way the bound's one evaluation,
    `_StepBound.dts`, runs, so every dt is the one a run takes.  A
    SolverError carries the failing member's row as `member`.
    """
    one = isinstance(u, ScalarField)
    if one:
        grid, values = u.grid, u.values[None]
        gaps = [next_output_gap]
        if faces is not None:
            faces = tuple(w if w.ndim > grid.dim else w[None] for w in faces)
    else:
        (grid, values), gaps = u, next_output_gap
    if isinstance(cfg, _StepBound):
        bound = cfg
    else:
        cfgs = [cfg] if one else cfg
        bound = _step_bound(grid, cfgs, [c.epsilon_at(grid) for c in cfgs])
    if faces is None:
        faces = coulomb_drift(grid, half_spectrum(grid, values))
    dts = bound.dts(grid, values, faces, gaps, scratch)
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


class _Work(NamedTuple):
    """The arrays a batch step writes, each a view of one np.empty block.

    For B rows: uhat and spec, the (B, *half-spectrum shape) complex
    spectrum and drift spectrum; faces, one (B, *grid.shape) real drift
    array per axis; mob, rhs, a, b and c, five more such real arrays; and
    mask, one such bool array.  At d = 2, n = 256 and B = 1 that is
    7 x 512 KiB real, 2 x 516 KiB complex and 64 KiB bool, ~4.6 MiB.
    """

    uhat: np.ndarray
    spec: np.ndarray
    faces: tuple[np.ndarray, ...]
    mob: np.ndarray
    rhs: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mask: np.ndarray


def _work_area(grid: TorusGrid, rows: int) -> _Work:
    """The work area of `rows` batch rows on `grid`, cut from one block.

    One allocation, made and freed in one piece.  The complex views come
    first, then the real ones and last the mask's bytes.
    """
    shape = (rows, *grid.shape)
    spec_shape = (rows, *grid.shape[:-1], grid.n // 2 + 1)
    cells, modes = math.prod(shape), math.prod(spec_shape)
    n_real = grid.dim + 5
    # two complex arrays, n_real real ones and the mask's bytes in whole doubles
    block = np.empty(4 * modes + n_real * cells + -(-cells // 8))
    spectra = block[: 4 * modes].view(np.complex128).reshape(2, *spec_shape)
    reals = block[4 * modes : 4 * modes + n_real * cells].reshape(n_real, *shape)
    mask = block[4 * modes + n_real * cells :].view(np.bool_)[:cells].reshape(shape)
    return _Work(*spectra, tuple(reals[: grid.dim]), *reals[grid.dim :], mask)


@dataclass(frozen=True)
class _StepPlan:
    """What each batch step reads that changes only when a member leaves, and where it writes.

    stencil is the grid's.  viscous is None when every row has eps > 0,
    and eps is then their factor (`_per_member`); else viscous lists (row,
    eps) for the rows with eps > 0, and only those rows get the Laplacian.
    bound is the rows' step bound (`_StepBound`): their mobility exponents,
    which the kernel also reads, the advective numerators cfl * h, the
    viscous bounds cfl * h^2 / (2d * eps) and the runs of rows whose
    mobility reads the value min or max, so a step reads no config.

    work is the plan's work area (`_Work`), sized (B, *grid.shape) for its
    B rows: every stage of a step writes into it, so a step allocates no
    field-sized array.  Each step writes over the last one's arrays.  It
    lives as long as the plan: a run builds one plan, and one more each
    time a member leaves, and drops it when the run ends.
    """

    stencil: _Stencil
    viscous: Optional[list[tuple[int, float]]]
    eps: Union[None, float, np.ndarray]
    bound: _StepBound
    work: _Work

    def spectrum_and_drift(self, values: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """uhat = rfftn(values) and the face drift, in the work area."""
        grid, work = self.stencil.grid, self.work
        uhat = half_spectrum(grid, values, work.uhat)
        return uhat, coulomb_drift(grid, uhat, "face", work.faces, work.spec)


def _step_plan(
    grid: TorusGrid, cfgs: Sequence[SolverConfig], eps: Sequence[float]
) -> _StepPlan:
    """The plan of a batch step whose rows have configs cfgs and viscosities eps."""
    bound = _step_bound(grid, cfgs, eps)
    work = _work_area(grid, len(cfgs))
    if all(e > 0.0 for e in eps):
        return _StepPlan(_stencil(grid), None, _per_member(eps, grid), bound, work)
    viscous = [(r, e) for r, e in enumerate(eps) if e > 0.0]
    return _StepPlan(_stencil(grid), viscous, None, bound, work)


def _euler_update(
    plan: _StepPlan, values: np.ndarray, faces: tuple[np.ndarray, ...], dt: list[float]
) -> np.ndarray:
    """The forward-Euler step after its bound, the one that run_batch and step take.

    values + dt * (div_h(u^m * drift) + eps Lap_h values) for a (B,
    *grid.shape) array, dt one float per member (from the plan's bound)
    and plan the rows' exponents and viscosities, written over values.
    Only members with eps > 0 get the viscosity and only members whose
    update went negative are clamped at zero, so each member's arithmetic,
    down to the signs of zeros, is that of its lone run.  A minimum below -1e-13 is no
    roundoff: a SolverError names the lowest row as `member`.  Returns the
    mobility u^m of the old values, which the dissipation density reads;
    it and every intermediate are arrays of the plan's work area.
    """
    st, work = plan.stencil, plan.work
    mob = _mobility(values, plan.bound.ms, work.mob)
    rhs = _divergence_flux(st, mob, faces, work.rhs, work.a, work.b, work.mask)
    if plan.viscous is None:
        lap = _laplacian(st, values, work.c, work.a, work.b)
        rhs += np.multiply(lap, plan.eps, out=lap)
    elif plan.viscous:
        # the rows with eps > 0 take theirs from the Laplacian of every row
        lap = _laplacian(st, values, work.c, work.a, work.b)
        for r, eps in plan.viscous:
            row, target = lap[r], rhs[r]
            target += np.multiply(row, eps, out=row)
    rhs *= _per_member(dt, st.grid)
    values += rhs
    worst = values.min(axis=st.grid.axes).tolist()
    lowest = min(worst)
    if lowest < -_NEGATIVITY_GUARD:
        raise SolverError(
            f"negativity beyond roundoff ({lowest:.3e}): scheme misconfigured",
            member=worst.index(lowest),
        )
    for r, low in enumerate(worst):
        if low < 0.0:
            row = values[r]
            np.maximum(row, 0.0, out=row)
    return mob


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
    """One forward-Euler update through run_batch's kernel, on a (1, *grid.shape) array.

    dt must respect cfl_dt, and u must pass run_batch's data rule; the
    kernel's negativity guard raises as it does in run_batch.  Each call
    builds its own plan, and so its own bound and work area, and
    evaluates the bound once, through cfl_dt.
    """
    grid = u.grid
    if fault := _data_fault(u.values, cfg.m):
        raise SolverError(fault)
    if u.values.min() == u.values.max():
        return u  # constants are exact steady states for any dt
    plan = _step_plan(grid, [cfg], [cfg.epsilon_at(grid)])
    values = u.values[None].copy()
    _, faces = plan.spectrum_and_drift(values)
    (limit,) = cfl_dt((grid, values), plan.bound, [dt], faces, plan.work.a)
    if dt > limit * (1.0 + 1e-12):
        raise SolverError(f"CFL violation: dt = {dt:.3e} > {limit:.3e}")
    _euler_update(plan, values, faces, [dt])
    return ScalarField(grid, values[0])


def _dissipation_density(
    st: _Stencil,
    mob: np.ndarray,
    faces: tuple[np.ndarray, ...],
    sq: Optional[np.ndarray] = None,
    s: Optional[np.ndarray] = None,
    term: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum over cells of |drift|^2 u^m, with |drift|^2 averaged from adjacent faces.

    One face array per grid axis; the sum runs over the trailing grid axes,
    so a batch gets one value per member.  |drift|^2 is built in sq, with
    s and term as scratch, each shaped like a face array and allocated when
    None, and the product with mob is written over mob.
    """
    for k, (ax, w) in enumerate(zip(st.axes, faces)):
        s = np.square(w, out=s)
        t = ax.prev(s, term if k else sq)
        np.add(s, t, out=t)
        np.multiply(t, 0.5, out=t)
        if k:
            np.add(sq, t, out=sq)
        else:
            sq = t
    return np.multiply(mob, sq, out=mob).sum(axis=st.grid.axes)


def _grad_sup(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Max over cells of the Euclidean centered-difference |grad u|, per member."""
    st = _stencil(grid)
    sq = None
    for ax in st.axes:
        term = ((ax.next(values) - ax.prev(values)) / (2.0 * st.h)) ** 2
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
    evaluates the step bound once, which gives every active member its own
    dt (the one cfl_dt gives its field), and a member leaves the batch when
    the last snapshot of its output_schedule lands.  The observables of
    the recorded steps are reduced along the grid axes after the step, in
    blocks of up to ~32 KB of held field values, for all members at once,
    those that have left included; a larger state is reduced alone, as it
    stands.  Each trajectory is bit-identical to the member integrated
    alone, each step reduced alone.

    Bound once per run, and again only when a member leaves: the step
    plan, which holds the grid's stencil (h, h^2 and one `_Axis`
    neighbour read per grid axis), the members' exponents, the rows with
    eps > 0 with their eps factor, the step bound's constants (each row's
    advective numerator cfl * h and viscous bound cfl * h^2 / (2d * eps),
    inf where eps = 0, and the runs of rows whose mobility reads the value
    min or max) and the work area: one np.empty block of d + 5 real and
    1 bool (B, *grid.shape) arrays and 2 complex half spectra (~4.6 MiB at
    d = 2, n = 256, B = 1), freed with the plan, at the latest when the
    run returns.  Done at every step, each stage writing into the work
    area: the half spectrum and the face drift, the bound's one
    evaluation (cfl_dt on the plan's bound), the step kernel
    `_euler_update` (mobility, update, negativity guard and clamp), whose
    stages loop over the axes, and the dissipation density of the kernel's
    mobility.  The update is written
    over the batch's state array, and a row of it is copied only when a
    snapshot lands.  A SolverError of the bound or the kernel names its
    row, and the run ends there.

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
    # dropped once its last scheduled snapshot lands.
    active = list(range(len(members)))

    # record() holds the due rows of a step's values and uhat with each
    # row's member, t and dissipation; flush() reduces up to `block` held
    # states at once, also of members that have left the batch.  The step
    # writes over values and the work area's uhat, so a state held past
    # record() is a copy.
    held = []
    block = max(1, _RECORD_BLOCK_BYTES // values.nbytes)

    def record(which, uhat):
        vals = values
        if len(which) < len(active):
            vals, uhat = values[which], uhat[which]
        elif block > 1:
            vals, uhat = values.copy(), uhat.copy()
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
    # The active rows' step plan, rebuilt when a member leaves.
    plan = _step_plan(grid, cfgs, eps)
    step_idx = 0
    # The rows whose last scheduled snapshot landed in the step just taken.
    done: list[int] = []
    while True:
        uhat, faces = plan.spectrum_and_drift(values)
        due = [r for r, i in enumerate(active) if step_idx % every[i] == 0 or r in done]
        if due:
            record(due, uhat)
        if done:
            keep = [r for r in range(len(active)) if r not in done]
            if not keep:
                break
            active = [active[r] for r in keep]
            values, faces = values[keep], tuple(w[keep] for w in faces)
            plan = _step_plan(grid, [cfgs[i] for i in active], [eps[i] for i in active])
        gaps = [outputs[i][out_idx[i]] - t[i] for i in active]
        work = plan.work
        try:
            dts = cfl_dt((grid, values), plan.bound, gaps, faces, work.a)
            mob = _euler_update(plan, values, faces, dts)
        except SolverError as exc:
            fail(active[exc.member], str(exc))
        dissipation = _dissipation_density(
            plan.stencil, mob, faces, work.c, work.a, work.b
        ).tolist()
        if not np.isfinite(values, out=work.mask).all():
            r = np.isfinite(values).all(axis=grid.axes).tolist().index(False)
            fail(active[r], f"non-finite values at t = {t[active[r]] + dts[r]:.6g}")
        step_idx += 1
        done = []
        for r, (i, dt, dissipated) in enumerate(zip(active, dts, dissipation)):
            cum_diss[i] += dt * dissipated * cm
            t[i] += dt
            if abs(t[i] - outputs[i][out_idx[i]]) < _TIME_RESOLUTION:
                t[i] = outputs[i][out_idx[i]]
                field = ScalarField(grid, values[r].copy())
                snapshots[i].append((t[i], field))
                if on_snapshot is not None:
                    on_snapshot(i, t[i], field)
                out_idx[i] += 1
                if out_idx[i] == len(outputs[i]):
                    done.append(r)

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
    dprof = [flat(ax.next(profiles) - profiles).T / grid.h for ax in st.axes]
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
        q = sgn * (_mobility(u[None], [m])[0] - km)
        z = -sgn * km * (u - ubar)
        pairs[0] = flat(eta) @ prof
        pairs[1] = flat(z) @ prof
        for ax, w, dp in zip(st.axes, faces, dprof):
            pairs[1] -= flat(_upwind_face_values(q, w, ax) * w) @ dp
        if lprof is not None:
            pairs[1] += flat(eta) @ lprof
        totals += weights[n] @ pairs.reshape(2, -1)
    return float(np.min(totals)) * grid.cell_measure
