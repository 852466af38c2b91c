"""Named verification suites run by the command-line `verify` entry point.

This module is the one place that builds each verification scenario: the
cosine runs, the block run, the m = 4 waiting-time runs, the weak-strong
runs, the envelope fronts, the m = 2 single-vortex residuals and
COMPARISON_STATE are shared by the suites below and by the acceptance gate
in tests/, so a scenario is declared once.  The builders of same-grid runs
(cosine_runs, weak_strong_runs, waiting_time_runs) step their members as
one pde_solver.run_batch batch; each trajectory is bit-identical to the
member run alone.

A suite is a list of independent tasks, each producing CheckResults from
fresh simulations or front integrations; they run one after another and
results are reported in task order, keeping reports byte-deterministic.  In
theorem-suite-small the four cosine members (m = 0.5, 1, 2, 4) are one
task, which reports their checks in that order.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from coulombflow.hj_fronts import (
    FRONT_BOUND_CONSTANTS,
    FrontTrajectory,
    SingleVortexState,
    SupersolutionState,
    comparison_check,
    envelope_margins,
    integrate_single_vortex,
    integrate_supersolution,
    k_evaluator,
    kink_locator,
    m1_front_errors,
    smooth_samples,
    viscosity_residual,
)
from coulombflow.initial_conditions import build_initial_condition
from coulombflow.pde_solver import SolverConfig, Trajectory, run, run_batch
from coulombflow.rearrangement import (
    rearrange,
    support_measure,
    support_threshold,
    waiting_time_indicator,
)
from coulombflow.torus_field import ScalarField, make_grid
from coulombflow.verify import (
    CheckResult,
    check_asymptotics,
    check_barriers,
    check_conservation_and_monotonicity,
    check_subsolution,
    check_waiting_time,
    check_weak_strong,
)

__all__ = [
    "SUITES",
    "run_suite",
    "cosine_runs",
    "cosine_run",
    "block_run",
    "waiting_time_runs",
    "weak_strong_runs",
    "envelope_front",
    "single_vortex_m2_residuals",
    "COMPARISON_STATE",
]

# The dominating profile the block run must stay below up to its hitting time.
COMPARISON_STATE = SupersolutionState(C=0.25, alpha=0.8, s2=0.35, s3=0.48, ubar=1.0, m=2.0)


def cosine_runs(
    n: int, ms: Sequence[float], t_end: float = 5.0, n_out: int = 50
) -> dict[float, Trajectory]:
    """u0 = 1 + 0.5 cos(2 pi x) at d = 1, eps = h, n_out equally spaced snapshots.

    The decay and barrier scenario, one batch with a member per m in ms;
    returns m -> trajectory.  The data's minimum 0.5 is positive, as m < 1
    runs need.
    """
    grid = make_grid(1, n)
    u0 = build_initial_condition(grid, {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]})
    output_times = np.linspace(t_end / n_out, t_end, n_out)
    trajectories = run_batch([
        (u0, SolverConfig(m=m, t_end=t_end, output_times=output_times))
        for m in ms
    ])
    return dict(zip(ms, trajectories))


def cosine_run(n: int, m: float, t_end: float = 5.0, n_out: int = 50) -> Trajectory:
    """The one-member case of `cosine_runs`."""
    return cosine_runs(n, (m,), t_end, n_out)[m]


def block_run(n: int, m: float, t_end: float, output_times=None) -> Trajectory:
    """Indicator block of height 2 on [0.25, 0.75] at d = 1 and zero viscosity.

    The front-tracking and comparison scenario; 25 equally spaced snapshots
    unless output_times is given.
    """
    grid = make_grid(1, n)
    u0 = build_initial_condition(grid, {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]})
    if output_times is None:
        output_times = np.linspace(t_end / 25, t_end, 25)
    return run(u0, SolverConfig(m=m, epsilon=0.0, t_end=t_end, output_times=output_times))


def waiting_time_runs(n: int) -> dict:
    """m = 4 at d = 1 and zero viscosity: runs from jump and Lipschitz-edge data.

    Also holds the critical power edge c (s0 - s)^(1/(m-1)), which is only
    classified, never run, and m itself.
    """
    m = 4.0
    grid = make_grid(1, n)
    jump = build_initial_condition(grid, {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]})
    lip = build_initial_condition(
        grid, {"kind": "power_edge", "c": 4.0, "s0": 0.5, "exponent": 1.0}
    )
    crit = build_initial_condition(
        grid,
        {"kind": "power_edge", "c": (1 / (m - 1) + 1) / 0.5, "s0": 0.5, "exponent": 1 / (m - 1)},
    )

    def zero_viscosity(t_end):
        return SolverConfig(
            m=m, epsilon=0.0, t_end=t_end, output_times=np.linspace(t_end / 25, t_end, 25)
        )

    traj_jump, traj_lip = run_batch([(jump, zero_viscosity(0.25)), (lip, zero_viscosity(0.05))])
    return {"jump": traj_jump, "lipschitz": traj_lip, "critical_u0": crit, "m": m}


def weak_strong_runs(n: int) -> tuple[Trajectory, dict[float, Trajectory]]:
    """m = 1 run from 1 + 0.5 cos(2 pi x), and runs from it plus delta (pi / 2) sin(2 pi x).

    Returns the base run and a dict delta -> perturbed run, for delta = 1e-2
    and 5e-3; all runs share their snapshot times and run as one batch.
    """
    grid = make_grid(1, n)
    x = grid.axis_coordinates()
    base = 1 + 0.5 * np.cos(2 * np.pi * x)
    deltas = (1e-2, 5e-3)
    fields = [base] + [base + delta * (np.pi / 2) * np.sin(2 * np.pi * x) for delta in deltas]
    cfg = SolverConfig(m=1.0, t_end=1.0, output_times=np.linspace(0.05, 1.0, 20))
    traj_u, *perturbed = run_batch([(ScalarField(grid, f), cfg) for f in fields])
    return traj_u, dict(zip(deltas, perturbed))


def envelope_front(m: float) -> FrontTrajectory:
    """Supersolution fronts from a nearly collapsed gap [0.4, 0.4003], to t = 1.5.

    The regime the t^(1/m) envelopes of FRONT_BOUND_CONSTANTS describe.
    """
    state = SupersolutionState(C=0.2, alpha=0.85, s2=0.4, s3=0.4003, ubar=1.0, m=m)
    return integrate_supersolution(state, 1.5)


def single_vortex_m2_residuals() -> tuple[float, float]:
    """Sub- and supersolution viscosity residuals of the m = 2 single vortex.

    The vortex starts from (0.1, 0.6) and is sampled at 10 times up to 1.0.
    """
    sv = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 1.0)
    ke, kk = k_evaluator(sv), kink_locator(sv)
    samples = smooth_samples(sv, n_times=10)
    return (
        viscosity_residual(ke, 2.0, 1.0, "sub", samples, kinks=kk),
        viscosity_residual(ke, 2.0, 1.0, "super", samples, kinks=kk),
    )


def _task_cosine_checks(n: int) -> list[CheckResult]:
    """The cosine checks for m = 0.5, 1, 2 and 4, from one batch, in that order."""
    out = []
    for m, traj in cosine_runs(n, (0.5, 1.0, 2.0, 4.0)).items():
        checks = check_conservation_and_monotonicity(traj)
        checks += check_barriers(traj)
        if m in (0.5, 1.0, 2.0):
            checks += check_asymptotics(traj)
        if m == 1.0:
            profiles = [(t, rearrange(f)) for t, f in traj.snapshots]
            checks.append(check_subsolution(profiles, m, 1.0))
        for r in checks:
            r.context.setdefault("run", f"cosine-m{m}-n{n}")
        out += checks
    return out


def _task_weak_strong(n: int) -> list[CheckResult]:
    traj_u, perturbed = weak_strong_runs(n)
    fit = check_weak_strong(traj_u, perturbed[1e-2])
    out = [fit, check_weak_strong(traj_u, perturbed[5e-3], c_ref=fit.context["fitted_c"])]
    for r, delta in zip(out, perturbed):
        r.context.update(delta=delta, n=n)
    return out


def _task_front_exactness() -> list[CheckResult]:
    err_single, err_two = m1_front_errors(2.0, 1.5)
    r_sub, r_sup = single_vortex_m2_residuals()
    return [
        CheckResult.from_measurement("single-vortex-m1-exact", err_single, 0.0, 1e-8),
        CheckResult.from_measurement("two-vortex-m1-exact", err_two, 0.0, 1e-8),
        CheckResult.from_measurement("single-vortex-subsolution-residual", r_sub, 0.0, 1e-6),
        CheckResult.from_measurement("single-vortex-supersolution-residual", -r_sup, 0.0, 1e-6),
    ]


def _task_supersolution_bounds() -> list[CheckResult]:
    """Envelope bounds at m = 2 with the frozen calibrated constants, log time grid."""
    traj = envelope_front(2.0)
    state = traj.state0
    m = state.m
    ke, kk = k_evaluator(traj), kink_locator(traj)
    samples = smooth_samples(traj, n_times=10, t_max=traj.t_star)
    out = [
        CheckResult.from_measurement(
            "supersolution-residual",
            -viscosity_residual(ke, m, 1.0, "super", samples, kinks=kk),
            0.0,
            1e-6,
            m=m,
        )
    ]
    for name, measured in envelope_margins(traj).items():
        out.append(CheckResult.from_measurement(f"front-{name}-bound", measured, 0.0, 1e-9, m=m))
    if math.isfinite(traj.t_star):
        c_tstar = FRONT_BOUND_CONSTANTS[m]["c_tstar"]
        lower = 0.95 * c_tstar * ((state.s2 - state.s1) / state.ubar) ** m
        out.append(
            CheckResult.from_measurement(
                "front-tstar-bound", lower - traj.t_star, 0.0, 0.0, m=m
            )
        )
    return out


def _task_comparison(n: int) -> list[CheckResult]:
    traj = block_run(n, 2.0, t_end=0.15)
    sup = integrate_supersolution(COMPARISON_STATE, 0.3)
    profiles = [(t, rearrange(f)) for t, f in traj.snapshots]
    excess = comparison_check(profiles, k_evaluator(sup), t_max=sup.t_star)
    return [
        CheckResult.from_measurement(
            "supersolution-domination", excess, 0.0, 0.02, n=n, t_star=sup.t_star
        )
    ]


def _edge_classification(u0: ScalarField, m: float) -> tuple[str, tuple]:
    return waiting_time_indicator(u0, m, support_measure(u0, support_threshold(u0)))


def _task_waiting_time() -> list[CheckResult]:
    """The m = 4 waiting-time study at n = 512, whatever the suite's n."""
    runs = waiting_time_runs(512)
    m = runs["m"]
    ind = _edge_classification(runs["jump"].snapshots[0][1], m)
    ind_c = _edge_classification(runs["critical_u0"], m)
    return [
        CheckResult.from_measurement(
            "edge-mass-classifier-jump",
            0.0 if ind[0] == "diverges" else 1.0,
            0.0,
            0.0,
            classified=ind[0],
        ),
        check_waiting_time(runs["jump"], ind),
        CheckResult.from_measurement(
            "edge-mass-classifier-critical",
            0.0 if ind_c[0] == "finite" else 1.0,
            0.0,
            0.0,
            classified=ind_c[0],
        ),
        check_waiting_time(
            runs["lipschitz"], _edge_classification(runs["lipschitz"].snapshots[0][1], m)
        ),
    ]


def _negative_control() -> list[CheckResult]:
    """Deliberately corrupted trajectory; the mass check must fail."""
    traj = cosine_run(64, 1.0, t_end=0.5)
    traj.observables.mass[-1] *= 1.0 + 1e-3
    results = check_conservation_and_monotonicity(traj)
    for r in results:
        r.context["fixture"] = "mass-leak-1e-3"
    return results


def _small_suite_tasks(n: int) -> list[Callable[[], list[CheckResult]]]:
    return [
        lambda: _task_cosine_checks(n),
        lambda: _task_weak_strong(n),
        _task_front_exactness,
        _task_supersolution_bounds,
        lambda: _task_comparison(n),
        _task_waiting_time,
    ]


SUITES = {
    "theorem-suite-small": _small_suite_tasks,
    "negative-control": lambda n: [_negative_control],
    "empty": lambda n: [],
}


def run_suite(name: str, n: int = 128) -> tuple[list[CheckResult], list[str]]:
    """Execute a named suite; returns (results, warnings)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    tasks = SUITES[name](n)
    warnings: list[str] = []
    if not tasks:
        warnings.append(f"suite {name!r} contains zero checks")
        return [], warnings
    results = [r for task in tasks for r in task()]
    return results, warnings
