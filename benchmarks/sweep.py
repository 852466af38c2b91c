"""Stage sweep: microseconds per call of the per-step stages over grid sizes.

Every stage runs on the cosine datum 1 + 0.5 cos (averaged over the axes in
2-D) at m = 2.  A stage's figure is the median over timed batches of the
batch time per call, after one untimed call.  Times are read from `clock`,
which run.py sets to the host speed sampler's clock.
"""

from __future__ import annotations

import statistics

from coulombflow import pde_solver as ps
from coulombflow import rearrangement as ra
from coulombflow import torus_field as tf
from coulombflow.initial_conditions import build_initial_condition

GRIDS = {"d1n128": (1, 128), "d1n512": (1, 512), "d1n2048": (1, 2048),
         "d2n64": (2, 64), "d2n128": (2, 128), "d2n256": (2, 256)}
# Steps of the two short runs whose difference gives the recording cost.
RECORD_STEPS = {"d1n128": 200, "d1n512": 200, "d1n2048": 100,
                "d2n64": 100, "d2n128": 40, "d2n256": 16}


def metric_names() -> list[str]:
    names = []
    for grid in GRIDS:
        names.append(f"torus_field.coulomb_field_us.{grid}")
        names.append(f"pde_solver.step_us.{grid}.eps0")
        names.append(f"pde_solver.step_us.{grid}.epsh")
        names.append(f"pde_solver.cfl_dt_us.{grid}")
        names.append(f"pde_solver.record_us.{grid}")
        names.append(f"torus_field.interaction_energy_us.{grid}")
        names.append(f"rearrangement.rearrange_us.{grid}")
    return names


def _us_per_call(fn, clock, budget_s: float = 0.1, batches: int = 5) -> float:
    t0 = clock()
    fn()
    first = clock() - t0
    per_batch = max(1, int(budget_s / batches / max(first, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(per_batch):
            fn()
        samples.append((clock() - t0) / per_batch)
    return 1e6 * statistics.median(samples)


def _record_us(u, steps: int, clock) -> float:
    """Per-step cost of recording observables at every step in `run`."""
    dt = ps.cfl_dt(u, ps.SolverConfig(m=2.0))
    every = ps.SolverConfig(m=2.0, t_end=steps * dt, record_every=1)
    ends = ps.SolverConfig(m=2.0, t_end=steps * dt, record_every=10 * steps)
    nsteps = len(ps.run(u, every).observables.t) - 1
    with_rec, without = [], []
    for _ in range(3):
        for cfg, out in ((every, with_rec), (ends, without)):
            t0 = clock()
            ps.run(u, cfg)
            out.append(clock() - t0)
    return 1e6 * (statistics.median(with_rec) - statistics.median(without)) / nsteps


def run_sweep(clock) -> dict:
    out = {}
    for label, (dim, n) in GRIDS.items():
        grid = tf.make_grid(dim, n)
        u = build_initial_condition(grid, {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]})
        cfg0 = ps.SolverConfig(m=2.0, epsilon=0.0)
        cfgh = ps.SolverConfig(m=2.0)
        dt0, dth = ps.cfl_dt(u, cfg0), ps.cfl_dt(u, cfgh)
        out[f"torus_field.coulomb_field_us.{label}"] = _us_per_call(
            lambda: tf.coulomb_field(u, "face"), clock)
        out[f"pde_solver.step_us.{label}.eps0"] = _us_per_call(lambda: ps.step(u, dt0, cfg0), clock)
        out[f"pde_solver.step_us.{label}.epsh"] = _us_per_call(lambda: ps.step(u, dth, cfgh), clock)
        out[f"pde_solver.cfl_dt_us.{label}"] = _us_per_call(lambda: ps.cfl_dt(u, cfgh), clock)
        out[f"pde_solver.record_us.{label}"] = _record_us(u, RECORD_STEPS[label], clock)
        out[f"torus_field.interaction_energy_us.{label}"] = _us_per_call(
            lambda: tf.interaction_energy(u), clock)
        out[f"rearrangement.rearrange_us.{label}"] = _us_per_call(lambda: ra.rearrange(u), clock)
    return {name: {"value": float(out[name]), "unit": "us"} for name in metric_names()}
