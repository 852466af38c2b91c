"""Per-layer timing of coulombflow, measured from outside the package.

The tracer rebinds a module's public functions to timing wrappers in every
loaded coulombflow module that holds them, so calls made through names
other modules imported (`cli.run`, `verify.hminus1_norm`, ...) are timed
too.  Nothing in the package changes; `uninstall` puts the originals back.

For each wrapped name the tracer keeps the number of calls, the inclusive
time (outermost call only, so recursion through the same name is not
counted twice) and the self time (inclusive minus the time of wrapped
calls made inside it).  Counts of work done are taken at the same
boundaries: solver steps are the `cfl_dt` calls made inside `run`, RK4
steps are the stored front times, CSV bytes are the sizes of written files.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function names, layer key); several functions may share a key.
TRACED = [
    ("pde_solver", ["run"], "pde_solver.run"),
    ("pde_solver", ["cfl_dt"], "pde_solver.cfl_dt"),
    ("pde_solver", ["entropy_residual"], "pde_solver.entropy_residual"),
    ("torus_field", ["hminus1_norm"], "torus_field.hminus1_norm"),
    ("barrier_ode", ["phi_curve"], "barrier_ode.phi_curve"),
    (
        "verify",
        [
            "check_conservation_and_monotonicity",
            "check_barriers",
            "check_asymptotics",
            "check_waiting_time",
            "check_weak_strong",
            "check_subsolution",
            "fit_stability_constant",
        ],
        "verify.checks",
    ),
    ("verify", ["emit_report"], "verify.emit_report"),
    ("rearrangement", ["rearrange"], "rearrangement.rearrange"),
    ("rearrangement", ["subsolution_residual"], "rearrangement.subsolution_residual"),
    ("rearrangement", ["waiting_time_indicator"], "rearrangement.waiting_time_indicator"),
    (
        "hj_fronts",
        ["integrate_single_vortex", "integrate_two_vortex", "integrate_supersolution"],
        "hj_fronts.integrate",
    ),
    ("hj_fronts", ["viscosity_residual"], "hj_fronts.viscosity_residual"),
    ("hj_fronts", ["comparison_check"], "hj_fronts.comparison_check"),
    ("csvio", ["write_csv"], "csvio.write_csv"),
    ("svgplot", ["write_line_chart"], "svgplot.write_line_chart"),
]

SUITE = "theorem-suite-small"
SUITE_TASKS = [
    "cosine-m0.5",
    "cosine-m1",
    "cosine-m2",
    "cosine-m4",
    "weak-strong",
    "front-exactness",
    "supersolution-bounds",
    "comparison",
    "waiting-time",
]
# The first check id each non-cosine task of the suite reports.
_TASK_BY_FIRST_CHECK = {
    "l1-stability-fit": "weak-strong",
    "single-vortex-m1-exact": "front-exactness",
    "supersolution-residual": "supersolution-bounds",
    "supersolution-domination": "comparison",
    "edge-mass-classifier-jump": "waiting-time",
}

COUNTS = ["pde_solver.steps", "hj_fronts.rk4_steps", "csvio.bytes"]

# Per-layer metrics of the traced run: name -> unit.
LAYER_METRICS = {f"suites.task_s.{t}": "s" for t in SUITE_TASKS}
LAYER_METRICS.update(
    {
        "pde_solver.run_s": "s",
        "pde_solver.run_calls": "count",
        "pde_solver.steps": "count",
        "pde_solver.run_us_per_step": "us",
        "pde_solver.cfl_dt_s": "s",
        "pde_solver.entropy_residual_s": "s",
        "torus_field.hminus1_norm_s": "s",
        "barrier_ode.phi_curve_s": "s",
        "verify.checks_s": "s",
        "verify.emit_report_s": "s",
        "rearrangement.rearrange_s": "s",
        "rearrangement.subsolution_residual_s": "s",
        "rearrangement.waiting_time_indicator_s": "s",
        "hj_fronts.integrate_s": "s",
        "hj_fronts.rk4_steps": "count",
        "hj_fronts.viscosity_residual_s": "s",
        "hj_fronts.comparison_check_s": "s",
        "csvio.write_csv_s": "s",
        "csvio.bytes": "count",
        "svgplot.write_line_chart_s": "s",
    }
)


def task_label(results) -> str:
    """Name of a suite task, read from the check results it returned."""
    first = results[0]
    run = first.context.get("run", "")
    if run.startswith("cosine-m"):
        m = float(run[len("cosine-m"):].split("-n")[0])
        return f"cosine-m{m:g}"
    return _TASK_BY_FIRST_CHECK.get(first.check_id, first.check_id)


class LayerTracer:
    """Rebinds coulombflow functions to timing wrappers; see the module doc."""

    def __init__(self):
        # run.py sets the host speed sampler's clock, which leaves out the sampling.
        self.clock = time.perf_counter
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._child = []
        self._undo = []

    def _timed(self, key, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            tracer._depth[key] += 1
            tracer._child.append(0.0)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer.clock() - t0
                tracer._depth[key] -= 1
                tracer.self_seconds[key] += dt - tracer._child.pop()
                if tracer._depth[key] == 0:
                    tracer.seconds[key] += dt
                if tracer._child:
                    tracer._child[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "coulombflow" or name.startswith("coulombflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _count_step(self, args, result):
        if self._depth["pde_solver.run"]:
            self.counts["pde_solver.steps"] += 1

    def _count_rk4(self, args, result):
        self.counts["hj_fronts.rk4_steps"] += len(result.times) - 1

    def _count_bytes(self, args, result):
        self.counts["csvio.bytes"] += os.path.getsize(args[0])

    def install(self):
        hooks = {
            "cfl_dt": self._count_step,
            "write_csv": self._count_bytes,
            "integrate_single_vortex": self._count_rk4,
            "integrate_two_vortex": self._count_rk4,
            "integrate_supersolution": self._count_rk4,
        }
        for mod_name, names, key in TRACED:
            module = importlib.import_module(f"coulombflow.{mod_name}")
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._timed(key, original, hooks.get(name)))

        suites = importlib.import_module("coulombflow.suites")
        build_tasks = suites.SUITES[SUITE]

        def traced_tasks(n):
            return [self._suite_task(task) for task in build_tasks(n)]

        suites.SUITES[SUITE] = traced_tasks
        self._undo.append((suites.SUITES, SUITE, build_tasks))

    def _suite_task(self, task):
        def run_task():
            t0 = self.clock()
            results = task()
            self.seconds[f"suites.task.{task_label(results)}"] += self.clock() - t0
            return results

        return run_task

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Totals so far, to difference between repetitions."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
        }


def repetition_stats(before: dict, after: dict) -> dict:
    """What one repetition added to each total."""
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in after
    }


def layer_metrics(reps: list[dict]) -> dict:
    """Median over timed repetitions of each per-layer metric.

    A layer the workload never calls reads 0.
    """
    def per_rep(fn):
        return statistics.median([fn(r) for r in reps])

    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.startswith("suites.task_s."):
            key = "suites.task." + name[len("suites.task_s."):]
            value = per_rep(lambda r: r["seconds"].get(key, 0.0))
        elif name == "pde_solver.run_calls":
            value = per_rep(lambda r: r["calls"].get("pde_solver.run", 0))
        elif name == "pde_solver.run_us_per_step":
            value = per_rep(
                lambda r: 1e6 * r["seconds"].get("pde_solver.run", 0.0)
                / max(r["counts"].get("pde_solver.steps", 0), 1)
            )
        elif name in COUNTS:
            value = per_rep(lambda r: r["counts"].get(name, 0))
        else:
            value = per_rep(lambda r: r["seconds"].get(name[: -len("_s")], 0.0))
        out[name] = {"value": value, "unit": unit}
    return out
