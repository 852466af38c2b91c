"""The three benchmark workloads.

Each workload has `prepare(seed, work_dir)`, which builds its inputs,
`operation(inputs)`, the repetition the benchmark times, and
`check(inputs, output)`, which returns the problems found in the output
(see checks.py).  Calls into coulombflow go through module attributes, so
the tracer's rebinding of a module's functions sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil

import numpy as np

import checks
from coulombflow import cli
from coulombflow import hj_fronts as hj
from coulombflow.initial_conditions import build_initial_condition
from coulombflow import pde_solver as ps
from coulombflow import rearrangement as ra
from coulombflow.torus_field import ScalarField, make_grid

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quiet_cli(argv: list[str]) -> int:
    """Run the command-line entry point with its summary line swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class VerifySuite:
    """`coulombflow verify` on the shipped theorem-suite-small config.

    The suite fixes its own scenarios, so the seed does not change the
    inputs.
    """

    name = "verify-suite"

    @staticmethod
    def prepare(seed: int, work_dir: str) -> dict:
        out_dir = os.path.join(work_dir, "verify")
        os.makedirs(out_dir, exist_ok=True)
        return {
            "config": os.path.join(REPO_ROOT, "configs", "verify_small.json"),
            "out": out_dir,
        }

    @staticmethod
    def operation(inputs: dict) -> int:
        return _quiet_cli(
            ["verify", "--config", inputs["config"], "--out", inputs["out"], "--jobs", "1"]
        )

    @staticmethod
    def check(inputs: dict, exit_code: int) -> list[str]:
        # The report is removed once read, so a repetition that writes none fails.
        report = os.path.join(inputs["out"], "report.json")
        with open(report) as fh:
            doc = json.load(fh)
        os.remove(report)
        return checks.check_verify_report(doc, exit_code)


class Simulate2D:
    """`coulombflow simulate` at d = 2, n = 256, m = 2, eps = auto.

    Cosine data 1 + a1 (cos 2 pi x1 + cos 2 pi x2) / 2 + a2 (cos 4 pi x1 +
    cos 4 pi x2) / 2, symmetric in x1 <-> x2, with a1 in [0.35, 0.5] and a2
    in [0, 0.1] drawn from the seed.  The viscous bound limits every step, so
    the step count does not depend on the seed.
    """

    name = "simulate-2d"

    @staticmethod
    def prepare(seed: int, work_dir: str) -> dict:
        rng = random.Random(seed)
        amplitudes = [round(rng.uniform(0.35, 0.5), 6), round(rng.uniform(0.0, 0.1), 6)]
        out_dir = os.path.join(work_dir, "simulate")
        os.makedirs(out_dir, exist_ok=True)
        config = {
            "grid": {"dim": 2, "n": 256},
            "solver": {
                "m": 2.0,
                "epsilon": "auto",
                "t_end": 0.1,
                "output_times": [0.02, 0.04, 0.06, 0.08, 0.1],
            },
            "initial_condition": {"kind": "cosine", "base": 1.0, "amplitudes": amplitudes},
            "outputs": {"dir": out_dir, "formats": ["csv", "svg"]},
        }
        path = os.path.join(work_dir, "simulate_2d.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2)
        return {"config": path, "out": out_dir, "times": config["solver"]["output_times"]}

    @staticmethod
    def operation(inputs: dict) -> int:
        return _quiet_cli(["simulate", "--config", inputs["config"], "--out", inputs["out"]])

    @staticmethod
    def check(inputs: dict, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"simulate exit code {exit_code}"]
        problems = checks.check_simulate_2d(inputs["out"], inputs["times"])
        # Each repetition writes into an empty directory, so stale files cannot pass.
        shutil.rmtree(inputs["out"])
        return problems


def _two_bumps(n: int) -> ScalarField:
    grid = make_grid(1, n)
    x = grid.axis_coordinates()
    bumps = np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2) + np.exp(-0.5 * ((x - 0.62) / 0.05) ** 2)
    return ScalarField(grid, 2.5 * bumps)


def _cosine(n: int, amplitude: float) -> ScalarField:
    grid = make_grid(1, n)
    return ScalarField(grid, 1.0 + amplitude * np.cos(2 * np.pi * grid.axis_coordinates()))


def _dense_config(u0: ScalarField, m: float, t_end: float) -> ps.SolverConfig:
    """A snapshot at every step, with a uniform step 0.8 times the CFL bound."""
    natural = ps.cfl_dt(u0, ps.SolverConfig(m=m, t_end=t_end))
    nsteps = int(np.ceil(t_end / (0.8 * natural)))
    dt = t_end / nsteps
    return ps.SolverConfig(m=m, t_end=t_end, output_times=np.arange(1, nsteps + 1) * dt)


class Analysis:
    """Post-processing of trajectories, as acceptance criteria 8-11, 14 and
    the Kruzhkov ladder test do it.

    The seed draws the cosine amplitude in [0.3, 0.5] of the kappa = 0 and
    subsolution runs; both are limited by the viscous bound, so their step
    counts do not depend on it.  The ladder data, the comparison block and
    the front states are fixed.
    """

    name = "analysis"
    LADDER_KAPPAS = (0.0, 0.3, 0.8, 1.5, 2.2)
    SINGLE_M1_TIMES = np.linspace(0.0, 2.0, 41)

    @staticmethod
    def prepare(seed: int, work_dir: str) -> dict:
        amplitude = round(random.Random(seed).uniform(0.3, 0.5), 6)
        ladder = {}
        for n in (128, 256):
            u0 = _two_bumps(n)
            ladder[n] = (u0, _dense_config(u0, 2.0, 0.4))
        tele_u0 = _cosine(128, amplitude)
        block = build_initial_condition(
            make_grid(1, 256), {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]}
        )
        return {
            "ladder": ladder,
            "kappa0": (tele_u0, _dense_config(tele_u0, 2.0, 0.2)),
            "subsolution": (
                _cosine(256, amplitude),
                ps.SolverConfig(m=1.0, t_end=1.0, output_times=np.round(np.arange(1, 41) * 0.025, 10)),
            ),
            "comparison": (
                block,
                ps.SolverConfig(m=2.0, epsilon=0.0, t_end=0.15, output_times=np.linspace(0.01, 0.15, 15)),
                hj.SupersolutionState(C=0.25, alpha=0.8, s2=0.35, s3=0.48, ubar=1.0, m=2.0),
            ),
            "fronts": {
                "single_m2": hj.SingleVortexState(0.1, 0.6, 1.0, 2.0),
                "two_m2": hj.TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0),
                "single_m1": hj.SingleVortexState(0.25, 0.75, 1.0, 1.0),
            },
        }

    @staticmethod
    def operation(inputs: dict) -> dict:
        res = {"ladder": {}, "viscosity": {}}
        for n, (u0, cfg) in inputs["ladder"].items():
            res["ladder"][n] = ps.entropy_residual(ps.run(u0, cfg), cfg, Analysis.LADDER_KAPPAS)
        u0, cfg = inputs["kappa0"]
        res["kappa0"] = ps.entropy_residual(ps.run(u0, cfg), cfg, [0.0])

        u0, cfg = inputs["subsolution"]
        traj = ps.run(u0, cfg)
        res["ubar"] = float(np.mean(u0.values))
        profiles = [(t, ra.rearrange(f)) for t, f in traj.snapshots]
        res["subsolution"] = ra.subsolution_residual(profiles, cfg.m, res["ubar"])

        u0, cfg, state = inputs["comparison"]
        sup = hj.integrate_supersolution(state, 0.3)
        profiles = [(t, ra.rearrange(f)) for t, f in ps.run(u0, cfg).snapshots]
        res["comparison"] = hj.comparison_check(profiles, hj.k_evaluator(sup), t_max=sup.t_star)
        samples = hj.smooth_samples(sup, n_times=10, t_max=sup.t_star)
        res["supersolution"] = hj.viscosity_residual(
            hj.k_evaluator(sup), 2.0, 1.0, "super", samples, kinks=hj.kink_locator(sup)
        )

        fronts = inputs["fronts"]
        for name, traj, n_times in (
            ("single", hj.integrate_single_vortex(fronts["single_m2"], 1.0), 10),
            ("two", hj.integrate_two_vortex(fronts["two_m2"], 0.8), 8),
        ):
            ke, kk = hj.k_evaluator(traj), hj.kink_locator(traj)
            samples = hj.smooth_samples(traj, n_times=n_times)
            for kind in ("sub", "super"):
                res["viscosity"][f"{name}-{kind}"] = hj.viscosity_residual(
                    ke, 2.0, 1.0, kind, samples, kinks=kk
                )
        single = hj.integrate_single_vortex(fronts["single_m1"], 2.0)
        pos = np.array([single.interpolate(t) for t in Analysis.SINGLE_M1_TIMES])
        res["single_m1"] = {"times": Analysis.SINGLE_M1_TIMES, "s1": pos[:, 0], "s2": pos[:, 1]}
        return res

    @staticmethod
    def check(inputs: dict, output: dict) -> list[str]:
        return checks.check_analysis(output)


WORKLOADS = {w.name: w for w in (VerifySuite, Simulate2D, Analysis)}
