"""Tests of the benchmark itself: its output checkers accept the outputs the
program writes today and reject corrupted copies; BENCHMARK.json names the
metrics the benchmark prints; the tracer puts back what it rebinds; the
host speed sampler samples while it runs and leaves its time out of its clock.

    python3 -m pytest -q benchmarks/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    w = workloads.VerifySuite
    inputs = w.prepare(1, str(tmp_path_factory.mktemp("verify")))
    code = w.operation(inputs)
    with open(os.path.join(inputs["out"], "report.json")) as fh:
        return code, json.load(fh)


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    w = workloads.Simulate2D
    inputs = w.prepare(1, str(tmp_path_factory.mktemp("simulate")))
    assert w.operation(inputs) == 0
    return inputs


@pytest.fixture(scope="module")
def analysis_out(tmp_path_factory):
    w = workloads.Analysis
    return w.operation(w.prepare(1, str(tmp_path_factory.mktemp("analysis"))))


def _snapshots(out_dir):
    snaps = []
    for name in os.listdir(out_dir):
        if name.startswith("u_"):
            _, data = checks.read_csv(os.path.join(out_dir, name))
            n = int(round(len(data) ** 0.5))
            snaps.append((float(name[2:-4]), data[:, 2].reshape(n, n)))
    return sorted(snaps, key=lambda snap: snap[0])


def test_verify_report_passes(verify_out):
    code, doc = verify_out
    assert len(checks.EXPECTED_CHECK_IDS) == 60
    assert checks.check_verify_report(doc, code) == []


def test_verify_report_with_a_failed_check_is_rejected(verify_out):
    code, doc = verify_out
    bad = copy.deepcopy(doc)
    bad["checks"][7]["status"] = "fail"
    problems = checks.check_verify_report(bad, code)
    assert any(bad["checks"][7]["check_id"] in p for p in problems)


def test_verify_report_with_a_missing_check_or_bad_exit_is_rejected(verify_out):
    code, doc = verify_out
    bad = copy.deepcopy(doc)
    del bad["checks"][-1]
    assert checks.check_verify_report(bad, code)
    assert checks.check_verify_report(doc, 1)


def test_simulate_outputs_pass(simulate_out):
    assert checks.check_simulate_2d(simulate_out["out"], simulate_out["times"]) == []
    assert checks.check_simulate_2d(simulate_out["out"], simulate_out["times"][:-1])


def test_snapshot_with_scaled_mass_is_rejected(simulate_out):
    snaps = _snapshots(simulate_out["out"])
    assert checks.check_snapshots(snaps) == []
    t, v = snaps[-1]
    snaps[-1] = (t, v * (1.0 + 1e-9))
    problems = checks.check_snapshots(snaps)
    assert any("mass drift" in p for p in problems)


def test_asymmetric_snapshot_is_rejected(simulate_out):
    snaps = _snapshots(simulate_out["out"])
    t, v = snaps[2]
    v = v.copy()
    v[10, 20] += 1e-9
    v[30, 40] -= 1e-9
    snaps[2] = (t, v)
    problems = checks.check_snapshots(snaps)
    assert problems and all("asymmetry" in p for p in problems)


def test_rising_max_is_rejected(simulate_out):
    snaps = _snapshots(simulate_out["out"])
    snaps[1], snaps[2] = (snaps[1][0], snaps[2][1]), (snaps[2][0], snaps[1][1])
    problems = checks.check_snapshots(snaps)
    assert any("max increased" in p for p in problems)
    assert any("min decreased" in p for p in problems)


def test_corrupted_snapshot_file_is_rejected(simulate_out, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(simulate_out["out"], out)
    name = sorted(p for p in os.listdir(out) if p.startswith("u_"))[-1]
    header, data = checks.read_csv(out / name)
    data[:, 2] *= 1.0 + 1e-9
    with open(out / name, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    problems = checks.check_simulate_2d(str(out), simulate_out["times"])
    assert any("mass drift" in p for p in problems)
    assert any("u_star" in p for p in problems)


def test_unsorted_u_star_and_energy_gain_are_rejected(simulate_out):
    snaps = _snapshots(simulate_out["out"])
    values = snaps[0][1]
    u_star = np.sort(values.ravel())[::-1].copy()
    assert checks.check_rearranged(values, u_star) == []
    u_star[[5, 6000]] = u_star[[6000, 5]]
    assert checks.check_rearranged(values, u_star)
    header, obs = checks.read_csv(os.path.join(simulate_out["out"], "observables.csv"))
    energy = obs[:, header.index("energy")]
    diss = obs[:, header.index("dissipation")]
    assert checks.check_energy(energy, diss) == []
    gained = energy.copy()
    gained[-1] = energy[0] * (1.0 + 1.01e-6) - diss[-1]
    assert checks.check_energy(gained, diss)


def test_analysis_outputs_pass(analysis_out):
    assert checks.check_analysis(analysis_out) == []


def _past_bound(res, key):
    """A copy of `res` with one measured value just past its bound."""
    bad = copy.deepcopy(res)
    just = 1.0 + 1e-6
    if key == "kappa0":
        bad["kappa0"] = checks.KAPPA0_FLOOR * just
    elif key == "ladder-floor":
        bad["ladder"][128] = -checks.LADDER_H_FACTOR / 128 * just
        bad["ladder"][256] = 0.4 * bad["ladder"][128]
    elif key == "ladder-refinement":
        bad["ladder"][256] = checks.LADDER_REFINEMENT * bad["ladder"][128] * just
    elif key == "subsolution":
        bad["subsolution"] = checks.SUBSOLUTION_FACTOR * bad["ubar"] ** 2 * just
    elif key == "comparison":
        bad["comparison"] = checks.COMPARISON_TOL * just
    elif key == "viscosity":
        bad["viscosity"]["two-super"] = -checks.VISCOSITY_TOL * just
    elif key == "supersolution":
        bad["supersolution"] = -checks.VISCOSITY_TOL * just
    elif key == "single-m1":
        bad["single_m1"]["s1"][7] += 1.01 * checks.FRONT_EXACT_TOL
    return bad


@pytest.mark.parametrize(
    "key",
    ["kappa0", "ladder-floor", "ladder-refinement", "subsolution", "comparison",
     "viscosity", "supersolution", "single-m1"],
)
def test_residual_just_past_its_bound_is_rejected(analysis_out, key):
    problems = checks.check_analysis(_past_bound(analysis_out, key))
    assert len(problems) == 1, problems


def test_benchmark_json_names_the_printed_metrics():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all("bound" in m for m in spec["end_to_end"])
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(tracing.LAYER_METRICS)
    expected.update({name: "us" for name in sweep.metric_names()})
    assert layers == expected


def test_command_prints_the_end_to_end_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "verify-suite",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_sampler_leaves_its_own_time_out_of_its_clock():
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        elapsed, net = time.perf_counter() - t0, sampler.clock() - c0
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert sampler.spent > 0 and net == pytest.approx(elapsed - sampler.spent, abs=1e-3)
    assert sampler.factor() > 0
    # Stopped, it takes no more samples.
    count = len(sampler.samples)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        sum(range(1000))
    assert len(sampler.samples) == count


def test_mean_time_clips_a_descheduled_sample():
    assert hostspeed.mean_time([1.0, 1.0, 1.0, 100.0]) == pytest.approx(6.0 / 4)


def test_tracer_restores_every_rebound_name():
    from coulombflow import cli, pde_solver, suites, verify

    originals = (pde_solver.run, cli.run, suites.run, verify.hminus1_norm,
                 suites.SUITES[tracing.SUITE])
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        assert cli.run is pde_solver.run is suites.run
        assert pde_solver.run is not originals[0]
    finally:
        tracer.uninstall()
    assert (pde_solver.run, cli.run, suites.run, verify.hminus1_norm,
            suites.SUITES[tracing.SUITE]) == originals


def test_tracer_counts_steps_of_a_run():
    from coulombflow import pde_solver as ps
    from coulombflow.torus_field import ScalarField, make_grid

    grid = make_grid(1, 64)
    u0 = ScalarField(grid, 1.0 + 0.5 * np.cos(2 * np.pi * grid.axis_coordinates()))
    cfg = ps.SolverConfig(m=2.0, t_end=0.01)
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        traj = ps.run(u0, cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["pde_solver.run"] == 1
    assert tracer.counts["pde_solver.steps"] == len(traj.observables.t) - 1
    assert tracer.seconds["pde_solver.run"] >= tracer.seconds["pde_solver.cfl_dt"] > 0
