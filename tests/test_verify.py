import json

import numpy as np
import pytest

from coulombflow.pde_solver import SolverConfig, run
from coulombflow.rearrangement import rearrange, waiting_time_indicator, support_measure
from coulombflow.torus_field import ScalarField, make_grid
from coulombflow.verify import (
    CheckResult,
    check_asymptotics,
    check_barriers,
    check_conservation_and_monotonicity,
    check_subsolution,
    check_waiting_time,
    check_weak_strong,
    emit_report,
    fit_stability_constant,
    waiting_window,
)


def constant_run(n=64, c=1.0, t_end=0.5):
    u0 = ScalarField(make_grid(1, n), np.full(n, c))
    return run(u0, SolverConfig(m=2.0, t_end=t_end, output_times=[t_end / 2, t_end]))


class TestConservationChecks:
    def test_constant_run_all_pass(self):
        results = check_conservation_and_monotonicity(constant_run())
        assert all(r.status == "pass" for r in results)
        by_id = {r.check_id: r for r in results}
        assert by_id["mass-conservation"].measured == 0.0

    def test_cosine_run_passes(self, cosine_runs_n256):
        results = check_conservation_and_monotonicity(cosine_runs_n256[2.0])
        assert all(r.status == "pass" for r in results)
        by_id = {r.check_id: r for r in results}
        assert by_id["mass-conservation"].measured <= 1e-11

    def test_injected_mass_leak_fails(self):
        traj = constant_run()
        traj.observables.mass[-1] *= 1 + 1e-3
        results = check_conservation_and_monotonicity(traj)
        by_id = {r.check_id: r for r in results}
        assert by_id["mass-conservation"].status == "fail"


class TestBarrierChecks:
    def test_cosine_runs(self, cosine_runs_n256):
        for m, traj in cosine_runs_n256.items():
            results = check_barriers(traj)
            assert all(r.status == "pass" for r in results), f"m={m}"

    def test_fast_diffusion_lower_barrier(self, fast_diffusion_run):
        results = check_barriers(fast_diffusion_run)
        by_id = {r.check_id: r for r in results}
        assert by_id["fast-diffusion-lower-barrier"].status == "pass"

    def test_fast_diffusion_lower_barrier_from_near_zero_minimum(self):
        # a minimum of 1e-5 follows the comparison curve from ~0, tanh^2(t/2)
        # at m = 1/2; a barrier above that curve failed here by +0.164
        g = make_grid(1, 128)
        u0 = ScalarField(g, 1 + 0.99999 * np.cos(2 * np.pi * g.axis_coordinates()))
        cfg = SolverConfig(m=0.5, epsilon=0.0, t_end=2.0, output_times=np.linspace(0.05, 2.0, 40))
        by_id = {r.check_id: r for r in check_barriers(run(u0, cfg))}
        assert by_id["fast-diffusion-lower-barrier"].status == "pass"

    def test_constant_run_degenerate_equality(self):
        results = check_barriers(constant_run())
        assert all(r.status == "pass" for r in results)
        by_id = {r.check_id: r for r in results}
        assert abs(by_id["upper-barrier"].measured) < 1e-12


class TestAsymptotics:
    def test_rates(self, cosine_runs_n256):
        for m in (0.5, 1.0, 2.0):
            results = check_asymptotics(cosine_runs_n256[m])
            assert all(r.status == "pass" for r in results), f"m={m}"

    def test_l1_rate_value(self, cosine_runs_n256):
        l1 = {r.check_id: r for r in check_asymptotics(cosine_runs_n256[1.0])}["decay-rate-l1"]
        slope = l1.context["fitted_slope"]
        assert slope <= -0.85

    def test_hm1_rate_m2(self, cosine_runs_n256):
        hm1 = {r.check_id: r for r in check_asymptotics(cosine_runs_n256[2.0])}["decay-rate-hm1"]
        assert hm1.status == "pass"
        # c is the discrete minimum of the sampled cosine, close to 0.5
        assert hm1.context["required_rate"] == pytest.approx(0.85 * 0.25, rel=1e-3)

    def test_constant_run_degenerate(self):
        results = check_asymptotics(constant_run())
        assert all(r.status == "pass" for r in results)
        assert all(r.context.get("degenerate") for r in results)


class TestWaitingTime:
    def test_jump_growth(self, waiting_time_runs):
        traj = waiting_time_runs["jump"]
        u0 = traj.snapshots[0][1]
        ind = waiting_time_indicator(u0, 4.0, support_measure(u0, 1e-8 * 2.0))
        assert ind[0] == "diverges"
        res = check_waiting_time(traj, ind)
        assert res.check_id == "support-growth-jump"
        assert res.status == "pass"

    def test_lipschitz_stasis(self, waiting_time_runs):
        traj = waiting_time_runs["lipschitz"]
        u0 = traj.snapshots[0][1]
        ind = waiting_time_indicator(u0, 4.0, support_measure(u0, 1e-8 * 4.0))
        assert ind[0] == "finite"
        res = check_waiting_time(traj, ind)
        assert res.check_id == "support-stasis-lipschitz"
        assert res.status == "pass"
        assert 0 < res.context["window"] < 0.05

    def test_inconclusive_propagates(self, waiting_time_runs):
        res = check_waiting_time(waiting_time_runs["jump"], ("inconclusive", (None, None)))
        assert res.status == "inconclusive"

    def test_window_scales_inversely_with_gradient(self):
        g = make_grid(1, 256)
        x = g.axis_coordinates()
        steep = ScalarField(g, 4.0 * np.maximum(0, 1 - np.abs(x - 0.5) / 0.25))
        steeper = ScalarField(g, 4.0 * np.maximum(0, 1 - np.abs(x - 0.5) / 0.125))
        assert waiting_window(steep, 4.0) > waiting_window(steeper, 4.0)


class TestWeakStrong:
    def test_identical_runs_flat(self):
        traj = constant_run(n=64)
        with pytest.raises(ValueError):
            fit_stability_constant(traj, traj)  # zero distance: nothing to fit

    def test_fit_and_stability(self, weak_strong_pairs):
        tu, perturbed = weak_strong_pairs[128]
        fits = {delta: fit_stability_constant(tu, tv) for delta, tv in perturbed.items()}
        res = check_weak_strong(tu, perturbed[5e-3], c_ref=fits[1e-2])
        assert res.status == "pass"
        assert abs(fits[1e-2] - fits[5e-3]) <= 0.25 * abs(fits[1e-2])


class TestSubsolutionCheck:
    def test_cosine_profiles(self, subsolution_runs):
        traj = subsolution_runs[256]
        profiles = [(t, rearrange(f)) for t, f in traj.snapshots]
        res = check_subsolution(profiles, 1.0, 1.0)
        assert res.status == "pass"


class TestEmitReport:
    def _results(self):
        return [
            CheckResult.from_measurement("a", 0.0, 0.0, 1e-9),
            CheckResult.from_measurement("b", 5.0, 0.0, 1e-9),
            CheckResult.inconclusive("c", note="heuristic undecided"),
        ]

    def test_exit_codes(self, tmp_path):
        all_pass = [CheckResult.from_measurement("a", 0.0, 0.0, 1e-9)]
        assert emit_report(all_pass, tmp_path / "r0.json") == 0
        assert emit_report(self._results(), tmp_path / "r1.json") == 1
        only_inconclusive = [CheckResult.inconclusive("c")]
        assert emit_report(only_inconclusive, tmp_path / "r2.json") == 0

    def test_report_schema(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report(self._results(), path, config={"suite": "demo"})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["summary"] == {
            "total": 3,
            "pass": 1,
            "fail": 1,
            "inconclusive": 1,
        }
        assert {c["check_id"] for c in doc["checks"]} == {"a", "b", "c"}
        assert all(
            set(c) >= {"check_id", "status", "measured", "bound", "tolerance", "context"}
            for c in doc["checks"]
        )

    def test_deterministic_minus_timestamp(self, tmp_path):
        p1, p2 = tmp_path / "x1.json", tmp_path / "x2.json"
        emit_report(self._results(), p1, config={"suite": "demo"})
        emit_report(self._results(), p2, config={"suite": "demo"})
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
