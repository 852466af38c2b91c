"""Acceptance gate: one test per release criterion, at the pinned tolerance.

Every test prints a single `ACCEPT nn <name>: PASS (...)` line so the gate
can be audited from the pytest -s output.  Shared runs come from conftest
fixtures (reference scale: d = 1, n = 256; n = 512 for the support studies;
eps = h unless the scenario needs the vanishing-viscosity limit directly).
"""

import numpy as np

from coulombflow.barrier_ode import (
    BarrierParams,
    phi_curve,
    phi_envelopes,
    tau_half,
    upper_regularization,
)
from coulombflow.hj_fronts import (
    SingleVortexState,
    TwoVortexState,
    comparison_check,
    envelope_margins,
    integrate_single_vortex,
    integrate_supersolution,
    integrate_two_vortex,
    k_evaluator,
    kink_locator,
    m1_front_errors,
    smooth_samples,
    viscosity_residual,
)
from coulombflow.pde_solver import dissipation_check
from coulombflow.rearrangement import (
    rearrange,
    subsolution_residual,
    support_measure,
    waiting_time_indicator,
)
from coulombflow.suites import COMPARISON_STATE, envelope_front, single_vortex_m2_residuals
from coulombflow.torus_field import ScalarField, hminus1_norm, lp_norm, make_grid, mean
from coulombflow.verify import check_waiting_time, fit_stability_constant

from conftest import ACCEPTANCE_MS


def report(num, name, detail):
    print(f"ACCEPT {num:02d} {name}: PASS ({detail})")


def test_01_mass_conservation(cosine_runs_n256, fast_diffusion_run, block_run_m2, waiting_time_runs):
    worst = 0.0
    runs = list(cosine_runs_n256.values()) + [
        fast_diffusion_run,
        block_run_m2,
        waiting_time_runs["jump"],
        waiting_time_runs["lipschitz"],
    ]
    for traj in runs:
        obs = traj.observables
        drift = np.max(np.abs(obs.mass - obs.mass[0])) / abs(obs.mass[0])
        worst = max(worst, drift)
        assert drift <= 1e-11
    report(1, "mass-conservation", f"worst relative drift {worst:.2e} <= 1e-11 over {len(runs)} runs")


def test_02_lp_decrease(cosine_runs_n256):
    worst = -np.inf
    for m in ACCEPTANCE_MS:
        obs = cosine_runs_n256[m].observables
        for p, norm in ((2, obs.l2), (np.inf, obs.max)):
            inc = float(np.max(np.diff(norm)))
            worst = max(worst, inc)
            assert inc <= 1e-8, f"m={m}, p={p}"
    report(2, "lp-decrease", f"worst interval increase {worst:.2e} <= 1e-8, m in {ACCEPTANCE_MS}")


def test_03_energy_dissipation(cosine_runs_n256, cosine_m2_by_n):
    for m, traj in cosine_runs_n256.items():
        v = dissipation_check(traj)
        tol = 1e-6 * traj.observables.energy[0] + 1e-12
        assert v <= tol, f"m={m}"
    viol = {n: max(dissipation_check(t), 0.0) for n, t in cosine_m2_by_n.items()}
    assert viol[256] <= 0.5 * viol[128] + 1e-12
    assert viol[512] <= 0.5 * viol[256] + 1e-12
    report(
        3,
        "energy-dissipation",
        f"max balance drift {max(dissipation_check(t) for t in cosine_m2_by_n.values()):.2e}; "
        f"positive part by n: {[viol[n] for n in (128, 256, 512)]}",
    )


def test_04_barrier_envelopes(cosine_runs_n256, fast_diffusion_run):
    worst = -np.inf
    for label, traj in list(cosine_runs_n256.items()) + [("fd", fast_diffusion_run)]:
        obs = traj.observables
        u0 = traj.snapshots[0][1]
        ubar = mean(u0)
        m = traj.m
        tol = 0.02 * ubar
        hi = phi_curve(BarrierParams(ubar, float(np.max(u0.values)), m), obs.t)
        pos = obs.t > 0
        hi[pos] = np.minimum(hi[pos], upper_regularization(ubar, m, obs.t[pos]))
        lo = phi_curve(BarrierParams(ubar, float(np.min(u0.values)), m), obs.t)
        up_viol = float(np.max(obs.max - hi - tol))
        lo_viol = float(np.max(lo - tol - obs.min))
        worst = max(worst, up_viol, lo_viol)
        assert up_viol <= 0, label
        assert lo_viol <= 0, label
    report(4, "barrier-envelopes", f"worst violation {worst:.2e} <= 0 at tol 0.02*ubar, n=256")


def test_05_fast_diffusion_lower_barrier(fast_diffusion_run):
    traj = fast_diffusion_run
    obs = traj.observables
    tau = tau_half(BarrierParams(1.0, 0.0, 0.5))
    window = (obs.t >= 0.05) & (obs.t <= tau)
    required = 0.9 * obs.t[window] ** 2 / 4.0
    margin = float(np.min(obs.min[window] - required))
    assert margin >= 0.0
    report(
        5,
        "fast-diffusion-lower-barrier",
        f"min margin {margin:.3f} >= 0 on t in [0.05, {tau:.3f}]",
    )


def test_06_exponential_convergence(cosine_runs_n256):
    slopes = {}
    for m in (0.5, 1.0, 2.0):
        traj = cosine_runs_n256[m]
        pts = [
            (t, float(np.sum(np.abs(f.values - 1.0))) * traj.grid.cell_measure)
            for t, f in traj.snapshots
        ]
        arr = np.array([p for p in pts if p[0] >= 2.5])
        slope = np.polyfit(arr[:, 0], np.log(arr[:, 1]), 1)[0]
        slopes[f"l1-m{m}"] = slope
        assert slope <= -(1.0**m) * 0.85, f"L1 m={m}"
    traj = cosine_runs_n256[2.0]
    c = float(np.min(traj.snapshots[0][1].values))
    pts = [(t, hminus1_norm(f)) for t, f in traj.snapshots if t >= 2.5]
    arr = np.array(pts)
    slope = np.polyfit(arr[:, 0], np.log(arr[:, 1]), 1)[0]
    slopes["hm1-m2"] = slope
    assert slope <= -(c**2) * 0.85
    report(6, "exponential-convergence", ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items()))


def test_07_barrier_ode_exactness():
    p = BarrierParams(1.0, 2.0, 1.0)
    ts = np.linspace(0.0, 10.0, 101)
    exact = 2.0 / (2.0 + (1.0 - 2.0) * np.exp(-ts))
    err = float(np.max(np.abs(phi_curve(p, ts) - exact)))
    assert err <= 1e-8
    cases = [(1, 2, 1), (1, 0.5, 2), (2, 3, 0.5), (1, 0.2, 0.5), (1, 1.5, 4), (0.7, 0.1, 1.5)]
    worst = -np.inf
    for ubar, beta, m in cases:
        params = BarrierParams(ubar, beta, m)
        grid = np.logspace(-3, 1.3, 50)
        vals = phi_curve(params, grid)
        lo, hi = phi_envelopes(params, grid)
        worst = max(worst, float(np.max(lo - vals)), float(np.max(vals - hi)))
    assert worst <= 1e-8
    report(
        7,
        "barrier-ode-exactness",
        f"logistic err {err:.2e} <= 1e-8; envelope excursion {worst:.2e} <= 1e-8 on 6 cases",
    )


def test_08_rearrangement_identities():
    rng = np.random.default_rng(42)
    grid = make_grid(1, 256)
    worst_norm = 0.0
    for trial in range(10):
        a = ScalarField(grid, rng.uniform(0, 3, 256))
        b = ScalarField(grid, rng.uniform(0, 3, 256))
        pa, pb = rearrange(a), rearrange(b)
        for theta in np.linspace(0, float(np.max(a.values)), 20):
            assert np.count_nonzero(a.values > theta) == np.count_nonzero(pa.u_star > theta)
        star = ScalarField(grid, pa.u_star)
        for p in (1, 2, np.inf):
            diff = abs(lp_norm(star, p) - lp_norm(a, p))
            worst_norm = max(worst_norm, diff)
            assert diff <= 1e-12
        contraction = np.sum(np.abs(pa.u_star - pb.u_star)) <= np.sum(
            np.abs(a.values - b.values)
        ) + 1e-12
        assert contraction
    report(
        8,
        "rearrangement-identities",
        f"equimeasurability exact, worst Lp defect {worst_norm:.2e} <= 1e-12, contraction on 10 pairs",
    )


def test_09_subsolution_residual(subsolution_runs):
    residuals = {}
    for n, traj in subsolution_runs.items():
        profiles = [(t, rearrange(f)) for t, f in traj.snapshots]
        residuals[n] = subsolution_residual(profiles, 1.0, 1.0)
    assert residuals[256] <= 0.05
    positive = {n: max(r, 0.0) for n, r in residuals.items()}
    assert positive[256] <= positive[128] + 1e-12
    assert positive[512] <= positive[256] + 1e-12
    report(
        9,
        "subsolution-residual",
        f"max residual by n: {[f'{residuals[n]:.1e}' for n in (128, 256, 512)]} (tol 0.05)",
    )


def test_10_front_tracking_agreement(block_run_m2):
    traj = block_run_m2
    n = traj.grid.n
    sv = integrate_single_vortex(SingleVortexState(0.0, 0.5, 1.0, 2.0), 1.0)
    theta = 1e-8 * 2.0
    tol = max(0.03, 3.0 / n)
    worst = 0.0
    for t, f in traj.snapshots:
        s_sim = support_measure(f, theta)
        s1, s2 = sv.interpolate(t)
        worst = max(worst, abs(s_sim - (s2 - s1)))
    assert worst <= tol
    err1, err2 = m1_front_errors(1.0, 1.0)
    assert max(err1, err2) <= 1e-8
    report(
        10,
        "front-tracking-agreement",
        f"support vs ODE max dev {worst:.4f} <= {tol}; m=1 front ODE err {max(err1, err2):.1e} <= 1e-8",
    )


def test_11_comparison_principle(block_run_m2):
    sup = integrate_supersolution(COMPARISON_STATE, 0.3)
    ke = k_evaluator(sup)
    profiles = [(t, rearrange(f)) for t, f in block_run_m2.snapshots]
    p0 = profiles[0][1]
    assert float(np.max(p0.k_at_midpoints() - ke(0.0, p0.s_midpoints))) <= 0.0
    excess = comparison_check(profiles, ke, t_max=sup.t_star)
    assert excess <= 0.02
    report(
        11,
        "comparison-principle",
        f"max simulated excess {excess:.2e} <= 0.02 on t <= T* = {sup.t_star:.3f}",
    )


def test_12_waiting_time(waiting_time_runs):
    m = waiting_time_runs["m"]
    jump_traj = waiting_time_runs["jump"]
    u0j = jump_traj.snapshots[0][1]
    ind_jump = waiting_time_indicator(u0j, m, support_measure(u0j, 1e-8 * 2.0))
    assert ind_jump[0] == "diverges"
    res_jump = check_waiting_time(jump_traj, ind_jump)
    assert res_jump.status == "pass"

    crit0 = waiting_time_runs["critical_u0"]
    ind_crit = waiting_time_indicator(crit0, m, support_measure(crit0, 1e-8 * float(np.max(crit0.values))))
    assert ind_crit[0] == "finite"

    lip_traj = waiting_time_runs["lipschitz"]
    u0l = lip_traj.snapshots[0][1]
    ind_lip = waiting_time_indicator(u0l, m, support_measure(u0l, 1e-8 * float(np.max(u0l.values))))
    assert ind_lip[0] == "finite"
    res_lip = check_waiting_time(lip_traj, ind_lip)
    assert res_lip.status == "pass"
    report(
        12,
        "waiting-time",
        f"jump grows >= 3 cells by t <= 0.2 (margin {-res_jump.measured:.4f}); "
        f"Lipschitz support flat on window {res_lip.context['window']:.4f} "
        f"(margin {-res_lip.measured:.4f}); classifier: diverges/finite",
    )


def test_13_weak_strong_stability(weak_strong_pairs):
    fits = {
        (n, delta): fit_stability_constant(tu, tv)
        for n, (tu, perturbed) in weak_strong_pairs.items()
        for delta, tv in perturbed.items()
    }
    c_ref = fits[(128, 1e-2)]
    worst = max(abs(v - c_ref) / abs(c_ref) for v in fits.values())
    assert worst <= 0.25
    report(
        13,
        "weak-strong-stability",
        f"fitted C ref {c_ref:.3f}, worst relative deviation {worst:.3f} <= 0.25",
    )


def test_14_viscosity_residuals():
    r_sub, r_sup = single_vortex_m2_residuals()
    assert abs(r_sub) <= 1e-6 and abs(r_sup) <= 1e-6

    tv = integrate_two_vortex(TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0), 0.8)
    ke2, kk2 = k_evaluator(tv), kink_locator(tv)
    samples2 = smooth_samples(tv, n_times=8)
    r2_sub = viscosity_residual(ke2, 2.0, 1.0, "sub", samples2, kinks=kk2)
    r2_sup = viscosity_residual(ke2, 2.0, 1.0, "super", samples2, kinks=kk2)
    assert abs(r2_sub) <= 1e-6 and abs(r2_sup) <= 1e-6

    sup = integrate_supersolution(COMPARISON_STATE, 0.5)
    ke3, kk3 = k_evaluator(sup), kink_locator(sup)
    samples3 = smooth_samples(sup, n_times=10, t_max=sup.t_star)
    r3 = viscosity_residual(ke3, 2.0, 1.0, "super", samples3, kinks=kk3)
    assert r3 >= -1e-6

    worst_env = max(max(envelope_margins(envelope_front(m)).values()) for m in (2.0, 4.0))
    assert worst_env <= 1e-9
    report(
        14,
        "viscosity-residuals",
        f"vortex residuals <= 1e-6 (|r| up to {max(abs(r_sub), abs(r_sup), abs(r2_sub), abs(r2_sup)):.1e}); "
        f"supersolution residual {r3:.1e} >= -1e-6; envelope margin {worst_env:.1e} <= 0",
    )
