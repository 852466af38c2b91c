"""Shared simulation fixtures; expensive runs are computed once per session.

The scenarios the `verify` suites also check come from the builders in
coulombflow.suites; only the test-only runs are configured here, beside the
per-pair reference of the entropy residual and the per-sample reference of
the front viscosity residual that the tests compare with.
"""

import contextlib
import io
import math
import os

import numpy as np
import pytest

from coulombflow import pde_solver, suites
from coulombflow.cli import main
from coulombflow.pde_solver import SolverConfig, run
from coulombflow.torus_field import ScalarField, coulomb_drift, make_grid, mean

ACCEPTANCE_MS = (0.5, 1.0, 2.0, 4.0)
VERIFY_SMALL = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "verify_small.json")


def cosine_field(n, base=1.0, amp=0.5):
    grid = make_grid(1, n)
    x = grid.axis_coordinates()
    return ScalarField(grid, base + amp * np.cos(2 * np.pi * x))


def entropy_residual_reference(traj, cfg, kappas):
    """entropy_residual as one weak-form sum per (snapshot, kappa, bump)."""
    snaps = traj.snapshots
    times = traj.times
    dts = np.diff(times)
    grid = traj.grid
    cm = grid.cell_measure
    m = cfg.m
    ubar = mean(snaps[0][1])
    bank = pde_solver.default_bump_bank(grid, times[0], times[-1])
    phi_vals = [bank(t) for t in times]
    totals = np.zeros((len(kappas), len(phi_vals[0])))
    for n in range(len(snaps) - 1):
        u = snaps[n][1].values
        dt = dts[n]
        faces = coulomb_drift(grid, np.fft.rfftn(u))
        for k, kappa in enumerate(kappas):
            km = kappa**m
            eta = np.abs(u - kappa)
            sgn = np.sign(u - kappa)
            q = sgn * (np.power(np.maximum(u, 0.0), m) - km)
            z = -sgn * km * (u - ubar)
            for b in range(len(phi_vals[0])):
                p_now = phi_vals[n][b]
                p_next = phi_vals[n + 1][b]
                total = float(np.sum(eta * (p_next - p_now))) * cm
                for axis, w in enumerate(faces):
                    q_up = np.where(w > 0.0, np.roll(q, -1, axis=axis), q)
                    dphi = (np.roll(p_next, -1, axis=axis) - p_next) / grid.h
                    total -= dt * float(np.sum(q_up * w * dphi)) * cm
                total += dt * float(np.sum(z * p_next)) * cm
                if traj.epsilon > 0.0:
                    lap = np.zeros_like(p_next)
                    for a in range(grid.dim):
                        lap += (
                            np.roll(p_next, -1, axis=a) - 2.0 * p_next + np.roll(p_next, 1, axis=a)
                        ) / grid.h**2
                    total += dt * traj.epsilon * float(np.sum(eta * lap)) * cm
                totals[k, b] += total
    return float(np.min(totals))


def viscosity_residual_reference(k_eval, m, ubar, kind, samples, kinks=None):
    """viscosity_residual as five scalar profile evaluations per sample."""
    delta = 1e-5
    if kind not in ("sub", "super"):
        raise ValueError(f"kind must be 'sub' or 'super', got {kind!r}")
    worst = -math.inf if kind == "sub" else math.inf
    checked = 0
    for t, s in samples:
        if kinks is not None:
            if np.min(np.abs(kinks(t) - s)) < 2 * delta:
                raise ValueError(f"sample ({t}, {s}) too close to a kink")
        dt = min(delta, 0.45 * t) if t > 0 else delta
        k0 = float(k_eval(t, s))
        dkdt = (float(k_eval(t + dt, s)) - float(k_eval(t - dt, s))) / (2 * dt)
        dkds = (float(k_eval(t, s + delta)) - float(k_eval(t, s - delta))) / (2 * delta)
        r = dkdt + max(dkds, 0.0) ** m * (k0 - s * ubar)
        worst = max(worst, r) if kind == "sub" else min(worst, r)
        checked += 1
    if checked == 0:
        raise ValueError("no samples supplied")
    return float(worst)


@pytest.fixture(scope="session")
def cosine_runs_n256():
    """Reference runs u0 = 1 + 0.5 cos(2 pi x), n = 256, t_end = 5, as one batch."""
    return suites.cosine_runs(256, ACCEPTANCE_MS)


@pytest.fixture(scope="session")
def fast_diffusion_run():
    """m = 0.5 with initial minimum 0.01, the lower-barrier scenario."""
    cfg = SolverConfig(
        m=0.5,
        t_end=2.0,
        output_times=np.linspace(0.05, 2.0, 40),
    )
    return run(cosine_field(256, amp=0.99), cfg)


@pytest.fixture(scope="session")
def cosine_m2_by_n():
    """The m = 2 cosine test at three resolutions for refinement checks."""
    return {n: suites.cosine_run(n, 2.0, t_end=2.0, n_out=20) for n in (128, 256, 512)}


@pytest.fixture(scope="session")
def subsolution_runs():
    """m = 1 cosine runs with uniformly spaced snapshots for residuals."""
    out = {}
    ts = np.round(np.arange(1, 41) * 0.025, 10)
    for n in (128, 256, 512):
        cfg = SolverConfig(m=1.0, t_end=1.0, output_times=ts)
        out[n] = run(cosine_field(n), cfg)
    return out


@pytest.fixture(scope="session")
def block_run_m2():
    """Indicator block, m = 2, zero viscosity: the front-tracking scenario."""
    times = np.unique(np.concatenate([np.linspace(0.01, 0.15, 15), np.linspace(0.05, 1.0, 20)]))
    return suites.block_run(256, 2.0, 1.0, output_times=times)


@pytest.fixture(scope="session")
def waiting_time_runs():
    """m = 4, n = 512, zero viscosity: jump versus Lipschitz edge data."""
    return suites.waiting_time_runs(512)


@pytest.fixture(scope="session")
def weak_strong_pairs():
    """The m = 1 weak-strong base run and its perturbed runs, n = 128 and 256."""
    return {n: suites.weak_strong_runs(n) for n in (128, 256)}


@pytest.fixture(scope="session")
def verify_small_run(tmp_path_factory):
    """`verify` on configs/verify_small.json in process: (exit code, out dir, stderr)."""
    out = tmp_path_factory.mktemp("verify_small") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--config", VERIFY_SMALL, "--out", str(out)])
    return code, out, err.getvalue()
