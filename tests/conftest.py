"""Shared simulation fixtures; expensive runs are computed once per session.

The scenarios the `verify` suites also check come from the builders in
coulombflow.suites; only the test-only runs are configured here.
"""

import contextlib
import io
import os

import numpy as np
import pytest

from coulombflow import suites
from coulombflow.cli import main
from coulombflow.pde_solver import SolverConfig, run
from coulombflow.torus_field import ScalarField, make_grid

ACCEPTANCE_MS = (0.5, 1.0, 2.0, 4.0)
VERIFY_SMALL = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "verify_small.json")


def cosine_field(n, base=1.0, amp=0.5):
    grid = make_grid(1, n)
    x = grid.axis_coordinates()
    return ScalarField(grid, base + amp * np.cos(2 * np.pi * x))


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
