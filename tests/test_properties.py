"""Properties of the solver over raw draws of (d, n, m, eps, cfl, t_end, data).

Only make_grid, SolverConfig and run_batch's data rule reject a draw.  An
accepted run may raise SolverError and no other exception; otherwise it must
conserve mass, keep its snapshots nonnegative, and compute the same bits
alone as in a mixed batch.

The ranges bound the work of one example, not what is accepted: cfl >= 0.1,
t_end <= 0.05 and data on the lattice k/16 in [0, 2] keep every run within
a few hundred steps.  A smaller cfl or a positive minimum near zero at
m < 1 is valid input that only takes more steps.

The Kruzhkov entropy residual agrees with its per-pair reference
(conftest.entropy_residual_reference) on small drawn runs: d <= 2,
n <= 16, m, eps, data and kappas drawn.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coulombflow.pde_solver import (
    SolverConfig,
    SolverError,
    _data_fault,
    entropy_residual,
    run,
    run_batch,
)
from coulombflow.torus_field import ScalarField, make_grid

from conftest import entropy_residual_reference


def _grid(dim, n):
    try:
        return make_grid(dim, n)
    except ValueError:
        return None


# Strategies are built once: building them per example costs more than the runs.
RAW_CONFIG = st.fixed_dictionaries(
    {
        "m": st.floats(-0.5, 5.0),
        "epsilon": st.one_of(st.just("auto"), st.just(0.0), st.floats(-0.005, 0.05)),
        "cfl": st.floats(0.1, 1.0),
        "t_end": st.floats(-0.005, 0.05),
        "output_times": st.lists(st.floats(0.0, 0.05), max_size=2),
        "record_every": st.integers(0, 4),
    }
)
LATTICE = st.integers(0, 32).map(lambda k: k / 16)


@functools.lru_cache(maxsize=None)
def _data(shape):
    return arrays(float, shape, elements=LATTICE, fill=LATTICE)


@st.composite
def _member(draw, grid):
    """One (u0, cfg) member on grid, or None when the config or data are rejected."""
    try:
        cfg = SolverConfig(**draw(RAW_CONFIG))
    except ValueError:
        return None
    values = draw(_data(grid.shape))
    if _data_fault(values, cfg.m):
        return None
    return ScalarField(grid, values), cfg


GRIDS = st.builds(_grid, st.integers(1, 2), st.integers(4, 40)).filter(lambda g: g is not None)


@st.composite
def batches(draw):
    grid = draw(GRIDS)
    member = _member(grid).filter(lambda m: m is not None)
    return draw(st.lists(member, min_size=2, max_size=3))


def _bits(traj):
    """Every snapshot and Observables array of a trajectory, as bytes."""
    obs = traj.observables
    return (
        [(t, f.values.tobytes()) for t, f in traj.snapshots],
        [getattr(obs, f.name).tobytes() for f in dataclasses.fields(obs)],
    )


def _run_or_error(u0, cfg):
    """The trajectory, or the SolverError; any other exception fails the test."""
    try:
        return run(u0, cfg)
    except SolverError as exc:
        return exc


# Rejected draws are part of the design: the validators, not the strategy,
# decide what is valid.
@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(batches())
def test_accepted_runs_conserve_mass_stay_nonnegative_and_batch_bitwise(batch):
    lone = [_run_or_error(u0, cfg) for u0, cfg in batch]
    for traj in lone:
        if isinstance(traj, SolverError):
            continue
        mass = traj.observables.mass
        assert np.max(np.abs(mass - mass[0])) <= 1e-11 * mass[0]
        assert all(np.min(f.values) >= 0.0 for _, f in traj.snapshots)
    failed = [i for i, traj in enumerate(lone) if isinstance(traj, SolverError)]
    try:
        together = run_batch(batch)
    except SolverError as exc:
        # the batch fails at the step of its first failing member
        assert any(str(exc).startswith(f"member {i}: ") for i in failed)
        return
    assert not failed
    for alone, member in zip(lone, together):
        assert _bits(member) == _bits(alone)


@st.composite
def residual_cases(draw):
    """A run with 3-6 uniformly spaced snapshots, on d <= 2, n <= 16, and 1-4 kappas."""
    grid = make_grid(draw(st.integers(1, 2)), draw(st.integers(8, 16)))
    m = draw(st.floats(0.5, 4.0))
    epsilon = draw(st.one_of(st.just("auto"), st.just(0.0), st.floats(0.0, 0.05)))
    count = draw(st.integers(3, 6))
    t_end = draw(st.floats(0.005, 0.05))
    # data on k/16 in [1/4, 2] are positive, as m < 1 requires
    values = draw(arrays(float, grid.shape, elements=st.integers(4, 32).map(lambda k: k / 16)))
    cfg = SolverConfig(
        m=m, epsilon=epsilon, t_end=t_end, output_times=np.linspace(t_end / count, t_end, count)
    )
    kappas = draw(st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4))
    return run(ScalarField(grid, values), cfg), cfg, kappas


# The residual sums in another order than the reference, so they agree to
# roundoff; the bound is test_matches_per_pair_loop's 1e-14.  Over 400
# random draws of this strategy the largest difference was 6.4e-16.
@seed(1)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(residual_cases())
def test_entropy_residual_matches_per_pair_reference(case):
    traj, cfg, kappas = case
    got = entropy_residual(traj, cfg, kappas)
    assert abs(got - entropy_residual_reference(traj, cfg, kappas)) <= 1e-14
