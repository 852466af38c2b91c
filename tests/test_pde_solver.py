import dataclasses

import numpy as np
import pytest

from coulombflow import pde_solver
from coulombflow.pde_solver import (
    SolverConfig,
    SolverError,
    cfl_dt,
    dissipation_check,
    entropy_residual,
    run,
    run_batch,
    step,
)
from coulombflow.initial_conditions import build_initial_condition
from coulombflow.suites import cosine_run, cosine_runs
from coulombflow.torus_field import (
    ScalarField,
    coulomb_drift,
    interaction_energy,
    lp_norm,
    make_grid,
    mean,
    mode_energy,
    mollify,
)

from conftest import entropy_residual_reference


def cosine(n, base=1.0, amp=0.5):
    g = make_grid(1, n)
    x = g.axis_coordinates()
    return ScalarField(g, base + amp * np.cos(2 * np.pi * x))


def constant(n, c):
    return ScalarField(make_grid(1, n), np.full(n, float(c)))


def dense_uniform_run(u0, m, t_end, eps="auto"):
    """Record a snapshot at every step with a uniform dt."""
    probe = SolverConfig(m=m, epsilon=eps, t_end=t_end)
    nat = cfl_dt(u0, probe)
    nsteps = int(np.ceil(t_end / (0.8 * nat)))
    dt = t_end / nsteps
    # linspace ends exactly at t_end; arange(1, nsteps + 1) * dt can end one ulp past it
    cfg = SolverConfig(m=m, epsilon=eps, t_end=t_end, output_times=np.linspace(dt, t_end, nsteps))
    return run(u0, cfg), cfg


class TestCflDt:
    def test_constant_field_viscous_bound(self):
        u = constant(64, 1.0)
        cfg = SolverConfig(m=2.0, epsilon=0.5, cfl=0.45)
        g = u.grid
        assert cfl_dt(u, cfg) == pytest.approx(0.45 * g.h**2 / (2 * 0.5))

    def test_unbounded_clamps_to_output_gap(self):
        u = constant(64, 1.0)
        cfg = SolverConfig(m=2.0, epsilon=0.0)
        assert cfl_dt(u, cfg, next_output_gap=0.3) == pytest.approx(0.3)
        with pytest.raises(SolverError, match="unbounded"):
            cfl_dt(u, cfg)

    def test_advective_bound_scales_with_h(self):
        cfg = SolverConfig(m=2.0, epsilon=0.0)
        dts = {}
        for n in (64, 128):
            u = cosine(n)
            dts[n] = cfl_dt(u, cfg)
        assert dts[128] == pytest.approx(dts[64] / 2, rel=0.05)

    def test_cfl_above_half_needs_zero_viscosity(self):
        # the advective and viscous bounds are each scaled by cfl and the
        # update is monotone only while they sum to at most 1; at cfl = 0.95
        # this run used to go negative mid-way
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u0 = ScalarField(g, np.where((x > 0.25) & (x < 0.75), 2.0, 0.0))
        with pytest.raises(ValueError, match="cfl"):
            run(u0, SolverConfig(m=2.0, epsilon="auto", cfl=0.95, t_end=0.1))
        assert SolverConfig(m=2.0, epsilon=0.0, cfl=1.0).epsilon_at(g) == 0.0

    def test_config_checked_when_built(self):
        # no grid and no run: the rules hold for the config alone
        with pytest.raises(ValueError, match="^cfl"):
            SolverConfig(m=2.0, cfl=0.95)
        cfg = SolverConfig(m=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cfl = 0.95

    @pytest.mark.parametrize(
        "key, value",
        [("m", True), ("cfl", True), ("t_end", True), ("epsilon", False), ("record_every", True),
         ("output_times", [True])],
    )
    def test_booleans_are_not_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}"):
            SolverConfig(**{"m": 1.0, "epsilon": 0.0, **{key: value}})

    @pytest.mark.parametrize(
        "times", [[0.05, 2.0, -1.0], 0.05, [2e-309, 0.05]],
        ids=["times-outside", "times-scalar", "times-below-resolution"],
    )
    def test_output_times_checked_when_built(self, times):
        with pytest.raises(ValueError, match="^output_times"):
            run(cosine(16), SolverConfig(m=1.0, t_end=0.1, output_times=times))

    def test_t_end_below_time_resolution_rejected(self):
        # t_end = 5e-14 used to end the run at t = 0, with no step and no t_end snapshot
        with pytest.raises(ValueError, match="^t_end must be finite and >= 1e-12"):
            SolverConfig(m=2.0, t_end=5e-14)
        assert run(cosine(16), SolverConfig(m=2.0, t_end=1e-12)).times.tolist() == [0.0, 1e-12]

    def test_scheme_parameters_only(self):
        # the data's rules (m < 1 needs a positive minimum, the mollifier)
        # belong to run_batch and the experiment config
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "m", "epsilon", "cfl", "t_end", "output_times", "record_every",
        ]

    def test_advective_rate_underflow_leaves_viscous_bound(self):
        # 5e-324 * 16 * |drift| underflows to 0: no advective bound, not a ZeroDivisionError
        u = ScalarField(make_grid(1, 8), np.array([0.0625] + [0.125] * 7))
        h = u.grid.h
        assert cfl_dt(u, SolverConfig(m=5e-324)) == pytest.approx(0.45 * h**2 / (2.0 * h), rel=1e-15)

    def test_underflow_rejected(self):
        u = cosine(64)
        cfg = SolverConfig(m=2.0)
        with pytest.raises(SolverError, match="underflow"):
            cfl_dt(u, cfg, next_output_gap=1e-16)


class TestStep:
    def test_constant_steady_state(self):
        u = constant(64, 2.0)
        cfg = SolverConfig(m=3.0, epsilon="auto")
        out = step(u, 10.0, cfg)  # any dt: flux and Laplacian vanish
        assert np.array_equal(out.values, u.values)

    def test_mass_preserved_to_roundoff(self):
        u = cosine(128)
        cfg = SolverConfig(m=2.0)
        dt = cfl_dt(u, cfg)
        out = step(u, dt, cfg)
        assert mean(out) == pytest.approx(mean(u), rel=1e-13)

    def test_max_decreases_first_step(self):
        u = cosine(256)
        cfg = SolverConfig(m=2.0)
        out = step(u, cfl_dt(u, cfg), cfg)
        assert np.max(out.values) < np.max(u.values)

    def test_cfl_violation_rejected(self):
        u = cosine(128)
        cfg = SolverConfig(m=2.0)
        with pytest.raises(SolverError, match="CFL"):
            step(u, 100.0 * cfl_dt(u, cfg), cfg)

    def test_negative_input_rejected(self):
        g = make_grid(1, 64)
        u = ScalarField(g, np.full(64, -0.5))
        with pytest.raises(SolverError):
            step(u, 1e-6, SolverConfig(m=2.0))

    # step() applies run_batch's data rule, message for message
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        u = cosine(16)
        u.values[3] = bad
        with pytest.raises(SolverError, match="^initial data must be finite$"):
            step(u, 1e-3, SolverConfig(m=2.0))

    def test_m_lt_1_zero_cell_names_the_rule(self):
        u = cosine(16)
        u.values[3] = 0.0
        with pytest.raises(SolverError, match="^m < 1 requires a positive initial minimum, got 0.0$"):
            step(u, 1e-3, SolverConfig(m=0.5))

    def test_roundoff_negative_input_rejected(self):
        u = cosine(16)
        u.values[3] = -1e-14
        with pytest.raises(SolverError, match="^initial data must be nonnegative$"):
            step(u, 1e-3, SolverConfig(m=2.0))


class TestRun:
    def test_constant_run_trivial(self):
        traj = run(constant(64, 1.0), SolverConfig(m=2.0, t_end=1.0, output_times=[0.5, 1.0]))
        for _, f in traj.snapshots:
            assert np.max(np.abs(f.values - 1.0)) < 1e-14
        assert np.max(traj.observables.energy) < 1e-25

    def test_first_snapshot_is_initial(self):
        u0 = cosine(64)
        traj = run(u0, SolverConfig(m=1.0, t_end=0.2, output_times=[0.1, 0.2]))
        t0, f0 = traj.snapshots[0]
        assert t0 == 0.0
        assert np.array_equal(f0.values, u0.values)

    def test_snapshot_times_exact(self):
        traj = run(cosine(64), SolverConfig(m=1.0, t_end=0.3, output_times=[0.1, 0.2, 0.3]))
        assert [t for t, _ in traj.snapshots] == [0.0, 0.1, 0.2, 0.3]

    def test_mass_conservation_along_run(self):
        traj = run(cosine(256), SolverConfig(m=2.0, t_end=1.0, output_times=[1.0]))
        obs = traj.observables
        assert np.max(np.abs(obs.mass - obs.mass[0])) <= 1e-11 * obs.mass[0]

    def test_minmax_monotone(self):
        traj = run(cosine(256), SolverConfig(m=2.0, t_end=1.0, output_times=[1.0]))
        obs = traj.observables
        assert np.max(np.diff(obs.max)) <= 1e-9
        assert np.min(np.diff(obs.min)) >= -1e-9

    def test_lp_monotone(self):
        traj = run(cosine(256), SolverConfig(m=2.0, t_end=1.0, output_times=[1.0]))
        obs = traj.observables
        assert np.max(np.diff(obs.l2)) <= 1e-8
        assert np.max(np.diff(obs.max)) <= 1e-8

    def test_l1_decay_rate_m1(self):
        traj = run(cosine(256), SolverConfig(m=1.0, t_end=2.0, output_times=np.linspace(0.1, 2, 20)))
        pts = np.array(
            [(t, np.sum(np.abs(f.values - 1.0)) / 256) for t, f in traj.snapshots[1:]]
        )
        slope = np.polyfit(pts[:, 0], np.log(pts[:, 1]), 1)[0]
        assert slope <= -0.9  # at least the mass-rate, viscosity adds margin

    def test_max_below_barrier_curve(self, cosine_runs_n256):
        from coulombflow.barrier_ode import BarrierParams, phi_curve

        traj = cosine_runs_n256[2.0]
        obs = traj.observables
        hi = phi_curve(BarrierParams(1.0, 1.5, 2.0), obs.t)
        assert np.max(obs.max - hi) <= 0.02

    @pytest.mark.parametrize("lowest", [0.0, -0.0, np.nan])
    def test_m_lt_1_requires_positive_minimum(self, lowest):
        # u^m is not Lipschitz at zero for m < 1: a zero cell has no step bound
        u0 = cosine(64)
        u0.values[7] = lowest
        cfg = SolverConfig(m=0.5, t_end=0.1)
        rule = "m < 1 requires a positive initial minimum, got"
        with pytest.raises(SolverError, match=f"^{rule}"):
            run(u0, cfg)
        with pytest.raises(SolverError, match=f"^member 1: {rule}"):
            run_batch([(cosine(64), cfg), (u0, cfg)])
        # the rule is the data's: positive data at m < 1 runs without any floor
        traj = run(cosine(64), cfg)
        assert traj.times[-1] == 0.1
        assert traj.observables.min[-1] >= 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_rejected(self, bad):
        u0 = cosine(64)
        u0.values[7] = bad
        cfg = SolverConfig(m=2.0, t_end=0.1)
        handed_out = []
        with pytest.raises(SolverError, match="^initial data must be finite$"):
            run(u0, cfg, on_snapshot=lambda *snapshot: handed_out.append(snapshot))
        with pytest.raises(SolverError, match="^member 1: initial data must be finite$"):
            run_batch(
                [(cosine(64), cfg), (u0, cfg)],
                on_snapshot=lambda *snapshot: handed_out.append(snapshot),
            )
        assert handed_out == []

    def test_rejects_negative_initial(self):
        g = make_grid(1, 64)
        u = ScalarField(g, np.linspace(-0.1, 1.0, 64))
        with pytest.raises(SolverError):
            run(u, SolverConfig(m=1.0, t_end=0.1))

    def test_2d_smoke_conservation_and_monotonicity(self):
        g = make_grid(2, 64)
        x1, x2 = g.coordinates()
        u0 = ScalarField(g, 1 + 0.25 * (np.cos(2 * np.pi * x1) + np.cos(2 * np.pi * x2)))
        traj = run(u0, SolverConfig(m=2.0, t_end=0.05, output_times=[0.025, 0.05]))
        obs = traj.observables
        assert np.max(np.abs(obs.mass - obs.mass[0])) <= 1e-11 * obs.mass[0]
        assert np.max(np.diff(obs.max)) <= 1e-9
        assert np.max(np.diff(obs.l2)) <= 1e-8

    @pytest.mark.parametrize("eps", ["auto", 0.0])
    @pytest.mark.parametrize("floor", [1e-2, 1e-4])
    def test_fast_diffusion_cfl_uses_min_slope(self, eps, floor):
        # u^m with m < 1 is steepest at the smallest value, so the advective
        # bound must use m * u_min^(m-1); u_max^(m-1) lets the floor go negative
        g = make_grid(1, 256)
        x = g.axis_coordinates()
        u0 = ScalarField(g, np.maximum(np.where((x > 0.25) & (x < 0.75), 4.0, 0.0), floor))
        cfg = SolverConfig(m=0.3, epsilon=eps, t_end=0.1)
        obs = run(u0, cfg).observables
        assert np.max(np.abs(obs.mass - obs.mass[0])) <= 1e-11 * obs.mass[0]
        assert np.all(np.diff(obs.max) <= 0.0)
        assert np.all(np.diff(obs.min) >= 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_recorded_energy_is_interaction_energy(self, dim):
        g = make_grid(dim, 32)
        x = g.coordinates()
        u0 = ScalarField(g, 1 + 0.3 * np.cos(2 * np.pi * x[0]) + 0.2 * np.sin(2 * np.pi * x[-1]))
        traj = run(u0, SolverConfig(m=2.0, t_end=0.01, output_times=[0.01]))
        assert traj.observables.energy[0] == interaction_energy(u0)

    def test_determinism(self):
        cfg = SolverConfig(m=2.0, t_end=0.2, output_times=[0.2])
        a = run(cosine(128), cfg).snapshots[-1][1].values
        b = run(cosine(128), cfg).snapshots[-1][1].values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("eps", ["auto", 0.0])
    @pytest.mark.parametrize(
        "dim, params",
        [
            (1, {"kind": "cosine", "base": 1.0, "amplitudes": [0.5, 0.2]}),
            (1, {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]}),
            (2, {"kind": "blocks", "blocks": [[0.25, 0.75, 0.3, 0.6, 2.0]]}),
        ],
    )
    def test_observables_match_snapshots(self, dim, params, eps):
        # Iterates are nonnegative, so the mass is the L^1 norm and the max the L^inf norm.
        g = make_grid(dim, 64 if dim == 1 else 16)
        traj, _ = dense_uniform_run(build_initial_condition(g, params), 2.0, 0.02, eps=eps)
        obs = traj.observables
        assert np.array_equal(obs.t, traj.times)
        fields = [f for _, f in traj.snapshots]

        def per_snapshot(fn):
            return np.array([fn(f) for f in fields])

        assert np.array_equal(obs.mass, per_snapshot(mean))
        assert np.array_equal(obs.mass, per_snapshot(lambda f: lp_norm(f, 1)))
        assert np.array_equal(obs.max, per_snapshot(lambda f: lp_norm(f, np.inf)))
        assert np.array_equal(obs.min, per_snapshot(lambda f: float(np.min(f.values))))
        assert np.array_equal(obs.max, per_snapshot(lambda f: float(np.max(f.values))))
        assert np.array_equal(obs.energy, per_snapshot(interaction_energy))
        np.testing.assert_allclose(
            obs.l2, per_snapshot(lambda f: lp_norm(f, 2)), rtol=1e-15, atol=0.0
        )


def _run_reference(u0, cfg):
    """run() with np.roll neighbours and seven reductions per recorded row.

    Returns the (t, values) snapshots and one row per record:
    t, mass, min, max, l1, l2, linf, energy, cumulative dissipation.
    """
    grid = u0.grid
    h, cm, m = grid.h, grid.cell_measure, cfg.m
    eps = cfg.epsilon_at(grid)
    outputs = []
    for t in sorted(float(t) for t in cfg.output_times if 0.0 < t <= cfg.t_end):
        if not outputs or t - outputs[-1] > 1e-12:
            outputs.append(t)
    if not outputs or outputs[-1] < cfg.t_end - 1e-12:
        outputs.append(cfg.t_end)

    def mobility(v):
        return np.power(np.maximum(v, 0.0), m)

    values = u0.values.copy()
    t, cum_diss = 0.0, 0.0
    snapshots = [(0.0, values.copy())]
    rows = []

    def record(tnow, v, uhat):
        rows.append((
            tnow,
            float(np.sum(v)) * cm,
            float(np.min(v)),
            float(np.max(v)),
            float(np.sum(np.abs(v))) * cm,
            float(np.sqrt(np.sum(v**2) * cm)),
            float(np.max(np.abs(v))),
            0.5 * mode_energy(grid, uhat),
            cum_diss,
        ))

    out_idx, step_idx = 0, 0
    while True:
        uhat = np.fft.rfftn(values)
        faces = coulomb_drift(grid, uhat)
        if step_idx % cfg.record_every == 0:
            record(t, values, uhat)
        if t >= cfg.t_end - 1e-13:
            if rows[-1][0] < t - 1e-15:
                record(t, values, uhat)
            break
        gap = outputs[out_idx] - t
        dt = cfl_dt(ScalarField(grid, values), cfg, next_output_gap=gap, faces=faces)
        sq = np.zeros_like(values)
        rhs = np.zeros_like(values)
        for a, w in enumerate(faces):
            sq += 0.5 * (w**2 + np.roll(w, 1, axis=a) ** 2)
            g = w * mobility(np.where(w > 0.0, np.roll(values, -1, axis=a), values))
            rhs += (g - np.roll(g, 1, axis=a)) / h
        cum_diss += dt * float(np.sum(sq * mobility(values))) * cm
        if eps > 0.0:
            lap = np.zeros_like(values)
            for a in range(grid.dim):
                lap += (
                    np.roll(values, -1, axis=a) - 2.0 * values + np.roll(values, 1, axis=a)
                ) / h**2
            rhs = rhs + eps * lap
        values = values + dt * rhs
        if float(np.min(values)) < 0.0:
            values = np.maximum(values, 0.0)
        t += dt
        step_idx += 1
        if abs(t - outputs[out_idx]) < 1e-12:
            t = outputs[out_idx]
            snapshots.append((t, values.copy()))
            out_idx = min(out_idx + 1, len(outputs) - 1)
    return snapshots, np.array(rows)


_REFERENCE_CASES = [
    (1, m, floor, eps, every)
    for m, floor in ((0.5, 0.05), (1.0, 0.0), (2.5, 0.0))
    for eps in ("auto", 0.0)
    for every in (1, 3)
] + [(2, 2.5, 0.0, "auto", 3)]


@pytest.mark.parametrize("dim, m, floor, eps, every", _REFERENCE_CASES)
def test_run_matches_roll_based_reference(dim, m, floor, eps, every):
    g = make_grid(dim, 64 if dim == 1 else 16)
    x = g.coordinates()
    # Exact zeros (or the floor) on part of the torus, smooth elsewhere.
    bump = np.cos(2 * np.pi * x[0]) + 0.3 * np.sin(4 * np.pi * x[-1])
    u0 = ScalarField(g, np.maximum(2.0 * bump, floor))
    cfg = SolverConfig(
        m=m, epsilon=eps, t_end=0.1, output_times=np.linspace(0.01, 0.1, 10),
        record_every=every,
    )
    traj = run(u0, cfg)
    _assert_matches_reference(traj, *_run_reference(u0, cfg))
    assert len(traj.observables.t) >= 4


def _assert_matches_reference(traj, want_snaps, want_rows):
    """traj bit-equal to what _run_reference returns for the same member."""
    assert [t for t, _ in traj.snapshots] == [t for t, _ in want_snaps]
    for (_, got), (_, want) in zip(traj.snapshots, want_snaps):
        assert np.array_equal(got.values, want)
    obs = traj.observables
    got_cols = [
        obs.t, obs.mass, obs.min, obs.max, obs.mass, obs.l2, obs.max,
        obs.energy, obs.cumulative_dissipation,
    ]
    assert len(got_cols) == want_rows.shape[1]
    for got, want in zip(got_cols, want_rows.T):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [32, 33])
def test_2d_symmetric_data_stays_symmetric(n):
    # the half spectrum treats the two axes differently; the run must not
    g = make_grid(2, n)
    u0 = build_initial_condition(g, {"kind": "cosine", "base": 1.0, "amplitudes": [0.45, 0.1]})
    assert np.array_equal(u0.values, u0.values.T)
    cfg = SolverConfig(m=2.0, t_end=0.05, output_times=np.linspace(0.01, 0.05, 5))
    traj = run(u0, cfg)
    assert len(traj.snapshots) == 6
    for _, f in traj.snapshots:
        assert np.max(np.abs(f.values - f.values.T)) <= 1e-12


def _assert_identical(got, want):
    """Equal values and equal sign bits, so -0.0 and 0.0 differ."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_same_trajectory(got, want):
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
    for (_, g_field), (_, w_field) in zip(got.snapshots, want.snapshots):
        _assert_identical(g_field.values, w_field.values)
    for field in dataclasses.fields(want.observables):
        _assert_identical(getattr(got.observables, field.name), getattr(want.observables, field.name))


def _batch_members_1d():
    g = make_grid(1, 64)
    x = g.axis_coordinates()
    block = np.where(np.abs(x - 0.5) < 0.2, 2.0, 0.0)  # exact zeros outside
    bump = np.maximum(2.0 * (np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x)), 0.0)
    return [
        (ScalarField(g, np.maximum(bump, 0.05)), SolverConfig(
            m=0.5, t_end=0.1, output_times=np.linspace(0.01, 0.1, 10),
        )),
        (ScalarField(g, block), SolverConfig(
            m=1.0, epsilon=0.0, cfl=0.9, t_end=0.07, output_times=[0.02, 0.05], record_every=3,
        )),
        (ScalarField(g, block), SolverConfig(
            m=2.0, epsilon=0.003, cfl=0.3, t_end=0.12,
            output_times=np.linspace(0.03, 0.12, 4), record_every=2,
        )),
        (mollify(ScalarField(g, bump), 0.02), SolverConfig(
            m=4.0, cfl=0.5, t_end=0.05, output_times=[0.05], record_every=5,
        )),
    ]


def _batch_members_2d():
    g = make_grid(2, 16)
    x, y = g.coordinates()
    bump = np.maximum(2.0 * (np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * y)), 0.0)
    return [
        (ScalarField(g, bump), SolverConfig(
            m=2.0, t_end=0.03, output_times=np.linspace(0.01, 0.03, 3), record_every=3,
        )),
        (ScalarField(g, 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)), SolverConfig(
            m=2.0, epsilon=0.0, t_end=0.02, output_times=np.linspace(0.004, 0.02, 5),
        )),
    ]


@pytest.mark.parametrize("members", [_batch_members_1d(), _batch_members_2d()], ids=["d1", "d2"])
def test_run_batch_matches_run(members):
    batch = run_batch(members)
    assert len(batch) == len(members)
    for (u0, cfg), got in zip(members, batch):
        want = run(u0, cfg)
        assert (got.m, got.epsilon) == (want.m, want.epsilon)
        _assert_same_trajectory(got, want)
    # the members really differ in step count, recording and finishing time
    assert len({len(traj.observables.t) for traj in batch}) == len(batch)


@pytest.mark.parametrize("members", [_batch_members_1d(), _batch_members_2d()], ids=["d1", "d2"])
def test_run_batch_matches_roll_based_reference(members):
    # d1 mixes m, so the batch raises each row's mobility in place; the
    # reference shares none of the batch code
    for (u0, cfg), traj in zip(members, run_batch(members)):
        _assert_matches_reference(traj, *_run_reference(u0, cfg))


def test_cosine_suite_batch_matches_reference_and_lone_runs_bit_for_bit():
    # the verify suite's batch shape: eps = h and cfl shared, so one eps and
    # one dt factor for every row, and m differing, so the mobility is
    # raised row by row
    ms = (0.5, 1.0, 2.0, 4.0)
    batch = cosine_runs(128, ms, t_end=0.5, n_out=5)
    grid = make_grid(1, 128)
    u0 = build_initial_condition(grid, {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]})
    for m in ms:
        traj = batch[m]
        assert len(traj.snapshots) == 6 and len(traj.observables.t) > 100
        _assert_same_trajectory(traj, cosine_run(128, m, t_end=0.5, n_out=5))
        cfg = SolverConfig(m=m, t_end=0.5, output_times=np.linspace(0.1, 0.5, 5))
        want_snaps, want_rows = _run_reference(u0, cfg)
        assert [t for t, _ in traj.snapshots] == [t for t, _ in want_snaps]
        for (_, got), (_, want) in zip(traj.snapshots, want_snaps):
            _assert_identical(got.values, want)
        obs = traj.observables
        got_cols = [
            obs.t, obs.mass, obs.min, obs.max, obs.mass, obs.l2, obs.max,
            obs.energy, obs.cumulative_dissipation,
        ]
        for got, want in zip(got_cols, want_rows.T):
            _assert_identical(got, want)


def _wavy(dim, n):
    g = make_grid(dim, n)
    x = g.coordinates()
    return ScalarField(g, 1.0 + 0.5 * np.prod(np.cos(2 * np.pi * np.array(x)), axis=0)
                       + 0.2 * np.sin(4 * np.pi * x[0]))


# run_batch reduces the observables of up to ~32 KB of held field values at a
# time: 21 states of the three-member n = 64 batch, 64 of a lone n = 64 run,
# 16 of a lone 2-D n = 16 run, 8 of a pair of them and 1 of a 2-D n = 64 run.
# Each case records more states than one such block, and the members leave
# the batch in the middle of one.  (members, recorded rows per member)
_BLOCK_CASES = {
    "d1-three-leave-mid-block": (
        [
            (_wavy(1, 64), SolverConfig(m=2.0, t_end=0.1, output_times=[0.04])),
            (_wavy(1, 64), SolverConfig(m=1.0, t_end=0.17, output_times=[0.1], record_every=3)),
            (_wavy(1, 64), SolverConfig(m=0.5, t_end=0.25, output_times=[0.2], record_every=7)),
        ],
        [31, 18, 12],
    ),
    "d1-lone": (
        [(_wavy(1, 64), SolverConfig(m=2.0, t_end=0.3, output_times=np.linspace(0.05, 0.3, 6)))],
        [91],
    ),
    "d2-n16": (
        [
            (_wavy(2, 16), SolverConfig(m=2.0, t_end=0.2, output_times=[0.1])),
            (_wavy(2, 16), SolverConfig(m=1.0, t_end=0.15, record_every=2)),
        ],
        [31, 12],
    ),
    "d2-n16-lone": ([(_wavy(2, 16), SolverConfig(m=2.0, t_end=0.2, output_times=[0.1]))], [31]),
    "d2-n64": (
        [
            (_wavy(2, 64), SolverConfig(m=2.0, t_end=0.02, output_times=[0.01])),
            (_wavy(2, 64), SolverConfig(m=4.0, t_end=0.015, record_every=4)),
        ],
        [13, 4],
    ),
    # the second member records t = 0 and then only its final row at t_end
    "late-row-only": (
        [
            (_wavy(1, 64), SolverConfig(m=2.0, t_end=0.1)),
            (_wavy(1, 64), SolverConfig(m=2.0, t_end=0.08, record_every=10**6)),
        ],
        [30, 2],
    ),
    "late-row-only-lone": ([(_wavy(1, 64), SolverConfig(m=2.0, t_end=0.08, record_every=10**6))], [2]),
}


@pytest.mark.parametrize("members, rows", _BLOCK_CASES.values(), ids=_BLOCK_CASES.keys())
def test_observables_reduced_in_blocks_match_lone_runs_and_reference(members, rows):
    batch = run_batch(members)
    assert [len(traj.observables.t) for traj in batch] == rows
    for (u0, cfg), traj in zip(members, batch):
        if len(members) > 1:
            _assert_same_trajectory(traj, run(u0, cfg))
        _assert_matches_reference(traj, *_run_reference(u0, cfg))
        assert traj.observables.t[-1] == cfg.t_end


def test_run_batch_rejects_empty_and_mixed_grids():
    with pytest.raises(ValueError, match="at least one member"):
        run_batch([])
    cfg = SolverConfig(m=1.0, t_end=0.01)
    with pytest.raises(ValueError, match="member 1 is on"):
        run_batch([(cosine(64), cfg), (cosine(32), cfg)])


def test_run_batch_error_names_the_member():
    cfg = SolverConfig(m=1.0, t_end=0.01)
    negative = ScalarField(make_grid(1, 64), cosine(64).values - 1.0)
    with pytest.raises(SolverError, match="^member 1: initial data must be nonnegative"):
        run_batch([(cosine(64), cfg), (negative, cfg)])
    # m = 300 underflows the first step inside the stepping loop
    steep = SolverConfig(m=300.0, t_end=0.01)
    with pytest.raises(SolverError, match="^member 2: time step underflow"):
        run_batch([(cosine(64), cfg), (cosine(64), cfg), (cosine(64), steep)])


def _reference_dt(grid, values, faces, cfg, gap):
    """One member's step bound in scalar arithmetic, from its own field and faces."""
    eps = grid.h if cfg.epsilon == "auto" else float(cfg.epsilon)
    vmax = max(float(np.abs(w).max()) for w in faces)
    u = float(values.min()) if cfg.m < 1 else float(values.max())
    rate = grid.dim * vmax * (cfg.m * u ** (cfg.m - 1.0))
    dt = cfg.cfl * grid.h / rate if rate > 0.0 else np.inf
    if eps > 0.0:
        dt = min(dt, cfg.cfl * grid.h**2 / (2.0 * grid.dim * eps))
    return dt if gap is None else min(dt, gap)


@pytest.mark.parametrize("dim", [1, 2])
def test_batch_bound_matches_per_member_reference(dim):
    # every (m, eps, cfl, gap) combination is one member of one mixed batch
    grid = make_grid(dim, 16)
    rng = np.random.default_rng(dim)
    cfgs, gaps = [], []
    for m in (0.5, 1.0, 2.0, 4.0):
        for eps in (0.0, "auto", 0.01):
            for cfl in (0.2, 0.5):
                for gap in (None, float(rng.uniform(1e-4, 2e-2))):
                    cfgs.append(SolverConfig(m=m, epsilon=eps, cfl=cfl))
                    gaps.append(gap)
    values = 0.2 + rng.uniform(0.0, 2.0, size=(len(cfgs),) + grid.shape)
    faces = coulomb_drift(grid, np.fft.rfftn(values, axes=grid.axes))
    got = cfl_dt((grid, values), cfgs, gaps, faces)
    want = [
        _reference_dt(grid, v, [w[r] for w in faces], cfg, gap)
        for r, (v, cfg, gap) in enumerate(zip(values, cfgs, gaps))
    ]
    assert got == want
    # the gap and the viscous bound each set some member's dt, the advective
    # bound every eps = 0 member's without a gap
    viscous = [cfg.cfl * grid.h**2 / (2 * dim * cfg.epsilon_at(grid)) for cfg in cfgs
               if cfg.epsilon != 0.0]
    assert any(dt == gap for dt, gap in zip(got, gaps)) and set(got) & set(viscous)
    # one field is the batch of one
    for r in range(0, len(cfgs), 7):
        assert cfl_dt(ScalarField(grid, values[r]), cfgs[r], gaps[r]) == want[r]


def test_batch_bound_error_carries_the_row():
    grid = cosine(64).grid
    values = np.stack([cosine(64).values] * 3)
    cfgs = [SolverConfig(m=1.0), SolverConfig(m=300.0), SolverConfig(m=1.0)]
    with pytest.raises(SolverError, match="^time step underflow") as alone:
        cfl_dt(ScalarField(grid, values[1]), cfgs[1], 0.1)
    with pytest.raises(SolverError) as caught:
        cfl_dt((grid, values), cfgs, [0.1] * 3)
    assert str(caught.value) == str(alone.value) and caught.value.member == 1


def test_one_bound_call_per_step_and_no_field_but_snapshots(monkeypatch):
    calls, built = [], []
    real = pde_solver.cfl_dt
    monkeypatch.setattr(pde_solver, "cfl_dt", lambda *a, **k: calls.append(1) or real(*a, **k))

    class CountedField(ScalarField):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(pde_solver, "ScalarField", CountedField)
    # record_every = 1 records every step and the final time once: steps = rows - 1
    traj = run(cosine(64), SolverConfig(m=2.0, t_end=0.05, output_times=[0.02]))
    steps = len(traj.observables.t) - 1
    assert steps > 5 and len(calls) == steps
    assert len(built) == len(traj.snapshots)

    calls.clear()
    built.clear()
    batch = run_batch([
        (cosine(64), SolverConfig(m=m, t_end=t_end))
        for m, t_end in ((2.0, 0.05), (1.0, 0.02), (0.5, 0.08))
    ])
    member_steps = [len(traj.observables.t) - 1 for traj in batch]
    assert len(set(member_steps)) == 3
    assert len(calls) == max(member_steps) < sum(member_steps)
    assert len(built) == sum(len(traj.snapshots) for traj in batch)


@pytest.mark.parametrize("members", [_batch_members_1d(), _batch_members_2d()], ids=["d1", "d2"])
def test_snapshot_hook_sees_each_snapshot_as_it_lands(members, monkeypatch):
    # one drift per loop pass: the count is the number of steps taken so far
    drifts, real_drift = [], pde_solver.coulomb_drift
    monkeypatch.setattr(
        pde_solver, "coulomb_drift", lambda *a: drifts.append(1) or real_drift(*a)
    )
    calls = []
    batch = run_batch(members, on_snapshot=lambda i, t, f: calls.append((i, t, f, len(drifts))))
    # the t = 0 snapshots come first, before any step, in member order
    assert [(i, t, steps) for i, t, _, steps in calls[: len(members)]] == [
        (i, 0.0, 0) for i in range(len(members))
    ]
    for i, traj in enumerate(batch):
        seen = [(t, f, steps) for j, t, f, steps in calls if j == i]
        assert len(seen) == len(traj.snapshots)
        for (t, f, _), (want_t, want_f) in zip(seen, traj.snapshots):
            assert t == want_t and f is want_f
        if members[i][1].record_every == 1:
            # observables row k holds the time after k steps: each snapshot
            # is handed over in the step that lands on it
            landing = [int(np.flatnonzero(traj.observables.t == t)[0]) for t, _, _ in seen]
            assert [steps for *_, steps in seen] == landing
    u0, cfg = members[0]
    members_seen = []
    run(u0, cfg, on_snapshot=lambda i, t, f: members_seen.append(i))
    assert members_seen == [0] * len(batch[0].snapshots)


@pytest.mark.parametrize("members", [_batch_members_1d(), _batch_members_2d()], ids=["d1", "d2"])
def test_snapshot_hook_leaves_the_run_unchanged(members):
    hooked = run_batch(members, on_snapshot=lambda i, t, f: None)
    for got, want in zip(hooked, run_batch(members)):
        _assert_same_trajectory(got, want)


class TestMollify:
    def test_zero_width_identity(self):
        u = cosine(64)
        assert np.array_equal(mollify(u, 0.0).values, u.values)

    def test_preserves_mass_and_smooths(self):
        g = make_grid(1, 128)
        vals = np.zeros(128)
        vals[40:60] = 2.0
        u = ScalarField(g, vals)
        sm = mollify(u, 2 * g.h)
        # mass off only by the clipped spectral ringing of the kernel
        assert mean(sm) == pytest.approx(mean(u), rel=1e-9)
        assert np.max(sm.values) < np.max(u.values)


class TestDissipation:
    def test_constant_run_exact_zero(self):
        traj = run(constant(64, 1.0), SolverConfig(m=2.0, t_end=0.5, output_times=[0.5]))
        assert dissipation_check(traj) == 0.0

    def test_energy_balance_compliant(self, cosine_runs_n256):
        for m, traj in cosine_runs_n256.items():
            v = dissipation_check(traj)
            assert v <= 1e-6 * traj.observables.energy[0] + 1e-12, f"m={m}"

    def test_violation_refinement(self, cosine_m2_by_n):
        viol = {n: max(dissipation_check(t), 0.0) for n, t in cosine_m2_by_n.items()}
        assert viol[256] <= 0.5 * viol[128] + 1e-12
        assert viol[512] <= 0.5 * viol[256] + 1e-12


def grad_sup_per_snapshot(traj):
    return np.array([pde_solver._grad_sup(traj.grid, f.values) for _, f in traj.snapshots])


class TestGradSup:
    def test_constant_zero(self):
        traj = run(constant(64, 1.5), SolverConfig(m=1.0, t_end=0.2, output_times=[0.1, 0.2]))
        vals = grad_sup_per_snapshot(traj)
        assert np.max(vals) == 0.0

    def test_m1_smooth_bounded(self, subsolution_runs):
        vals = grad_sup_per_snapshot(subsolution_runs[256])
        assert np.max(vals) <= 1.2 * vals[0]

    def test_m2_two_bump_shock_growth(self):
        # steep smooth two-bump data, m = 2, vanishing-viscosity limit run:
        # the gradient sup must blow up as the shock forms (measured 8.7x)
        g = make_grid(1, 512)
        x = g.axis_coordinates()
        u0 = ScalarField(
            g,
            2.5
            * (
                np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2)
                + np.exp(-0.5 * ((x - 0.62) / 0.05) ** 2)
            ),
        )
        cfg = SolverConfig(m=2.0, epsilon=0.0, t_end=1.0, output_times=np.linspace(0.05, 1.0, 20))
        vals = grad_sup_per_snapshot(run(u0, cfg))
        assert np.max(vals) >= 5.0 * vals[0]


def _closure_bump_bank(grid, t0, t1):
    """The bump bank as one closure per bump, rebuilding its profile per call."""
    span = t1 - t0
    t_centers = [t0 + 0.35 * span, t0 + 0.65 * span]
    wt = 0.3 * span
    if grid.dim == 1:
        x_centers = [(0.125,), (0.375,), (0.625,), (0.875,)]
    else:
        x_centers = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    coords = grid.coordinates()
    bank = []
    for tc in t_centers:
        for xc in x_centers:
            for width in (4.0 * grid.h, 8.0 * grid.h):

                def phi(t, tc=tc, xc=xc, width=width):
                    amp = float(pde_solver._bump(np.array([(t - tc) / wt]))[0])
                    if amp == 0.0:
                        return np.zeros(grid.shape)
                    out = np.full(grid.shape, amp)
                    for axis in range(grid.dim):
                        d = coords[axis] - xc[axis]
                        d = d - np.round(d)
                        out = out * pde_solver._bump(d / width)
                    return out

                bank.append(phi)
    return bank


class TestEntropyResidual:
    def test_constant_trajectory_zero(self):
        traj, cfg = dense_uniform_run(constant(64, 1.3), 2.0, 0.1)
        r = entropy_residual(traj, cfg, kappas=[0.0, 0.7, 2.0])
        assert abs(r) < 1e-12

    def test_kappa_zero_telescopes(self):
        traj, cfg = dense_uniform_run(cosine(128), 2.0, 0.2)
        assert entropy_residual(traj, cfg, kappas=[0.0]) >= -1e-8

    def test_kruzhkov_ladder_compliant_and_refining(self):
        residuals = {}
        for n in (128, 256):
            g = make_grid(1, n)
            x = g.axis_coordinates()
            u0 = ScalarField(
                g,
                2.5
                * (
                    np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2)
                    + np.exp(-0.5 * ((x - 0.62) / 0.05) ** 2)
                ),
            )
            traj, cfg = dense_uniform_run(u0, 2.0, 0.4)
            residuals[n] = entropy_residual(
                traj, cfg, kappas=[0.0, 0.3, 0.8, 1.5, 2.2]
            )
        assert residuals[128] >= -0.01 / 128  # measured envelope -C h
        assert abs(residuals[256]) <= 0.6 * abs(residuals[128])

    def test_drift_computed_once_per_snapshot(self, monkeypatch):
        traj, cfg = dense_uniform_run(cosine(64), 2.0, 0.05)
        calls = []

        def counting_drift(*args, **kwargs):
            calls.append(1)
            return coulomb_drift(*args, **kwargs)

        monkeypatch.setattr(pde_solver, "coulomb_drift", counting_drift)
        entropy_residual(traj, cfg, kappas=[0.0, 0.7, 2.0])
        assert len(calls) == len(traj.snapshots) - 1

    @pytest.mark.parametrize(
        "dim, n, eps",
        [(1, 64, "auto"), (1, 64, 0.0), (2, 16, "auto"), (2, 16, 0.0), (1, 33, "auto")],
    )
    def test_matches_per_pair_loop(self, dim, n, eps):
        g = make_grid(dim, n)
        coords = g.coordinates()
        values = 1.0 + 0.5 * np.cos(2 * np.pi * coords[0])
        if dim == 2:
            values = values + 0.3 * np.sin(2 * np.pi * coords[1])
        traj, cfg = dense_uniform_run(ScalarField(g, values), 2.0, 0.05, eps=eps)
        kappas = [0.0, 0.7, 2.0]
        got = entropy_residual(traj, cfg, kappas)
        want = entropy_residual_reference(traj, cfg, kappas)
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 16), (2, 32)])
    def test_bump_bank_matches_closure_reference(self, dim, n):
        g = make_grid(dim, n)
        t0, t1 = 0.013, 0.4
        reference = _closure_bump_bank(g, t0, t1)
        bank = pde_solver.default_bump_bank(g, t0, t1)
        for t in np.linspace(t0, t1, 41):
            got = bank(t)
            assert got.shape == (16,) + g.shape
            assert np.array_equal(got, np.array([phi(t) for phi in reference]))

    def test_cfg_m_must_be_the_trajectorys(self):
        traj, cfg = dense_uniform_run(cosine(64), 2.0, 0.05)
        with pytest.raises(ValueError, match=r"cfg\.m = 1\.5 .* m = 2\.0"):
            entropy_residual(traj, dataclasses.replace(cfg, m=1.5), kappas=[0.0, 0.7])

    def test_needs_enough_snapshots(self):
        traj = run(cosine(64), SolverConfig(m=1.0, t_end=0.1, output_times=[0.1]))
        with pytest.raises(ValueError):
            entropy_residual(traj, SolverConfig(m=1.0), kappas=[0.0])
