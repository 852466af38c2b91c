import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coulombflow import hj_fronts
from coulombflow.hj_fronts import (
    FRONT_BOUND_CONSTANTS,
    FRONT_SYSTEMS,
    FrontIntegrationError,
    SingleVortexState,
    SupersolutionState,
    TwoVortexState,
    _hit_time,
    calibrate_front_constants,
    comparison_check,
    envelope_margins,
    integrate_single_vortex,
    integrate_supersolution,
    integrate_two_vortex,
    k_evaluator,
    kink_locator,
    smooth_samples,
    viscosity_residual,
)
from coulombflow.suites import COMPARISON_STATE, envelope_front

from conftest import viscosity_residual_reference


def _hit_time_reference(traj, f):
    """First root of f(t), scanning f at every stored time by interpolation."""
    ts = traj.times
    vals = np.array([f(t) for t in ts])
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
    if vals[0] == 0.0:
        return float(ts[0])
    if len(sign_change) == 0:
        return math.inf
    lo, hi = float(ts[sign_change[0]]), float(ts[sign_change[0] + 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def _array_rk4(init, t_end):
    """The front RK4 stepping float64 arrays, the reference for the float one.

    The rhs, step rules and halting tests of each system as written before
    the state became a tuple of floats.  Returns (times, positions, derivs,
    halted_at).
    """
    m, ubar = init.m, init.ubar
    if isinstance(init, SingleVortexState):

        def rhs(y):
            s1, s2 = y
            denom = max(s2 - s1, 1e-10) ** (m - 1.0)
            return (
                np.array([-(ubar**m) * s1 / denom, ubar**m * (1.0 - s2) / denom]),
                ubar**m / denom,
            )

        def gap_of(y):
            return y[1] - y[0]

        def valid(y):
            return 0.0 - 1e-12 <= y[0] < y[1] <= 1.0 + 1e-12

    elif isinstance(init, TwoVortexState):
        alpha = init.alpha
        a_fac = alpha ** (m - 1.0) * ubar**m
        b_fac = (1.0 - alpha) ** (m - 1.0) * ubar**m

        def rhs(y):
            s1, s2, s3, s4 = y
            d12 = max(s2 - s1, 1e-10) ** (m - 1.0)
            d34 = max(s4 - s3, 1e-10) ** (m - 1.0)
            velocities = [
                -a_fac * s1 / d12,
                a_fac * (alpha - s2) / d12,
                b_fac * (alpha - s3) / d34,
                b_fac * (1.0 - s4) / d34,
            ]
            return np.array(velocities), max(a_fac / d12, b_fac / d34)

        def gap_of(y):
            return min(y[1] - y[0], y[3] - y[2])

        def valid(y):
            s1, s2, s3, s4 = y
            tol = 1e-12
            return (
                -tol <= s1 < s2 <= alpha + tol <= s3 + 2 * tol
                and alpha - tol <= s3 < s4 <= 1.0 + tol
            )

    else:
        alpha, sp1 = init.alpha, init.sigma_prime_1
        fac = (1.0 - alpha) ** (m - 1.0) * ubar**m * sp1 ** (m - 1.0)

        def rhs(y):
            s2, s3 = y
            denom = max(s3 - s2, 1e-10) ** (m - 1.0)
            velocities = [-fac * (s3 - s2 + (1.0 - alpha) * sp1) / denom, fac * (1.0 - s3) / denom]
            return np.array(velocities), fac / denom

        def gap_of(y):
            return y[1] - y[0]

        def valid(y):
            return y[1] <= 1.0 + 1e-12

    y = np.array([getattr(init, name) for name in init.MOVING], dtype=float)
    d, rate = rhs(y)
    t, ts, ys, ds = 0.0, [0.0], [y], [d]
    halted = None
    while t < t_end - 1e-15:
        gap = gap_of(y)
        if gap < 1e-10:
            halted = t
            break
        k1 = d
        speed = float(np.max(np.abs(k1)))
        dt = 1e-4 * min(1.0, gap ** (m - 1.0) / ubar**m)
        if speed > 0.0:
            dt = max(dt, 1e-3 * gap / speed)
        dt = min(dt, 0.05 / rate, t_end - t)
        k2 = rhs(y + 0.5 * dt * k1)[0]
        k3 = rhs(y + 0.5 * dt * k2)[0]
        k4 = rhs(y + dt * k3)[0]
        y_new = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not valid(y_new):
            halted = t
            break
        t, y = t + dt, y_new
        d, rate = rhs(y)
        ts.append(t)
        ys.append(y)
        ds.append(d)
    return np.array(ts), np.array(ys), np.array(ds), halted


_EDGE = 1.0 - 1.5e-10  # an initial gap of 1.5e-10: gap^(m-1) underflows to 0 at m = 40

_RK4_CASES = [
    pytest.param(SingleVortexState(0.25, 0.75, 1.0, 1.0), 2.0, id="single-m1"),
    pytest.param(SingleVortexState(0.2, 0.6, 1.0, 2.0), 2.0, id="single-m2"),
    pytest.param(TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0), 0.8, id="two-vortex"),
    # unequal mass fractions and ubar != 1: swapping the ramps' fractions or dropping ubar shows
    pytest.param(
        TwoVortexState(0.05, 0.2, 0.4, 0.8, 0.3, 1.5, 3.0), 1.0, id="two-vortex-uneven"
    ),
    pytest.param(COMPARISON_STATE, 1.0, id="supersolution"),
    # ubar^m underflows to 0: every rate is 0 and the fronts stand still
    pytest.param(SingleVortexState(0.25, 0.75, 1e-3, 200.0), 0.01, id="single-rate-zero"),
    # a zero divisor gives inf and NaN velocities: the first step halts
    pytest.param(
        TwoVortexState(0.0, 1.5e-10, 0.7, 0.9, 0.5, 1.0, 40.0), 1.0, id="two-vortex-halts"
    ),
    pytest.param(
        TwoVortexState(0.1, 0.3, _EDGE, 1.0, _EDGE, 1.0, 40.0), 1.0, id="two-vortex-nan-speed"
    ),
    pytest.param(SingleVortexState(_EDGE, 1.0, 1.0, 40.0), 1.0, id="single-halts"),
]


@pytest.mark.parametrize("init, t_end", _RK4_CASES)
def test_rk4_matches_array_reference(init, t_end):
    integrate = {cls: integrator for cls, integrator in FRONT_SYSTEMS.values()}[type(init)]
    with np.errstate(divide="ignore", invalid="ignore"):
        times, positions, derivs, halted_at = _array_rk4(init, t_end)
        try:
            traj = integrate(init, t_end)
        except FrontIntegrationError as exc:
            # the single vortex raises where the others return a halted trajectory
            assert halted_at is not None and exc.t_reached == halted_at
            return
    assert traj.halted_at == halted_at
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.positions, positions, equal_nan=True)
    assert np.array_equal(traj.derivs, derivs, equal_nan=True)
    assert traj.positions.dtype == traj.derivs.dtype == np.float64


def test_rk4_reference_cases_halt_and_step():
    # the cases above include long runs and halting ones of every system
    halted = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for case in _RK4_CASES:
            times, _, _, halted_at = _array_rk4(*case.values)
            halted.append(halted_at is not None)
            assert halted_at is not None or len(times) > 100
    assert sum(halted) == 3


class TestSingleVortex:
    @pytest.mark.parametrize("t_end", [2.0, 40.0])
    def test_m1_exact_exponentials(self, t_end):
        traj = integrate_single_vortex(SingleVortexState(0.25, 0.75, 1.0, 1.0), t_end)
        for t in np.linspace(0, t_end, 21):
            s1, s2 = traj.interpolate(t)
            assert s1 == pytest.approx(0.25 * math.exp(-t), abs=1e-8)
            assert s2 == pytest.approx(1 - 0.25 * math.exp(-t), abs=1e-8)

    def test_fixed_points(self):
        traj = integrate_single_vortex(SingleVortexState(0.0, 1.0, 1.0, 2.0), 1.0)
        assert np.max(np.abs(traj.positions[:, 0])) == 0.0
        assert np.max(np.abs(traj.positions[:, 1] - 1.0)) == 0.0

    @pytest.mark.parametrize("m, t_end", [(3.0, 2.0), (2.0, 30.0), (3.0, 30.0)])
    def test_ordering_preserved_and_monotone(self, m, t_end):
        traj = integrate_single_vortex(SingleVortexState(0.2, 0.6, 1.0, m), t_end)
        s1, s2 = traj.positions[:, 0], traj.positions[:, 1]
        assert np.all(np.diff(s1) <= 1e-15)
        assert np.all(np.diff(s2) >= -1e-15)
        assert np.all(s2 - s1 > 0)

    def test_mass_boundary_value(self):
        state = SingleVortexState(0.1, 0.6, 1.4, 2.0)
        assert state.k(1.0) == pytest.approx(1.4)
        assert state.k(0.05) == 0.0
        mid = 0.5 * (state.s1 + state.s2)
        assert state.k(mid) == pytest.approx(0.7)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SingleVortexState(0.7, 0.3, 1.0, 2.0)


class TestTwoVortex:
    @pytest.mark.parametrize("t_end", [1.5, 20.0])
    def test_m1_exact(self, t_end):
        traj = integrate_two_vortex(
            TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 1.0), t_end
        )
        for t in np.linspace(0, t_end, 16):
            s = traj.interpolate(t)
            assert s[0] == pytest.approx(0.1 * math.exp(-t), abs=1e-8)
            assert s[1] == pytest.approx(0.5 - 0.2 * math.exp(-t), abs=1e-8)
            assert s[2] == pytest.approx(0.5 + 0.2 * math.exp(-t), abs=1e-8)
            assert s[3] == pytest.approx(1 - 0.1 * math.exp(-t), abs=1e-8)

    def test_fixed_points(self):
        traj = integrate_two_vortex(
            TwoVortexState(0.0, 0.5, 0.5, 1.0, 0.5, 1.0, 2.0), 0.5
        )
        assert np.max(np.abs(traj.positions[:, 0])) == 0.0
        assert np.max(np.abs(traj.positions[:, 3] - 1.0)) == 0.0
        # s2 starts at alpha: frozen
        assert np.max(np.abs(traj.positions[:, 1] - 0.5)) < 1e-14

    def test_piecewise_continuity(self):
        traj = integrate_two_vortex(
            TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0), 0.8
        )
        for t in np.linspace(0, 0.8, 9):
            st = traj.state_at(t)
            eps = 1e-11
            for s_if, val in [
                (st.s1, 0.0),
                (st.s2, st.alpha * st.ubar),
                (st.s3, st.alpha * st.ubar),
                (st.s4, st.ubar),
            ]:
                below = st.k(s_if - eps)
                above = st.k(s_if + eps)
                assert abs(above - below) < 1e-9
                assert abs(st.k(s_if) - val) < 1e-9

    def test_is_viscosity_solution(self):
        traj = integrate_two_vortex(
            TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0), 0.8
        )
        ke, kk = k_evaluator(traj), kink_locator(traj)
        samples = smooth_samples(traj, n_times=8)
        assert viscosity_residual(ke, 2.0, 1.0, "sub", samples, kinks=kk) <= 1e-6
        assert viscosity_residual(ke, 2.0, 1.0, "super", samples, kinks=kk) >= -1e-6


class TestSupersolution:
    def test_hypothesis_validation(self):
        with pytest.raises(ValueError, match="C \\* ubar"):
            SupersolutionState(C=1.5, alpha=0.8, s2=0.4, s3=0.5, ubar=1.0, m=2.0)
        with pytest.raises(ValueError, match="alpha"):
            SupersolutionState(C=0.2, alpha=0.5, s2=0.4, s3=0.5, ubar=1.0, m=2.0)
        with pytest.raises(ValueError, match="m > 1"):
            SupersolutionState(C=0.2, alpha=0.9, s2=0.4, s3=0.5, ubar=1.0, m=1.0)

    def test_piece_values(self):
        st = COMPARISON_STATE
        assert st.k(st.s1) == pytest.approx(0.8)
        assert st.k(st.s2) == pytest.approx(0.8)
        assert st.k(st.s3) == pytest.approx(1.0)
        assert st.k(0.9) == pytest.approx(1.0)
        s_grid = np.linspace(0, 1, 301)
        vals = st.k(s_grid)
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0])
    def test_scalar_k_matches_array_k(self, m):
        # the ramp's power u^(m/(m-1)) may differ in the last bit between
        # numpy's scalar and array paths; k evaluates a scalar as an array
        traj = envelope_front(m)
        st = traj.state_at(min(traj.t_star, traj.t_end) / 2)  # t_star is inf at m = 4
        grid = np.linspace(st.s2, st.s3, 1000)
        alone = [st.k(s) for s in grid]
        assert all(type(k) is float for k in alone)
        assert st.k(grid).tolist() == alone

    def test_residual_supersolution_sign(self):
        traj = integrate_supersolution(COMPARISON_STATE, 0.5)
        ke, kk = k_evaluator(traj), kink_locator(traj)
        samples = smooth_samples(traj, n_times=10, t_max=traj.t_star)
        assert viscosity_residual(ke, 2.0, 1.0, "super", samples, kinks=kk) >= -1e-6

    def test_hitting_times(self):
        st = COMPARISON_STATE
        traj = integrate_supersolution(st, 1.0)
        assert 0 < traj.t_star < traj.t_upper
        # s2 decreasing, s3 increasing up to the recorded horizon
        assert np.all(np.diff(traj.positions[:, 0]) <= 1e-15)
        assert np.all(np.diff(traj.positions[:, 1]) >= -1e-15)
        s2_at_star = traj.interpolate(traj.t_star)[0]
        assert s2_at_star == pytest.approx(st.s1, abs=1e-9)

    @pytest.mark.parametrize("horizon", [0.01, 0.5, 1.0, "envelope"])
    def test_hit_times_match_interpolating_scan(self, horizon):
        if horizon == "envelope":
            traj = envelope_front(2.0)
        else:
            traj = integrate_supersolution(COMPARISON_STATE, horizon)
        st = traj.state0
        t_star = _hit_time_reference(traj, lambda t: traj.interpolate(t)[0] - st.s1)
        t_upper = _hit_time_reference(traj, lambda t: 2.0 * traj.interpolate(t)[1] - (1.0 + st.s3))
        assert _hit_time(traj, lambda pos: pos[..., 0] - st.s1) == t_star
        assert (traj.t_star, traj.t_upper) == (t_star, t_upper)

    def test_rk4_reuses_stored_derivative(self, monkeypatch):
        calls = 0
        integrate = hj_fronts._rk4_integrate

        def counting(rhs, *args, **kwargs):
            def counted(y):
                nonlocal calls
                calls += 1
                return rhs(y)

            return integrate(counted, *args, **kwargs)

        monkeypatch.setattr(hj_fronts, "_rk4_integrate", counting)
        traj = integrate_supersolution(COMPARISON_STATE, 0.5)
        steps = len(traj.times) - 1
        assert traj.halted_at is None and steps > 1000
        assert calls == 4 * steps + 1

    def test_unreached_hitting_time_is_inf(self):
        traj = integrate_supersolution(COMPARISON_STATE, 0.01)
        assert math.isinf(traj.t_star)
        assert math.isinf(traj.t_upper)

    def test_tstar_lower_bound_frozen_constant(self):
        st = COMPARISON_STATE
        traj = integrate_supersolution(st, 1.0)
        c = FRONT_BOUND_CONSTANTS[2.0]["c_tstar"]
        assert traj.t_star >= 0.95 * c * ((st.s2 - st.s1) / st.ubar) ** 2


class TestFrontBounds:
    @pytest.mark.parametrize("m", [2.0, 4.0])
    def test_envelopes_with_frozen_constants(self, m):
        margins = envelope_margins(envelope_front(m))
        assert all(v <= 0.0 for v in margins.values()), margins

    def test_frozen_constants_match_calibration(self):
        fresh = calibrate_front_constants(2.0)
        frozen = FRONT_BOUND_CONSTANTS[2.0]
        for key, val in frozen.items():
            assert fresh[key] == pytest.approx(val, rel=0.02), key


class TestTwoVortexAgainstSimulation:
    def test_two_bump_cumulative_mass_tracks_fronts(self):
        # In 1-D the cumulative mass K(t, x) solves the same front equation
        # (the boundary drift vanishes at x = 0 by symmetry), and the
        # symmetric two-bump datum is exactly the two-vortex profile, so the
        # simulated K must follow the integrated Rankine-Hugoniot fronts.
        from coulombflow.pde_solver import SolverConfig, run
        from coulombflow.torus_field import ScalarField, make_grid

        n = 256
        g = make_grid(1, n)
        x = g.axis_coordinates()
        two_bump = np.where(((x > 0.2) & (x < 0.4)) | ((x > 0.6) & (x < 0.8)), 2.5, 0.0)
        cfg = SolverConfig(
            m=2.0, epsilon=0.0, t_end=0.5, output_times=np.linspace(0.05, 0.5, 10)
        )
        traj = run(ScalarField(g, two_bump), cfg)
        tv = integrate_two_vortex(
            TwoVortexState(0.2, 0.4, 0.6, 0.8, 0.5, 1.0, 2.0), 0.5
        )
        x_edges = (np.arange(n) + 1) * g.h
        worst = 0.0
        for t, f in traj.snapshots:
            k_sim = np.cumsum(f.values) * g.h
            k_ode = tv.state_at(t).k(x_edges)
            worst = max(worst, float(np.max(np.abs(k_sim - k_ode))))
        assert worst <= max(0.02, 3.0 / n)


class TestResidualMachinery:
    def test_kink_guard(self):
        traj = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 0.5)
        ke, kk = k_evaluator(traj), kink_locator(traj)
        s_kink = traj.state_at(0.25).s2
        with pytest.raises(ValueError, match="kink"):
            viscosity_residual(ke, 2.0, 1.0, "sub", [(0.25, s_kink)], kinks=kk)

    def test_rejects_empty_samples(self):
        traj = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 0.5)
        with pytest.raises(ValueError):
            viscosity_residual(k_evaluator(traj), 2.0, 1.0, "sub", [])

    def test_unsorted_samples_name_their_first_near_kink_sample(self):
        # t = 0.25 appears first but offends only in the third sample; the
        # second sample, at t = 0.4, is the first offender in input order
        traj = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 0.5)
        ke, kk = k_evaluator(traj), kink_locator(traj)
        s_late, s_early = traj.state_at(0.4).s1, traj.state_at(0.25).s2
        samples = [(0.25, 0.3), (0.4, s_late), (0.25, s_early)]
        message = re.escape(f"sample (0.4, {s_late}) too close to a kink")
        for residual in (viscosity_residual, viscosity_residual_reference):
            with pytest.raises(ValueError, match=message):
                residual(ke, 2.0, 1.0, "sub", samples, kinks=kk)

    def test_comparison_translation(self):
        from coulombflow.rearrangement import rearrange
        from coulombflow.torus_field import ScalarField, make_grid

        g = make_grid(1, 64)
        vals = np.where(g.axis_coordinates() < 0.5, 2.0, 0.0)
        prof = rearrange(ScalarField(g, vals))
        shift = 0.07

        def k_up(t, s):
            return prof.k_at(s) + shift

        excess = comparison_check([(0.0, prof), (0.1, prof)], k_up)
        assert excess == pytest.approx(-shift, abs=1e-12)

    def test_error_carries_reached_time(self):
        err = FrontIntegrationError("gap collapsed", t_reached=0.25)
        assert err.t_reached == 0.25

    def test_interpolate_outside_range(self):
        traj = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 0.5)
        with pytest.raises(ValueError):
            traj.interpolate(2.0)


@functools.lru_cache(maxsize=None)
def _residual_front(name):
    """(trajectory, m, smooth samples) of a front whose residual the suites check."""
    if name == "single-m2":
        traj = integrate_single_vortex(SingleVortexState(0.1, 0.6, 1.0, 2.0), 1.0)
        return traj, 2.0, smooth_samples(traj, n_times=10)
    if name == "two-m2":
        traj = integrate_two_vortex(TwoVortexState(0.1, 0.3, 0.7, 0.9, 0.5, 1.0, 2.0), 0.8)
        return traj, 2.0, smooth_samples(traj, n_times=8)
    if name == "comparison":
        traj = integrate_supersolution(COMPARISON_STATE, 0.3)
    else:
        traj = envelope_front(float(name.removeprefix("envelope-m")))
    return traj, traj.state0.m, smooth_samples(traj, n_times=10, t_max=traj.t_star)


def _residual_or_error(residual, name, kind, samples):
    traj, m, _ = _residual_front(name)
    try:
        return residual(k_evaluator(traj), m, 1.0, kind, samples, kinks=kink_locator(traj)).hex()
    except ValueError as exc:
        return str(exc)


class TestViscosityResidualReference:
    """viscosity_residual against the five scalar evaluations per sample it replaced."""

    @pytest.mark.parametrize("kind", ["sub", "super"])
    @pytest.mark.parametrize(
        "name",
        ["single-m2", "two-m2", "comparison", "envelope-m2", "envelope-m3", "envelope-m4"],
    )
    def test_bitwise_on_the_checked_fronts(self, name, kind):
        samples = _residual_front(name)[2]
        got = _residual_or_error(viscosity_residual, name, kind, samples)
        assert got == _residual_or_error(viscosity_residual_reference, name, kind, samples)

    # Drawn lists repeat times, leave them unsorted and reach below t = 2e-5,
    # where dt = 0.45 t.  They run on the piecewise-linear profiles, which
    # add, multiply and divide only; the supersolution ramp takes a power,
    # whose array and scalar evaluations can differ in the last bit, so it is
    # compared on its checked samples above.  Seed 1, derandomized.
    @seed(1)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.sampled_from(["single-m2", "two-m2"]),
        st.sampled_from(["sub", "super"]),
        st.lists(st.one_of(st.floats(1e-9, 2e-5), st.floats(0.01, 0.79)), min_size=1, max_size=5),
        st.data(),
    )
    def test_bitwise_on_drawn_samples(self, name, kind, times, data):
        sample = st.tuples(st.sampled_from(times), st.floats(0.0, 1.0))
        samples = data.draw(st.lists(sample, min_size=1, max_size=30))
        got = _residual_or_error(viscosity_residual, name, kind, samples)
        assert got == _residual_or_error(viscosity_residual_reference, name, kind, samples)
