import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombflow.barrier_ode import (
    BarrierParams,
    lower_barrier,
    phi,
    phi_curve,
    phi_envelopes,
    tau_half,
    upper_regularization,
)

ENVELOPE_CASES = [
    (1.0, 2.0, 1.0),
    (1.0, 0.5, 2.0),
    (2.0, 3.0, 0.5),
    (1.0, 0.2, 0.5),
    (1.0, 1.5, 4.0),
    (0.7, 0.1, 1.5),
]


def logistic(ubar, beta, t):
    return ubar * beta / (beta + (ubar - beta) * np.exp(-ubar * t))


def inverse_by_bisection(time_of, t, lo, hi):
    """The root of the decreasing map time_of(phi) = t in [lo, hi], to the last bit."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if time_of(mid) > t else (lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def barrier_params(draw):
    """ubar in [0.2, 3], m log-uniform on [0.2, 5], beta in [0, 4 ubar] or inf."""
    ubar = draw(st.floats(0.2, 3.0))
    m = math.exp(draw(st.floats(math.log(0.2), math.log(5.0))))
    beta = draw(st.one_of(st.floats(0.0, 4.0 * ubar), st.just(math.inf)))
    return BarrierParams(ubar, beta, m)


class TestPhi:
    def test_fixed_point(self):
        assert phi(BarrierParams(1.0, 1.0, 2.0), 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_m1_logistic_value(self):
        val = phi(BarrierParams(1.0, 2.0, 1.0), math.log(2))
        assert val == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_m1_matches_logistic_curve(self):
        ts = np.linspace(0, 10, 81)
        vals = phi_curve(BarrierParams(1.0, 2.0, 1.0), ts)
        assert np.max(np.abs(vals - logistic(1.0, 2.0, ts))) < 1e-8

    def test_m_half_tanh_square(self):
        # exact solution for m = 1/2, ubar = 1, beta = 0:
        # sqrt(Phi)' = (1 - Phi)/2 gives Phi(t) = tanh(t/2)^2
        ts = np.linspace(0, 6, 25)
        vals = phi_curve(BarrierParams(1.0, 0.0, 0.5), ts)
        assert np.max(np.abs(vals - np.tanh(ts / 2) ** 2)) < 1e-9

    def test_decreasing_case_stays_in_envelope(self):
        p = BarrierParams(1.0, 2.0, 2.0)
        for t in (0.1, 0.5, 2.0):
            v = phi(p, t)
            assert 1.0 - 1e-10 <= v <= 1.0 + (2 * t + 1.0) ** -0.5 + 1e-10

    def test_long_time_convergence(self):
        for beta in (0.3, 2.5):
            p = BarrierParams(1.0, beta, 1.5)
            assert phi(p, 50.0) == pytest.approx(1.0, abs=1e-4)

    def test_monotonicity(self):
        ts = np.linspace(0, 3, 40)
        down = phi_curve(BarrierParams(1.0, 2.0, 2.0), ts)
        up = phi_curve(BarrierParams(1.0, 0.3, 2.0), ts)
        assert np.all(np.diff(down) <= 1e-12)
        assert np.all(np.diff(up) >= -1e-12)

    def test_semigroup_property(self):
        p = BarrierParams(1.3, 0.4, 1.7)
        t1, t2 = 0.7, 1.1
        direct = phi(p, t1 + t2)
        restart = phi(BarrierParams(1.3, phi(p, t1), 1.7), t2)
        assert direct == pytest.approx(restart, abs=1e-8)

    def test_beta_infinity_majorant(self):
        p = BarrierParams(1.0, math.inf, 2.0)
        ts = np.array([0.01, 0.1, 1.0])
        vals = phi_curve(p, ts)
        assert np.all(vals <= 1.0 + (2 * ts) ** -0.5 + 1e-8)
        assert np.all(vals >= 1.0 - 1e-10)
        with pytest.raises(ValueError):
            phi(p, 0.0)

    def test_beta_infinity_exact(self):
        # m = 1: ubar / (1 - e^-ubar t); m = 2, ubar = 1: t(Phi) = -log(1 - 1/Phi) - 1/Phi
        ts = np.array([0.01, 0.1, 1.0])
        vals = phi_curve(BarrierParams(1.0, math.inf, 1.0), ts)
        np.testing.assert_allclose(vals, 1.0 / -np.expm1(-ts), rtol=1e-12, atol=0)
        vals = phi_curve(BarrierParams(1.0, math.inf, 2.0), ts)
        time_of = lambda v: -math.log1p(-1.0 / v) - 1.0 / v
        exact = [inverse_by_bisection(time_of, t, 1.0, 1.0 + (2 * t) ** -0.5) for t in ts]
        np.testing.assert_allclose(vals, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [1e-300, 1e-12, 1e12])
    def test_extreme_beta(self, beta, m):
        ubar = 1.0
        ts = np.array([0.0, 0.01, 0.1, 1.0, 10.0, 100.0])
        vals = phi_curve(BarrierParams(ubar, beta, m), ts)
        assert vals[0] == beta
        assert np.all(np.isfinite(vals))
        side = np.sign(beta - ubar)
        assert np.all(side * np.diff(vals) <= 0)
        assert np.all(side * (vals - ubar) >= 0)
        if m == 1.0:
            np.testing.assert_allclose(vals, logistic(ubar, beta, ts), rtol=1e-12, atol=0)

    def test_m_ge_1_beta_zero_stays_zero(self):
        assert phi(BarrierParams(1.0, 0.0, 2.0), 3.0) == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BarrierParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarrierParams(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            BarrierParams(1.0, 1.0, 0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(params=barrier_params(), t1=st.floats(0.001, 5.0), t2=st.floats(0.0, 5.0))
def test_barrier_ode_properties(params, t1, t2):
    """Semigroup identity, monotonicity on beta's side and envelope containment,
    the fast-diffusion lower barrier (m < 1) and the sup regularization included.

    Relative tolerances stop at the smallest normal float: a subnormal beta
    carries fewer than 52 bits, so no float evaluation is relatively exact there.
    """
    ubar, beta, m = params.ubar, params.beta, params.m
    tiny = np.finfo(float).tiny
    direct = phi(params, t1 + t2)
    restart = phi(BarrierParams(ubar, phi(params, t1), m), t2)
    assert restart == pytest.approx(direct, rel=1e-11, abs=tiny)
    ts = np.linspace(0.0, t1 + t2, 41)[1 if math.isinf(beta) else 0 :]
    vals = phi_curve(params, ts)
    side = 1.0 if beta >= ubar else -1.0
    assert np.all(side * np.diff(vals) <= 0)
    assert np.all(side * (vals - ubar) >= 0)
    lo, hi = phi_envelopes(params, ts)
    assert np.all(vals >= lo * (1 - 1e-12) - tiny)
    assert np.all(vals <= hi * (1 + 1e-12) + tiny)
    if m < 1:
        assert np.all(vals >= lower_barrier(ubar, m, beta, ts) * (1 - 1e-12) - tiny)
    positive = ts > 0
    assert np.all(vals[positive] <= upper_regularization(ubar, m, ts[positive]) * (1 + 1e-12) + tiny)


class TestEnvelopes:
    @pytest.mark.parametrize("ubar,beta,m", ENVELOPE_CASES)
    def test_containment_on_log_grid(self, ubar, beta, m):
        p = BarrierParams(ubar, beta, m)
        ts = np.logspace(-3, 1.3, 50)
        vals = phi_curve(p, ts)
        lo, hi = phi_envelopes(p, ts)
        assert np.all(vals >= lo - 1e-8)
        assert np.all(vals <= hi + 1e-8)

    def test_decreasing_case_values(self):
        lo, hi = phi_envelopes(BarrierParams(1.0, 2.0, 1.0), 1.0)
        assert lo == pytest.approx(1.0)
        # the exponential branch is tighter than the algebraic one here
        assert hi == pytest.approx(min(1 + math.exp(-1.0), 1.5), rel=1e-12)

    def test_increasing_case_t0(self):
        lo, hi = phi_envelopes(BarrierParams(1.0, 0.5, 2.0), 0.0)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.0)

    def test_fixed_point_envelopes(self):
        lo, hi = phi_envelopes(BarrierParams(1.0, 1.0, 3.0), 7.0)
        assert (lo, hi) == (1.0, 1.0)


class TestTauHalf:
    def test_exact_value_m_half(self):
        # tanh(t/2)^2 = 1/2 at t = 2 atanh(1/sqrt(2))
        val = tau_half(BarrierParams(1.0, 0.0, 0.5))
        assert val == pytest.approx(2 * math.atanh(math.sqrt(0.5)), abs=1e-8)

    def test_already_at_half(self):
        assert tau_half(BarrierParams(1.0, 0.5, 0.5)) == 0.0

    def test_a_priori_bound(self):
        # crossing bound 2^m / ((1-m) ubar^m) from Phi' >= Phi^m ubar / 2
        for ubar in (1.0, 2.0):
            p = BarrierParams(ubar, 0.0, 0.5)
            assert tau_half(p) <= 2**0.5 / (0.5 * ubar**0.5)

    def test_scaling_in_ubar(self):
        t1 = tau_half(BarrierParams(1.0, 0.0, 0.5))
        t2 = tau_half(BarrierParams(2.0, 0.0, 0.5))
        assert t2 == pytest.approx(t1 / 2**0.5, rel=1e-7)

    def test_rejects_m_ge_1(self):
        with pytest.raises(ValueError):
            tau_half(BarrierParams(1.0, 0.0, 1.5))


class TestLowerBarrier:
    def test_zero_at_zero(self):
        assert lower_barrier(1.0, 0.5, 0.0, 0.0) == 0.0

    def test_small_time_power_law(self):
        # ((1 - m) ubar t / 2)^(1/(1-m)), below tanh^2(t/2) ~ t^2 / 4
        t = 0.01
        assert lower_barrier(1.0, 0.5, 0.0, t) == pytest.approx((0.5 * t / 2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("m, t", [(0.5, 1.0), (0.9, 4.0)])
    def test_below_the_comparison_curve(self, m, t):
        # at m = 1/2 the curve from 0 is tanh^2(t/2) = 0.2135 at t = 1
        assert lower_barrier(1.0, m, 0.0, t) <= phi(BarrierParams(1.0, 0.0, m), t)

    def test_saturates_at_mass(self):
        assert lower_barrier(1.0, 0.5, 0.0, 200.0) == pytest.approx(1.0, abs=1e-9)

    def test_min0_shift(self):
        assert lower_barrier(1.0, 0.5, 0.04, 0.0) == pytest.approx(0.04, rel=1e-12)

    def test_rejects_m_ge_1(self):
        with pytest.raises(ValueError):
            lower_barrier(1.0, 1.0, 0.0, 1.0)


class TestUpperRegularization:
    def test_m1(self):
        assert upper_regularization(1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_m2(self):
        assert upper_regularization(1.0, 2.0, 0.5) == pytest.approx(2.0)

    def test_long_time_limit(self):
        assert upper_regularization(1.0, 2.0, 1e8) == pytest.approx(1.0, abs=1e-3)
