import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coulombflow.torus_field import (
    ScalarField,
    coulomb_drift,
    coulomb_field,
    coulomb_potential,
    hminus1_norm,
    interaction_energy,
    lp_norm,
    make_grid,
    mean,
    mode_energy,
    mollify,
    spectral_laplacian,
)


def field(n, values):
    return ScalarField(make_grid(1, n), np.asarray(values, dtype=float))


class TestMakeGrid:
    def test_1d(self):
        g = make_grid(1, 8)
        assert g.h == 0.125
        assert g.num_cells == 8
        assert g.h * g.n == 1.0

    def test_2d(self):
        g = make_grid(2, 16)
        assert g.num_cells == 256
        assert g.cell_measure == pytest.approx(1 / 256)
        assert g.num_cells * g.cell_measure == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            make_grid(3, 8)

    @pytest.mark.parametrize("dim, n, key", [(True, 16, "dim"), (1, True, "n"), (1.0, 16, "dim")])
    def test_rejects_booleans_and_non_integers(self, dim, n, key):
        with pytest.raises(ValueError, match=f"^{key}"):
            make_grid(dim, n)

    def test_rejects_coarse(self):
        with pytest.raises(ValueError, match="coarse"):
            make_grid(1, 4)

    def test_coordinates_cell_centered(self):
        g = make_grid(1, 8)
        assert g.axis_coordinates()[0] == pytest.approx(0.5 * g.h)


class TestCoulombPotential:
    def test_constant_maps_to_zero(self):
        u = field(64, np.full(64, 3.7))
        assert np.max(np.abs(coulomb_potential(u).values)) < 1e-14

    def test_single_mode(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        expected = np.cos(2 * np.pi * x) / (4 * np.pi**2)
        assert np.max(np.abs(coulomb_potential(u).values - expected)) < 1e-14

    def test_discrete_delta_matches_green_function(self):
        # oracle: integrate g'' = 1 - delta directly on [-1/2, 1/2]:
        # g(x) = x^2/2 - |x|/2 + 1/12 (zero-mean)
        errs = {}
        for n in (256, 512):
            g = make_grid(1, n)
            vals = np.zeros(n)
            vals[0] = n  # unit-mass spike at x0 = h/2
            pot = coulomb_potential(ScalarField(g, vals))
            d = g.axis_coordinates() - g.axis_coordinates()[0]
            d = np.abs(d - np.round(d))
            exact = d**2 / 2 - d / 2 + 1.0 / 12.0
            errs[n] = np.max(np.abs(pot.values - exact))
        assert errs[256] < 0.5 / 256
        assert errs[512] < 0.7 * errs[256]

    def test_mean_zero_output(self):
        rng = np.random.default_rng(0)
        u = field(128, rng.uniform(0, 2, 128))
        assert abs(mean(coulomb_potential(u))) < 1e-12

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 2, 64)
        p1 = coulomb_potential(field(64, vals)).values
        p2 = coulomb_potential(field(64, vals + 5.0)).values
        assert np.max(np.abs(p1 - p2)) < 1e-13

    def test_laplacian_round_trip(self):
        g = make_grid(1, 128)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(8 * np.pi * x))
        pot = coulomb_potential(u)
        residual = -spectral_laplacian(pot).values - (u.values - mean(u))
        assert np.max(np.abs(residual)) < 1e-10


class TestCoulombField:
    def test_constant_gives_zero(self):
        v = coulomb_field(field(64, np.full(64, 2.0)))
        assert np.max(np.abs(v[0])) < 1e-14

    def test_single_mode_gradient(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        expected = -np.sin(2 * np.pi * x) / (2 * np.pi)
        assert np.max(np.abs(coulomb_field(u)[0] - expected)) < 1e-14

    def test_face_staggering_shifts_half_cell(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        xf = x + g.h / 2
        expected = -np.sin(2 * np.pi * xf) / (2 * np.pi)
        v = coulomb_field(u, staggering="face")
        assert np.max(np.abs(v[0] - expected)) < 1e-14

    def test_2d_face_staggering_shifts_half_cell_per_axis(self):
        # u = 1 + cos(2 pi x1) + 0.5 cos(2 pi (x1 + 2 x2)): phi = G * u is
        # 1/(4 pi^2) cos(2 pi x1) + 0.5/(20 pi^2) cos(2 pi (x1 + 2 x2)), and
        # component a is sampled at x + h/2 e_a
        g = make_grid(2, 32)
        x1, x2 = g.coordinates()
        u = ScalarField(
            g, 1 + np.cos(2 * np.pi * x1) + 0.5 * np.cos(2 * np.pi * (x1 + 2 * x2))
        )

        def grad_phi(y1, y2):
            s = np.sin(2 * np.pi * (y1 + 2 * y2)) / (20 * np.pi)
            return -np.sin(2 * np.pi * y1) / (2 * np.pi) - s, -2 * s

        v = coulomb_field(u, staggering="face")
        expected1 = grad_phi(x1 + g.h / 2, x2)[0]
        expected2 = grad_phi(x1, x2 + g.h / 2)[1]
        assert np.max(np.abs(v[0] - expected1)) < 1e-14
        assert np.max(np.abs(v[1] - expected2)) < 1e-14

    def test_2d_no_cross_dependence(self):
        g = make_grid(2, 32)
        x1, _ = g.coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x1))
        v = coulomb_field(u)
        assert np.max(np.abs(v[1])) < 1e-14

    def test_rejects_unknown_staggering(self):
        with pytest.raises(ValueError):
            coulomb_field(field(64, np.ones(64)), staggering="corner")


class TestNormsAndFunctionals:
    def test_l1_constant(self):
        assert lp_norm(field(16, np.full(16, 2.0)), 1) == pytest.approx(2.0)

    def test_linf_constant(self):
        assert lp_norm(field(16, np.full(16, 2.0)), np.inf) == pytest.approx(2.0)

    def test_l2_hand_sum(self):
        # [4,0,0,0] padded to n=8 with the same mass layout: use n=8 grid
        # with two cells of 4 to keep the hand value (16*0.25)^(1/2) = 2
        u = field(8, [4, 4, 0, 0, 0, 0, 0, 0])
        assert lp_norm(u, 2) == pytest.approx(2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(field(16, np.ones(16)), 0.5)

    def test_mean_indicator(self):
        vals = np.zeros(64)
        vals[:32] = 2.0
        assert mean(field(64, vals)) == pytest.approx(1.0)

    def test_mean_resolved_mode(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        assert mean(u) == pytest.approx(1.0, abs=1e-12)

    def test_energy_constant_is_zero(self):
        assert interaction_energy(field(32, np.full(32, 1.5))) == pytest.approx(0.0)

    def test_energy_single_mode(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        assert interaction_energy(u) == pytest.approx(1 / (16 * np.pi**2), rel=1e-12)

    def test_energy_quadratic_scaling(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u1 = ScalarField(g, 1 + 0.25 * np.cos(4 * np.pi * x))
        u2 = ScalarField(g, 2 * u1.values)
        assert interaction_energy(u2) == pytest.approx(4 * interaction_energy(u1), rel=1e-12)

    def test_hminus1_single_mode(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x))
        assert hminus1_norm(u) == pytest.approx(1 / (2 * np.pi * np.sqrt(2)), rel=1e-12)

    def test_hminus1_energy_identity(self):
        rng = np.random.default_rng(2)
        u = field(128, rng.uniform(0, 2, 128))
        assert hminus1_norm(u) ** 2 == pytest.approx(2 * interaction_energy(u), rel=1e-13)

    def test_mode_orthogonality(self):
        g = make_grid(1, 64)
        x = g.axis_coordinates()
        a = ScalarField(g, np.cos(2 * np.pi * x))
        b = ScalarField(g, np.cos(4 * np.pi * x))
        ab = ScalarField(g, a.values + b.values)
        assert hminus1_norm(ab) ** 2 == pytest.approx(
            hminus1_norm(a) ** 2 + hminus1_norm(b) ** 2, rel=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        float,
        64,
        elements=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
)
def test_potential_mean_free_property(vals):
    u = field(64, vals)
    assert abs(mean(coulomb_potential(u))) < 1e-12


def test_dissipation_weight_consistency():
    # spectral evaluation of the quadratic form matches the direct quadrature
    g = make_grid(1, 256)
    x = g.axis_coordinates()
    u = ScalarField(g, 1 + 0.4 * np.cos(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    pot = coulomb_potential(u)
    direct = 0.5 * np.sum(pot.values * u.values) * g.cell_measure
    assert direct == pytest.approx(interaction_energy(u), abs=1e-10)


def _full_spectrum_reference(u, width):
    """Every Fourier operation on the full np.fft.fftn spectrum of u.

    Wavenumbers are the integers of np.fft.fftfreq on every axis; the odd
    derivatives zero the Nyquist mode k = -n/2, which only even n has.
    """
    grid = u.grid
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n).round()
    ks = np.meshgrid(*([k1] * grid.dim), indexing="ij")
    ksq = sum(k**2 for k in ks)
    inv_lap = np.zeros_like(ksq)
    inv_lap[ksq > 0] = 1.0 / (4.0 * np.pi**2 * ksq[ksq > 0])
    uhat = np.fft.fftn(u.values)

    def back(xhat):
        return np.fft.ifftn(xhat).real

    cell = [np.where(k == -grid.n / 2, 0.0, 2j * np.pi * k) for k in ks]
    face = [c * np.exp(1j * np.pi * k * grid.h) for c, k in zip(cell, ks)]
    return {
        "cell": [back(uhat * inv_lap * c) for c in cell],
        "face": [back(uhat * inv_lap * f) for f in face],
        "potential": back(uhat * inv_lap),
        "laplacian": back(uhat * -4.0 * np.pi**2 * ksq),
        "mollify": np.maximum(back(uhat * np.exp(-2.0 * np.pi**2 * width**2 * ksq)), 0.0),
        "energy": float(np.sum(np.abs(uhat * grid.cell_measure) ** 2 * inv_lap)),
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [8, 9, 64])
def test_half_spectrum_matches_full_spectrum(dim, n):
    # random cell values excite every mode, the Nyquist one of even n included
    grid = make_grid(dim, n)
    rng = np.random.default_rng(10 * n + dim)
    u = ScalarField(grid, rng.uniform(0.5, 2.0, grid.shape))
    width = 2.0 * grid.h
    want = _full_spectrum_reference(u, width)
    uhat = np.fft.rfftn(u.values)
    got = {
        "cell": coulomb_drift(grid, uhat, "cell"),
        "face": coulomb_drift(grid, uhat, "face"),
        "potential": coulomb_potential(u).values,
        "laplacian": spectral_laplacian(u).values,
        "mollify": mollify(u, width).values,
    }
    for name, value in got.items():
        ref = want[name]
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(np.subtract(value, ref))) <= 1e-15 * scale, name
    assert mode_energy(grid, uhat) == pytest.approx(want["energy"], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_drift_zeroes_nyquist_where_fftfreq_is_inexact(dim):
    # fftfreq(98, d=1/98) lies off the integers, so a test of 2|k| == n on it
    # would keep the Nyquist derivative (a drift error of 2-4 %)
    grid = make_grid(dim, 98)
    u = ScalarField(grid, np.random.default_rng(dim).uniform(0.5, 2.0, grid.shape))
    want = _full_spectrum_reference(u, grid.h)["face"]
    for got, ref in zip(coulomb_field(u, "face"), want):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
