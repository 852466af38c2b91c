"""Edge cases and interface details not covered by the core module tests."""

import json
import math

import numpy as np
import pytest

from coulombflow.barrier_ode import BarrierParams, phi_envelopes
from coulombflow.cli import main
from coulombflow.config import load_config
from coulombflow.csvio import read_csv
from coulombflow.initial_conditions import build_initial_condition
from coulombflow.pde_solver import SolverConfig, run
from coulombflow.torus_field import (
    ScalarField,
    coulomb_field,
    hminus1_norm,
    lp_norm,
    make_grid,
    mollify,
)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestTwoDimensional:
    def test_simulate_2d_artifacts(self, tmp_path):
        doc = {
            "grid": {"dim": 2, "n": 32},
            "solver": {"m": 2.0, "t_end": 0.05, "output_times": [0.05]},
            "initial_condition": {"kind": "cosine", "base": 1.0, "amplitudes": [0.4]},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, cols = read_csv(out / "u_0.050000.csv")
        assert header == ["x1", "x2", "value"]
        assert len(cols["value"]) == 32 * 32
        _, obs = read_csv(out / "observables.csv")
        assert np.max(np.abs(obs["mass"] - obs["mass"][0])) <= 1e-11

    def test_hminus1_2d_single_axis_mode(self):
        g = make_grid(2, 32)
        x1, _ = g.coordinates()
        u = ScalarField(g, 1 + np.cos(2 * np.pi * x1))
        assert hminus1_norm(u) == pytest.approx(1 / (2 * np.pi * np.sqrt(2)), rel=1e-12)

    def test_2d_blocks_and_power_edge(self):
        g = make_grid(2, 32)
        u = build_initial_condition(
            g, {"kind": "blocks", "blocks": [[0.25, 0.75, 0.25, 0.75, 2.0]]}
        )
        assert np.sum(u.values > 0) == 256  # quarter of the cells
        v = build_initial_condition(
            g, {"kind": "power_edge", "c": 2.0, "s0": 0.25, "exponent": 1.0}
        )
        area = np.count_nonzero(v.values > 0) * g.cell_measure
        assert area == pytest.approx(0.25, abs=0.03)

    def test_2d_energy_balance(self):
        g = make_grid(2, 32)
        x1, x2 = g.coordinates()
        u0 = ScalarField(g, 1 + 0.3 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2))
        traj = run(u0, SolverConfig(m=1.0, t_end=0.05, output_times=[0.05]))
        from coulombflow.pde_solver import dissipation_check

        assert dissipation_check(traj) <= 1e-6 * traj.observables.energy[0] + 1e-12

    def test_2d_reference_scale_relaxation(self):
        # full-horizon 64x64 run: conservation, barriers and the L1 decay
        # rate carry over from the 1-D studies
        from coulombflow.barrier_ode import BarrierParams, phi_curve
        from coulombflow.pde_solver import dissipation_check

        g = make_grid(2, 64)
        x1, x2 = g.coordinates()
        u0 = ScalarField(g, 1 + 0.25 * (np.cos(2 * np.pi * x1) + np.cos(2 * np.pi * x2)))
        cfg = SolverConfig(m=2.0, t_end=3.0, output_times=np.linspace(0.25, 3.0, 12))
        traj = run(u0, cfg)
        obs = traj.observables
        assert np.max(np.abs(obs.mass - obs.mass[0])) <= 1e-11 * obs.mass[0]
        assert np.max(np.diff(obs.max)) <= 1e-9
        assert dissipation_check(traj) <= 1e-6 * obs.energy[0] + 1e-12
        hi = phi_curve(BarrierParams(1.0, float(np.max(u0.values)), 2.0), obs.t)
        assert np.max(obs.max - hi) <= 0.02
        pts = np.array(
            [
                (t, float(np.sum(np.abs(f.values - 1.0))) * g.cell_measure)
                for t, f in traj.snapshots
                if t >= 1.5
            ]
        )
        slope = np.polyfit(pts[:, 0], np.log(pts[:, 1]), 1)[0]
        assert slope <= -0.85


class TestCliEdgeCases:
    def test_unwritable_out_dir_exit_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        doc = {
            "grid": {"dim": 1, "n": 64},
            "solver": {"m": 1.0, "t_end": 0.1, "output_times": [0.1]},
            "initial_condition": {"kind": "constant", "value": 1.0},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        target = blocker / "sub"
        assert main(["simulate", "--config", cfg, "--out", str(target)]) == 2

    def test_waiting_time_config_support_curve(self, tmp_path):
        # jump data with m = 4: the support column must grow from 0.5
        cfg = "configs/waiting_time_jump_m4.json"
        out = tmp_path / "wt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv(out / "support.csv")
        assert cols["S"][0] == pytest.approx(0.5)
        assert cols["S"][-1] > 0.5 + 3 / 512
        assert np.all(np.diff(cols["S"]) >= 0)
        assert main(
            ["plot", "--in", str(out / "support.csv"), "--out", str(out / "s.svg"),
             "--x", "t", "--y", "S"]
        ) == 0

    def test_record_every_thins_observables(self, tmp_path):
        doc = {
            "grid": {"dim": 1, "n": 64},
            "solver": {"m": 1.0, "t_end": 0.1, "output_times": [0.1], "record_every": 10},
            "initial_condition": {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out1 = tmp_path / "thin"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        doc["solver"]["record_every"] = 1
        cfg = write_config(tmp_path / "c2.json", doc)
        out2 = tmp_path / "dense"
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        _, thin = read_csv(out1 / "observables.csv")
        _, dense = read_csv(out2 / "observables.csv")
        assert len(thin["t"]) < len(dense["t"])
        assert thin["t"][-1] == dense["t"][-1]

    @pytest.mark.parametrize(
        "ic, width",
        [
            ({"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]}, 2.0 / 128),
            ({"kind": "cosine", "base": 1.0, "amplitudes": [0.5]}, 0.0),
            ({"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]], "mollify": "off"}, 0.0),
            ({"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]], "mollify": 0.01}, 0.01),
            ({"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]], "mollify": -0.01}, None),
        ],
        ids=["blocks-default", "cosine-default", "off", "width", "negative"],
    )
    def test_mollify_width_rule(self, tmp_path, capsys, ic, width):
        doc = {
            "grid": {"dim": 1, "n": 128},
            "solver": {"m": 2.0, "t_end": 0.05, "output_times": [0.05]},
            "initial_condition": ic,
        }
        cfg = write_config(tmp_path / "c.json", doc)
        if width is None:
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "initial_condition.mollify" in capsys.readouterr().err
        else:
            assert load_config(cfg).mollify_width == pytest.approx(width)

    def test_blocks_data_mollified_when_loaded(self, tmp_path):
        # the config smooths the data; run integrates cfg.u0 as it is
        doc = {
            "grid": {"dim": 1, "n": 128},
            "solver": {"m": 2.0, "t_end": 0.05, "output_times": [0.05]},
            "initial_condition": {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        loaded = load_config(cfg)
        raw = build_initial_condition(loaded.grid, doc["initial_condition"])
        want = mollify(raw, 2.0 * loaded.grid.h).values
        assert np.array_equal(loaded.u0.values, want)
        assert not np.array_equal(raw.values, want)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv(out / "u_0.000000.csv")
        assert np.array_equal(cols["value"], want)

    def test_mollify_default_for_blocks(self, tmp_path):
        doc = {
            "grid": {"dim": 1, "n": 128},
            "solver": {"m": 2.0, "t_end": 0.05, "output_times": [0.05]},
            "initial_condition": {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]]},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["mollify_width"] == pytest.approx(2.0 / 128)
        _, cols = read_csv(out / "u_0.000000.csv")
        # the jump edge is smoothed: the first cell outside the block holds
        # intermediate mass, while the plateau interior keeps its height
        outside = cols["value"][int(0.85 * 128)]  # many kernel widths out
        edge = cols["value"][int(0.75 * 128) + 1]
        assert outside < 1e-6
        assert 0.05 < edge < 1.95
        assert np.max(cols["value"]) == pytest.approx(2.0, abs=1e-6)


class TestSmallGaps:
    def test_lp_norm_noninteger_p(self):
        g = make_grid(1, 8)
        u = ScalarField(g, np.array([4.0, 4.0, 0, 0, 0, 0, 0, 0]))
        assert lp_norm(u, 3) == pytest.approx((64 * 2 / 8) ** (1 / 3))

    def test_envelopes_beta_infinity(self):
        lo, hi = phi_envelopes(BarrierParams(1.0, math.inf, 2.0), np.array([0.5]))
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(1.0 + 1.0)

    def test_gradient_energy_integration_by_parts(self):
        # integration by parts: the physical quadrature of |grad(G*u)|^2
        # equals the spectral mode sum exactly for band-limited u
        g = make_grid(1, 256)
        x = g.axis_coordinates()
        u = ScalarField(g, 1 + 0.4 * np.cos(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x))
        v = coulomb_field(u)[0]
        physical = float(np.sum(v**2)) * g.cell_measure
        assert physical == pytest.approx(hminus1_norm(u) ** 2, abs=1e-10)

    def test_face_average_dissipation_near_cell_centered(self):
        # the solver's face-averaged |drift|^2 u^m quadrature matches the
        # cell-centered one to second order in h
        from coulombflow.pde_solver import _dissipation_density, _mobility, _stencil

        diffs = {}
        for n in (128, 256):
            g = make_grid(1, n)
            x = g.axis_coordinates()
            u = ScalarField(g, 1 + 0.4 * np.cos(2 * np.pi * x))
            faces = coulomb_field(u, "face")
            from_faces = (
                _dissipation_density(_stencil(g), _mobility(u.values[None], [2.0]), faces)[0]
                * g.cell_measure
            )
            v = coulomb_field(u)[0]
            direct = float(np.sum(v**2 * u.values**2)) * g.cell_measure
            diffs[n] = abs(from_faces - direct)
        assert diffs[256] < 1e-7
        assert diffs[256] < 0.3 * diffs[128]

    def test_output_times_beyond_t_end_rejected(self, tmp_path):
        doc = {
            "grid": {"dim": 1, "n": 64},
            "solver": {"m": 1.0, "t_end": 0.1, "output_times": [0.2]},
            "initial_condition": {"kind": "constant", "value": 1.0},
            "outputs": {},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
