import glob
import json
import math
import os
from xml.etree import ElementTree

import numpy as np
import pytest

from coulombflow import cli, csvio
from coulombflow.cli import main
from coulombflow.csvio import format_cells, read_csv, write_csv
from coulombflow.config import ConfigError, load_config
from coulombflow.hj_fronts import integrate_supersolution
from coulombflow.pde_solver import SolverConfig, run
from coulombflow.rearrangement import rearrange
from coulombflow.torus_field import ScalarField, TorusGrid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SIM_DOC = {
    "grid": {"dim": 1, "n": 64},
    "solver": {
        "m": 1.0,
        "epsilon": "auto",
        "t_end": 0.5,
        "output_times": [0.1, 0.2, 0.3, 0.4, 0.5],
    },
    "initial_condition": {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]},
    "outputs": {"formats": ["csv", "svg"]},
}


def sim_doc(section, **entries):
    """SIM_DOC with `entries` set in one section."""
    doc = json.loads(json.dumps(SIM_DOC))
    doc[section].update(entries)
    return doc


def sim_ic(**ic):
    return {**SIM_DOC, "initial_condition": ic}


# (command, document, section, key); the message must name section.key, or
# only the section where key is None.
MALFORMED = [
    pytest.param("simulate", sim_doc("solver", m="2"), "solver", "m", id="solver.m-str"),
    pytest.param("simulate", sim_doc("solver", m=float("inf")), "solver", "m", id="solver.m-inf"),
    pytest.param("simulate", sim_doc("solver", cfl="x"), "solver", "cfl", id="solver.cfl-str"),
    pytest.param("simulate", sim_doc("solver", t_end=None), "solver", "t_end", id="solver.t_end-null"),
    pytest.param(
        "simulate", sim_doc("solver", t_end=float("inf")), "solver", "t_end", id="solver.t_end-inf"
    ),
    pytest.param(
        "simulate", sim_doc("solver", record_every=1.5), "solver", "record_every",
        id="solver.record_every-float",
    ),
    pytest.param(
        "simulate", sim_doc("solver", epsilon="h"), "solver", "epsilon", id="solver.epsilon-str"
    ),
    pytest.param(
        "simulate", sim_doc("solver", epsilon=float("inf")), "solver", "epsilon",
        id="solver.epsilon-inf",
    ),
    pytest.param(
        "simulate", sim_doc("solver", output_times=[0.1, 2.0, -1.0]), "solver", "output_times",
        id="solver.output_times-outside",
    ),
    # snapshot files are named by %.6f of their time: colliding names are rejected
    pytest.param(
        "simulate", sim_doc("solver", output_times=[0.1, 0.1000002]), "solver", "output_times",
        id="solver.output_times-same-tag",
    ),
    pytest.param(
        "simulate", sim_doc("solver", output_times=[2e-7, 0.1]), "solver", "output_times",
        id="solver.output_times-tag-of-t0",
    ),
    pytest.param("simulate", sim_doc("grid", n=16.0), "grid", "n", id="grid.n-float"),
    pytest.param(
        "simulate", sim_doc("initial_condition", mollify=-3.0), "initial_condition", "mollify",
        id="initial_condition.mollify-negative",
    ),
    pytest.param(
        "simulate", sim_ic(kind="cosine", amplitudes=[0.5]), "initial_condition", None,
        id="cosine-no-base",
    ),
    pytest.param(
        "simulate", sim_ic(kind="constant"), "initial_condition", None, id="constant-no-value"
    ),
    pytest.param(
        "simulate", sim_ic(kind="cosine", base=1.0, amplitudes="ab"), "initial_condition", None,
        id="amplitudes-str",
    ),
    pytest.param(
        "simulate", sim_ic(kind="from_file", path="no_such_initial_data.csv"),
        "initial_condition", None, id="from_file-missing-path",
    ),
    pytest.param(
        "verify", {"verify": {"suite": "theorem-suite-small", "n": "x"}}, "verify", "n",
        id="verify.n-str",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": "a", "s2": 0.75}},
        "fronts", None, id="fronts.s1-str",
    ),
    pytest.param(
        "fronts", {"fronts": {"m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75}}, "fronts", "mode",
        id="fronts.mode-missing",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "double", "m": 2.0, "ubar": 1.0,
                    "s1": 0.0, "s2": 0.3, "s3": 0.7, "s4": 1.0}},
        "fronts", "alpha", id="fronts.alpha-missing",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "super", "m": 2.0, "ubar": 1.0, "alpha": 0.8, "s2": 0.35, "s3": 0.48}},
        "fronts", "C", id="fronts.C-missing",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75, "t_end": "x"}},
        "fronts", None, id="fronts.t_end-str",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75,
                    "t_end": float("inf")}},
        "fronts", None, id="fronts.t_end-inf",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75,
                    "C": 5.0, "alpha": 0.3, "s4": 2}},
        "fronts", "C", id="fronts.key-of-another-mode",
    ),
]


class TestConfigValidation:
    @pytest.mark.parametrize("command, doc, section, key", MALFORMED)
    def test_malformed_config_exit_2(self, tmp_path, capsys, command, doc, section, key):
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert (f"{section}.{key}" if key else section) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))), ids=os.path.basename
    )
    def test_shipped_config_loads(self, path):
        cfg = load_config(path)
        if "solver" in cfg.raw:
            assert isinstance(cfg.grid, TorusGrid)
            assert isinstance(cfg.u0, ScalarField) and cfg.u0.grid == cfg.grid
            assert isinstance(cfg.solver, SolverConfig)
        else:
            assert (cfg.grid, cfg.u0, cfg.solver) == (None, None, None)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**SIM_DOC, "extra": {}})
        with pytest.raises(ConfigError, match="extra"):
            load_config(cfg)

    def test_unknown_key_named(self, tmp_path):
        doc = json.loads(json.dumps(SIM_DOC))
        doc["solver"]["viscosity"] = 1.0
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="solver.'viscosity'|viscosity"):
            load_config(cfg)

    def test_floor_required_for_fast_diffusion(self, tmp_path):
        doc = json.loads(json.dumps(SIM_DOC))
        doc["solver"]["m"] = 0.5
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="floor_m_lt_1"):
            load_config(cfg)

    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_cfl_above_half_needs_zero_viscosity(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SIM_DOC))
        doc["solver"]["cfl"] = 0.8
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="solver.cfl"):
            load_config(cfg)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "solver.cfl" in capsys.readouterr().err
        doc["solver"].update(epsilon=0.0, cfl=1.0)
        load_config(write_config(tmp_path / "c0.json", doc))

    def test_cli_exit_2_on_bad_config(self, tmp_path):
        doc = json.loads(json.dumps(SIM_DOC))
        doc["grid"]["dim"] = 3
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSimulate:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert "observables.csv" in names
        assert "support.csv" in names
        assert "run_meta.json" in names
        assert "observables.svg" in names
        snapshots = [n for n in names if n.startswith("u_")]
        assert len(snapshots) == 6  # t = 0 plus five requested times
        header, cols = read_csv(out / "observables.csv")
        assert header == [
            "t", "mass", "min", "max", "l1", "l2", "linf",
            "energy", "dissipation", "grad_sup",
        ]
        assert np.max(np.abs(cols["mass"] - cols["mass"][0])) <= 1e-11
        kheader, kcols = read_csv(out / "k_0.100000.csv")
        assert kheader == ["s", "u_star", "k"]
        assert np.all(np.diff(kcols["u_star"]) <= 1e-12)

    def test_constant_config_constant_columns(self, tmp_path):
        doc = json.loads(json.dumps(SIM_DOC))
        doc["initial_condition"] = {"kind": "constant", "value": 1.5}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv(out / "observables.csv")
        for name in ("mass", "min", "max", "l1"):
            assert np.max(np.abs(cols[name] - 1.5)) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_DOC)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("observables.csv", "support.csv", "u_0.500000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_from_file_roundtrip(self, tmp_path):
        vals = np.abs(np.sin(np.arange(64)) + 1.1)
        src = tmp_path / "ic.csv"
        np.savetxt(src, vals, delimiter=",")
        doc = json.loads(json.dumps(SIM_DOC))
        doc["initial_condition"] = {"kind": "from_file", "path": str(src)}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv(out / "u_0.000000.csv")
        assert cols["value"] == pytest.approx(vals)

    def test_colliding_snapshot_names_rejected_before_the_run(self, tmp_path, capsys):
        # 0.05 and 0.0500002 both print as u_0.050000.csv
        doc = json.loads(open(os.path.join(CONFIG_DIR, "demo_cosine_m1.json")).read())
        doc["solver"].update(t_end=0.1, output_times=[0.05, 0.0500002])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "solver.output_times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 9), (2, 16)])
    def test_snapshot_files_match_float_column_reference(self, tmp_path, dim, n):
        doc = sim_doc("grid", dim=dim, n=n)
        doc["solver"].update(t_end=0.2, output_times=[0.1])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # reference: every column handed to write_csv as floats, file by file
        loaded = load_config(cfg)
        grid, ref = loaded.grid, tmp_path / "ref"
        ref.mkdir()
        for t, f in run(loaded.u0, loaded.solver).snapshots:
            tag = f"{t:.6f}"
            header = ["x", "value"] if dim == 1 else ["x1", "x2", "value"]
            coords = [x.ravel() for x in grid.coordinates()]
            write_csv(ref / f"u_{tag}.csv", header, [*coords, f.values.ravel()])
            prof = rearrange(f)
            write_csv(
                ref / f"k_{tag}.csv",
                ["s", "u_star", "k"],
                [prof.s_midpoints, prof.u_star, prof.k_at_midpoints()],
            )
        names = sorted(os.listdir(ref))
        assert len(names) == 6
        assert sorted(p for p in os.listdir(out) if p[:2] in ("u_", "k_")) == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("dim", [1, 2])
    def test_output_does_not_depend_on_worker_count(self, tmp_path, monkeypatch, dim):
        cfg = write_config(tmp_path / "c.json", sim_doc("grid", dim=dim, n=16))
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        outs = []
        for cores in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cores: set(range(k)))
            outs.append(tmp_path / f"cores{cores}")
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
            assert len(forks) == cores - 1  # the parent writes one share itself
            forks.clear()
        monkeypatch.delattr(os, "fork")  # no fork: one worker, in-process
        outs.append(tmp_path / "nofork")
        assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        names = sorted(os.listdir(outs[0]))
        assert sum(name.startswith("k_") for name in names) == 6
        for out in outs[1:]:
            assert sorted(os.listdir(out)) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name

    # three workers: share i holds snapshots i and i + 3, at t = 0, 0.1, ..., 0.5
    @pytest.mark.parametrize("bad", ["0.400000", "0.300000"], ids=["child-share", "parent-share"])
    def test_failed_share_named_and_no_child_left(self, tmp_path, monkeypatch, capsys, bad):
        cfg = write_config(tmp_path / "c.json", SIM_DOC)
        out = tmp_path / "out"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        real_write = cli.write_csv

        def failing_write(path, header, columns):
            if bad in os.path.basename(path):
                raise OSError(f"cannot write {path}")
            real_write(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", failing_write)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and bad in errors[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # share 2 holds no failing tag: the child that wrote it finished
        for tag in ("0.200000", "0.500000"):
            assert (out / f"k_{tag}.csv").exists()

    def test_wrong_file_length_rejected(self, tmp_path):
        src = tmp_path / "ic.csv"
        np.savetxt(src, np.ones(10), delimiter=",")
        doc = json.loads(json.dumps(SIM_DOC))
        doc["initial_condition"] = {"kind": "from_file", "path": str(src)}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestFronts:
    def test_single_m1_matches_exponential(self, tmp_path):
        doc = {
            "fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75, "t_end": 1.0},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fronts", "--config", cfg, "--out", str(out)]) == 0
        header, cols = read_csv(out / "fronts.csv")
        assert header == ["t", "s1", "s2", "t_star_flag"]
        assert cols["s1"] == pytest.approx(0.25 * np.exp(-cols["t"]), abs=1e-8)
        assert cols["s2"] == pytest.approx(1 - 0.25 * np.exp(-cols["t"]), abs=1e-8)

    def test_double_frozen_endpoints(self, tmp_path):
        doc = {
            "fronts": {
                "mode": "double", "m": 2.0, "ubar": 1.0, "alpha": 0.5,
                "s1": 0.0, "s2": 0.3, "s3": 0.7, "s4": 1.0, "t_end": 0.5,
            },
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["fronts", "--config", cfg, "--out", str(out)]) == 0
        header, cols = read_csv(out / "fronts.csv")
        assert header == ["t", "s1", "s2", "s3", "s4", "t_star_flag"]
        assert np.max(np.abs(cols["s1"])) == 0.0
        assert np.max(np.abs(cols["s4"] - 1.0)) == 0.0

    def test_shipped_super_config_flags_t_star(self, tmp_path):
        config = os.path.join(CONFIG_DIR, "fronts_super_m2.json")
        out = tmp_path / "out"
        assert main(["fronts", "--config", config, "--out", str(out)]) == 0
        header, cols = read_csv(out / "fronts.csv")
        assert header == ["t", "s2", "s3", "t_star_flag"]
        run = load_config(config).fronts
        t_star = integrate_supersolution(run.state, run.t_end).t_star
        assert math.isfinite(t_star)
        flag = cols["t_star_flag"]
        assert np.all(flag[cols["t"] < t_star] == 0) and np.all(flag[cols["t"] >= t_star] == 1)
        assert 0 < np.sum(flag) < len(flag)

    def test_super_hypothesis_violation_exit_2(self, tmp_path, capsys):
        doc = {
            "fronts": {
                "mode": "super", "m": 2.0, "ubar": 1.0, "C": 1.5, "alpha": 0.8,
                "s2": 0.35, "s3": 0.48, "t_end": 0.5,
            },
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["fronts", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "C * ubar" in err


class TestVerifyCommand:
    def test_negative_control_exit_1(self, tmp_path):
        doc = {"verify": {"suite": "negative-control"}, "outputs": {}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["fail"] >= 1

    def test_empty_suite_exit_0_with_warning(self, tmp_path, capsys):
        doc = {"verify": {"suite": "empty"}, "outputs": {}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["total"] == 0
        assert report["warnings"]
        assert "zero checks" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "c.json", {"verify": {"suite": "empty"}, "outputs": {}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0

    def test_theorem_suite_small_all_pass(self, verify_small_run):
        code, out, err = verify_small_run
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["checks"]) == 60
        assert all(c["status"] == "pass" for c in report["checks"])
        assert report["warnings"] == []
        assert "warning" not in err

    def test_unknown_suite_exit_2(self, tmp_path):
        doc = {"verify": {"suite": "no-such-suite"}, "outputs": {}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestPlot:
    def test_plot_from_csv(self, tmp_path):
        src = tmp_path / "data.csv"
        t = np.linspace(0, 1, 20)
        write_csv(src, ["t", "a", "b"], [t, np.exp(-t), np.cos(t)])
        out = tmp_path / "plot.svg"
        assert main(["plot", "--in", str(src), "--out", str(out), "--x", "t", "--y", "a,b"]) == 0
        body = out.read_text()
        assert body.startswith("<svg")
        assert body.count("<polyline") == 2

    def test_markup_characters_escaped(self, tmp_path):
        src = tmp_path / "p&q.csv"
        src.write_text("x,a<b\n0,1\n1,2\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--in", str(src), "--out", str(out), "--x", "x", "--y", "a<b"]) == 0
        texts = [el.text for el in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "p&q.csv" in texts
        assert "a<b" in texts

    def test_empty_csv_exit_2(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "p.svg"), "--x", "t", "--y", "a"]) == 2

    def test_missing_column_exit_2(self, tmp_path):
        src = tmp_path / "d.csv"
        write_csv(src, ["t", "a"], [np.arange(3.0), np.arange(3.0)])
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "p.svg"), "--x", "t", "--y", "zz"]) == 2


class TestCsvRoundTrip:
    def test_seventeen_digit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1, 1, 50) * 10.0 ** rng.integers(-8, 8, 50)
        p = tmp_path / "rt.csv"
        write_csv(p, ["v"], [vals])
        _, cols = read_csv(p)
        assert np.array_equal(cols["v"], vals)

    def test_bytes_match_per_value_rule(self, tmp_path):
        columns = rule_columns(2 * csvio._BLOCK_ROWS + 37)
        nrows = len(columns[0])
        p = tmp_path / "rows.csv"
        write_csv(p, ["f", "i", "b", "k"], columns)
        want = "f,i,b,k\n" + "".join(
            ",".join(rule_cell(c[i]) for c in columns) + "\n" for i in range(nrows)
        )
        assert p.read_bytes() == want.encode()

    def test_format_cells_follows_the_rule(self):
        for column in rule_columns(50):
            assert format_cells(column) == [rule_cell(v) for v in column]
        assert format_cells(2.5) == ["2.5"]

    def test_formatted_columns_keep_the_bytes(self, tmp_path):
        # more than two blocks, string columns between array columns
        floats, ints, flags, index = rule_columns(2 * csvio._BLOCK_ROWS + 37)
        header = ["f", "i", "b", "k"]
        write_csv(tmp_path / "arrays.csv", header, [floats, ints, flags, index])
        mixed = [format_cells(floats), ints, format_cells(flags), index]
        write_csv(tmp_path / "mixed.csv", header, mixed)
        assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()

    def test_formatted_column_of_wrong_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="share a length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3.0), format_cells(np.arange(2.0))])
        with pytest.raises(ValueError, match="share a length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [format_cells(np.arange(3.0)), np.arange(4.0)])


def rule_cell(x):
    """The per-value rule: integers in decimal, anything else at 17 digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def rule_columns(nrows):
    """Float, integer, bool and index columns; the floats start at the edge cases."""
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(nrows) * 10.0 ** rng.integers(-20, 20, nrows)
    floats[:6] = [1e-300, -0.0, np.inf, -np.inf, -1e-300, 0.0]
    ints = rng.integers(-(10**12), 10**12, nrows)
    flags = rng.random(nrows) < 0.5
    return [floats, ints, flags, np.arange(nrows)]
