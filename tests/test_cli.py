import functools
import glob
import json
import math
import os
import time
from xml.etree import ElementTree

import numpy as np
import pytest

from coulombflow import cli, csvio, suites
from coulombflow.cli import main
from coulombflow.csvio import format_cells, read_csv, write_csv
from coulombflow.config import ConfigError, load_config
from coulombflow.hj_fronts import integrate_supersolution
from coulombflow.pde_solver import SolverConfig, SolverError, _grad_sup, run
from coulombflow.rearrangement import rearrange
from coulombflow.torus_field import ScalarField, TorusGrid
from coulombflow.verify import CheckResult

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


FRONTS_SINGLE = {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75}
FRONTS_SUPER = {"mode": "super", "C": 0.25, "alpha": 0.8, "s2": 0.35, "s3": 0.48,
                "ubar": 1.0, "m": 2.0}


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
    # below the solver's time resolution, 1e-12
    pytest.param(
        "simulate", sim_doc("solver", t_end=5e-14, output_times=[]), "solver", "t_end",
        id="solver.t_end-below-resolution",
    ),
    pytest.param(
        "simulate", sim_doc("solver", output_times=[2e-309, 0.1]), "solver", "output_times",
        id="solver.output_times-below-resolution",
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
    # output times may pass t_end by at most the time resolution, 1e-12
    pytest.param(
        "simulate", sim_doc("solver", output_times=[0.1, 0.5 + 2e-12]), "solver", "output_times",
        id="solver.output_times-past-resolution",
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
    # JSON booleans are not numbers, although numbers.Real and Integral admit bool
    *(
        pytest.param(
            "simulate", sim_doc(section, **{key: value}), section, key, id=f"{section}.{key}-bool"
        )
        for section, key, value in (
            ("solver", "m", True),
            ("solver", "cfl", True),
            ("solver", "t_end", True),
            ("solver", "epsilon", False),
            ("solver", "record_every", True),
            ("solver", "output_times", [0.1, True]),
            ("grid", "dim", True),
            ("grid", "n", True),
            ("initial_condition", "mollify", True),
        )
    ),
    *(
        pytest.param(
            "simulate", sim_ic(**ic), "initial_condition", key, id=f"initial_condition.{key}-bool"
        )
        for key, ic in (
            ("value", {"kind": "constant", "value": True}),
            ("base", {"kind": "cosine", "base": True}),
            ("amplitudes", {"kind": "cosine", "base": 1.0, "amplitudes": [False, True]}),
            ("blocks", {"kind": "blocks", "blocks": [[0.25, 0.75, True]]}),
            ("c", {"kind": "power_edge", "c": True, "s0": 0.5, "exponent": 1.0}),
            ("s0", {"kind": "power_edge", "c": 4.0, "s0": True, "exponent": 1.0}),
            ("exponent", {"kind": "power_edge", "c": 4.0, "s0": 0.5, "exponent": True}),
            ("center", {"kind": "power_edge", "c": 4.0, "s0": 0.5, "exponent": 1.0, "center": False}),
        )
    ),
    # numbers outside the float range: NaN, the infinities, a too large integer
    *(
        pytest.param(
            "simulate", sim_ic(**ic), "initial_condition", key, id=f"initial_condition.{key}-{label}"
        )
        for key, label, ic in (
            ("base", "inf", {"kind": "cosine", "base": math.inf}),
            ("base", "nan", {"kind": "cosine", "base": math.nan}),
            ("base", "-inf", {"kind": "cosine", "base": -math.inf}),
            ("base", "huge-int", {"kind": "cosine", "base": 10**400}),
            ("amplitudes", "nan", {"kind": "cosine", "base": 1.0, "amplitudes": [0.1, math.nan]}),
            ("blocks", "inf", {"kind": "blocks", "blocks": [[0.25, math.inf, 1.0]]}),
            ("value", "-inf", {"kind": "constant", "value": -math.inf}),
            ("s0", "nan", {"kind": "power_edge", "c": 4.0, "s0": math.nan, "exponent": 1.0}),
        )
    ),
    pytest.param(
        "simulate", sim_doc("initial_condition", mollify=10**400), "initial_condition", "mollify",
        id="initial_condition.mollify-huge-int",
    ),
    # every number from outside goes through is_number, which means finite: an
    # integer beyond the float range or an infinity is rejected by name
    *(
        pytest.param("simulate", sim_doc(section, **{key: 10**400}), section, key,
                     id=f"{section}.{key}-huge-int")
        for section, key in (
            ("solver", "epsilon"),
            ("solver", "t_end"),
            ("solver", "m"),
            ("solver", "record_every"),
            ("grid", "n"),
        )
    ),
    pytest.param(
        "verify", {"verify": {"suite": "theorem-suite-small", "n": 10**400}}, "verify", "n",
        id="verify.n-huge-int",
    ),
    *(
        pytest.param("fronts", {"fronts": {**state, key: value}}, "fronts", key,
                     id=f"fronts.{key}-{label}-{state['mode']}")
        for state, key, value, label in (
            (FRONTS_SINGLE, "t_end", 10**400, "huge-int"),
            (FRONTS_SINGLE, "m", 10**400, "huge-int"),
            (FRONTS_SINGLE, "ubar", math.inf, "inf"),
            (FRONTS_SUPER, "m", math.inf, "inf"),
        )
    ),
    pytest.param(
        "verify", {"verify": {"suite": "theorem-suite-small", "n": True}}, "verify", "n",
        id="verify.n-bool",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75, "t_end": True}},
        "fronts", "t_end", id="fronts.t_end-bool",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": True, "ubar": True, "s1": False, "s2": True}},
        "fronts", "s1", id="fronts.state-bool",
    ),
    pytest.param(
        "simulate", sim_doc("initial_condition", mollify=-3.0), "initial_condition", "mollify",
        id="initial_condition.mollify-negative",
    ),
    pytest.param(
        "simulate", sim_doc("initial_condition", mollify=float("inf")), "initial_condition",
        "mollify", id="initial_condition.mollify-inf",
    ),
    pytest.param(
        "simulate", sim_doc("initial_condition", mollify="on"), "initial_condition", "mollify",
        id="initial_condition.mollify-str",
    ),
    # keys of another kind are named, not ignored; the first in sorted order
    pytest.param(
        "simulate",
        sim_ic(kind="cosine", base=1, amplitudes=[0.5], value=7.0, blocks=[[0.1, 0.2, 9.0]]),
        "initial_condition", "blocks", id="initial_condition.key-of-another-kind",
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
        "fronts", "s1", id="fronts.s1-str",
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
        "fronts", "t_end", id="fronts.t_end-str",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75,
                    "t_end": float("inf")}},
        "fronts", "t_end", id="fronts.t_end-inf",
    ),
    pytest.param(
        "fronts",
        {"fronts": {"mode": "single", "m": 1.0, "ubar": 1.0, "s1": 0.25, "s2": 0.75,
                    "C": 5.0, "alpha": 0.3, "s4": 2}},
        "fronts", "C", id="fronts.key-of-another-mode",
    ),
]


def watch_writers(monkeypatch):
    """Count the children of simulate's writers or verify's tasks through os.fork and os.waitpid.

    live: children forked and not yet reaped; peak: the most live at once;
    forks: children forked; during_run: those forked while cli.run steps.
    """
    real_fork, real_waitpid, real_run = os.fork, os.waitpid, cli.run
    state = {"live": 0, "peak": 0, "forks": 0, "during_run": 0, "running": False}

    def fork():
        pid = real_fork()
        if pid:
            state["forks"] += 1
            state["during_run"] += state["running"]
            state["live"] += 1
            state["peak"] = max(state["peak"], state["live"])
        return pid

    def waitpid(pid, flags):
        done, status = real_waitpid(pid, flags)
        state["live"] -= done != 0
        return done, status

    def counted_run(*args, **kwargs):
        state["running"] = True
        try:
            return real_run(*args, **kwargs)
        finally:
            state["running"] = False

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(cli, "run", counted_run)
    return state


def flag_run_end(monkeypatch, flag):
    """Create the file `flag` when cli.run returns or raises; return its path."""
    real_run = cli.run

    def flagged_run(*args, **kwargs):
        try:
            return real_run(*args, **kwargs)
        finally:
            flag.touch()

    monkeypatch.setattr(cli, "run", flagged_run)
    return flag


def wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise OSError(f"{path} did not appear")
        time.sleep(0.002)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def probe_suite(monkeypatch, tmp_path, task, count):
    """Register the suite "probe" of `count` tasks, task i calling task(i); return its config."""
    monkeypatch.setitem(
        suites.SUITES, "probe", lambda n: [functools.partial(task, i) for i in range(count)]
    )
    return write_config(tmp_path / "probe.json", {"verify": {"suite": "probe"}, "outputs": {}})


def probe_result(i):
    return [CheckResult.from_measurement(f"probe-{i}", 0.0, 0.0, 0.0)]


def hold_one_each(marks, i, count):
    """Mark task i started and wait until all `count` tasks are.

    With as many processes as tasks, each process then holds exactly one.
    """
    (marks / str(i)).touch()
    for j in range(count):
        wait_for(marks / str(j))


def verify_errors(cfg, out, capsys):
    """Run verify; return its exit code and its `error:` lines."""
    code = main(["verify", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    return code, [line for line in err.splitlines() if line.startswith("error: ")]


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

    def test_key_unused_by_kind_named(self, tmp_path):
        doc = sim_ic(kind="constant", value=1.0, amplitudes=[0.5])
        with pytest.raises(
            ConfigError, match="initial_condition.amplitudes is not used by kind 'constant'"
        ):
            load_config(write_config(tmp_path / "c.json", doc))

    def test_floor_key_is_unknown(self, tmp_path, capsys):
        # m < 1 needs a positive initial minimum, a rule of the data, not a key
        cfg = write_config(tmp_path / "c.json", sim_doc("solver", m=0.5, floor_m_lt_1=0.25))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key solver.'floor_m_lt_1'" in capsys.readouterr().err
        assert not out.exists()

    def test_fast_diffusion_runs_on_positive_data(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", sim_doc("solver", m=0.5))
        assert load_config(cfg).solver.m == 0.5
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, obs = read_csv(out / "observables.csv")
        assert obs["t"][-1] == 0.5
        assert np.min(obs["min"]) >= 0.5

    def test_fast_diffusion_on_a_zero_cell_exit_2(self, tmp_path, capsys):
        doc = {
            **sim_doc("solver", m=0.5),
            "initial_condition": {"kind": "blocks", "blocks": [[0.25, 0.75, 2.0]], "mollify": "off"},
        }
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m < 1 requires a positive initial minimum, got 0.0")
        assert not glob.glob(str(out / "u_*")) and not glob.glob(str(out / "k_*"))

    # the mobility slope m u^(m-1) overflows a float: u_max^2 = 1.21e400 at
    # m = 3, and u_min^(m-1) ~ 1e320 at m = 0.01 with a subnormal minimum
    @pytest.mark.parametrize(
        "m, ic",
        [
            (3.0, {"kind": "cosine", "base": 1e200, "amplitudes": [1e199]}),
            (0.01, {"kind": "from_file", "path": "ic.csv"}),
        ],
        ids=["m3-huge-data", "m0.01-subnormal-min"],
    )
    def test_overflowing_step_bound_exit_2(self, tmp_path, monkeypatch, capsys, m, ic):
        (tmp_path / "ic.csv").write_text("\n".join(["1.0"] * 15 + ["5e-324"]) + "\n")
        monkeypatch.chdir(tmp_path)
        doc = {"grid": {"dim": 1, "n": 16}, "solver": {"m": m, "t_end": 0.01}, "initial_condition": ic}
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", doc),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: time step underflow: dt = 0.000e+00\n"

    # every mode k != 0 damps to 0 and the mean is left; width**2 overflowed
    # a Python float from ~1.34e154 on
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "width", [7.0, 1e155, 1.7976931348623157e308, 10**300],
        ids=["7", "1e155", "float-max", "int-1e300"],
    )
    def test_huge_mollify_width_leaves_the_mean(self, tmp_path, width):
        cfg = write_config(tmp_path / "c.json", sim_doc("initial_condition", mollify=width))
        u0 = load_config(cfg).u0.values
        np.testing.assert_allclose(u0, 1.0, rtol=0, atol=1e-15)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    # the support radius, s0/2 at d = 1 and sqrt(s0/pi) at d = 2, rounds to 0
    # at s0 = 5e-324 and divided by zero; at d = 1, s0 = 1e-320 the distance
    # over the radius overflowed
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim, s0, code", [(2, 5e-324, 2), (1, 5e-324, 2), (1, 1e-320, 0)])
    def test_power_edge_zero_radius(self, tmp_path, capsys, dim, s0, code):
        doc = {
            **sim_ic(kind="power_edge", c=1.0, s0=s0, exponent=1.0),
            "grid": {"dim": dim, "n": 16},
        }
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", doc),
                     "--out", str(out)]) == code
        if code == 2:
            assert "initial_condition.s0 = 5e-324" in capsys.readouterr().err
            assert not out.exists()

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
        assert header == ["t", "mass", "min", "max", "l2", "energy", "dissipation"]
        assert read_csv(out / "support.csv")[0] == ["t", "S", "grad_sup"]
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
        for name in ("mass", "min", "max", "l2"):
            assert np.max(np.abs(cols[name] - 1.5)) < 1e-12

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
    def test_support_grad_sup_is_that_of_each_snapshot_file(self, tmp_path, dim, n):
        cfg = write_config(tmp_path / "c.json", sim_doc("grid", dim=dim, n=n))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        grid = load_config(cfg).grid
        _, cols = read_csv(out / "support.csv")
        want = [
            _grad_sup(grid, read_csv(out / f"u_{t:.6f}.csv")[1]["value"].reshape(grid.shape))
            for t in cols["t"]
        ]
        assert len(want) == 6 and np.array_equal(cols["grad_sup"], want)

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

    def test_arange_schedule_one_ulp_past_t_end_runs(self, tmp_path):
        # the last of np.arange(1, 12) * (0.2 / 11) is 0.2 + 2.8e-17
        times = (np.arange(1, 12) * (0.2 / 11)).tolist()
        assert times[-1] > 0.2
        doc = sim_doc("solver", t_end=0.2, output_times=times)
        cfg = write_config(tmp_path / "c.json", doc)
        loaded = load_config(cfg)
        assert loaded.solver.output_schedule() == times
        snapshots = run(loaded.u0, loaded.solver).snapshots
        assert [t for t, _ in snapshots] == [0.0, *times]
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "u_0.200000.csv").exists()

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
        writers = watch_writers(monkeypatch)
        outs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cores: set(range(k)))
            writers.update(live=0, peak=0, forks=0, during_run=0)
            outs.append(tmp_path / f"cores{cores}")
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
            # the solver holds one core: at most cores - 1 writers at any time
            assert writers["peak"] <= cores - 1
            # the t = 0 snapshot goes to a child as soon as a core is free
            assert (writers["during_run"] >= 1) == (cores > 1)
            assert writers["live"] == 0
            assert_no_child_left()
        monkeypatch.delattr(os, "fork")  # no fork: the main process writes all
        outs.append(tmp_path / "nofork")
        assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        names = sorted(os.listdir(outs[0]))
        assert sum(name.startswith("k_") for name in names) == 6
        for out in outs[1:]:
            assert sorted(os.listdir(out)) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name

    # child-share: the t = 0 snapshot, handed to a child when it lands;
    # parent-share: the children wait for the run to end, so the main
    # process writes the snapshots from t = 0.2 on after it
    @pytest.mark.parametrize("bad", ["0.000000", "0.300000"], ids=["child-share", "parent-share"])
    def test_failed_share_named_and_no_child_left(self, tmp_path, monkeypatch, capsys, bad):
        cfg = write_config(tmp_path / "c.json", SIM_DOC)
        out = tmp_path / "out"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        writers = watch_writers(monkeypatch)
        ended = flag_run_end(monkeypatch, tmp_path / "run-ended")
        main_pid, real_write = os.getpid(), cli.write_csv

        def failing_write(path, header, columns):
            in_child = os.getpid() != main_pid
            if in_child and bad != "0.000000":
                wait_for(ended)
            if bad in os.path.basename(path) and in_child == (bad == "0.000000"):
                raise OSError(f"cannot write {path}")
            real_write(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", failing_write)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and bad in errors[0]
        assert ("child process" in errors[0]) == (bad == "0.000000")
        assert writers["during_run"] >= 1
        assert_no_child_left()
        if bad == "0.300000":
            # the children's snapshots and the main process's first one
            for tag in ("0.000000", "0.100000", "0.200000"):
                assert (out / f"k_{tag}.csv").exists()
        assert not (out / "observables.csv").exists()

    def test_solver_failure_with_a_writer_alive(self, tmp_path, monkeypatch, capsys):
        # m = 300 underflows the first step, after the t = 0 snapshot was handed out
        cfg = write_config(tmp_path / "c.json", sim_doc("solver", m=300.0))
        out = tmp_path / "out"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        writers = watch_writers(monkeypatch)
        ended = flag_run_end(monkeypatch, tmp_path / "run-ended")
        main_pid, real_write = os.getpid(), cli.write_csv

        def waiting_write(path, header, columns):
            if os.getpid() != main_pid:
                wait_for(ended)  # alive until the solver has failed
            real_write(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", waiting_write)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "time step underflow" in errors[0]
        assert writers["during_run"] == 1
        assert_no_child_left()
        # the snapshot handed out before the failure is written; nothing else
        assert sorted(os.listdir(out)) == ["k_0.000000.csv", "u_0.000000.csv"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_file_data_exit_2(self, tmp_path, capsys, bad):
        src = tmp_path / "ic.csv"
        src.write_text("\n".join(["1.0"] * 7 + [bad] + ["1.0"] * 8) + "\n")
        doc = {**sim_doc("grid", n=16), "initial_condition": {"kind": "from_file", "path": str(src)}}
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial_condition: ") and "must be finite" in err
        assert not out.exists()

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

    def test_collapsed_single_vortex_exit_2(self, tmp_path, capsys):
        doc = {
            "fronts": {"mode": "single", "m": 3.0, "ubar": 1.0, "s1": 0.0, "s2": 1e-12},
            "outputs": {"formats": ["csv"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["fronts", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: single-vortex ordering lost at t = 0\n"
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "c.json", {"verify": {"suite": "empty"}, "outputs": {}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0

    def test_report_does_not_depend_on_core_count(self, tmp_path, monkeypatch):
        doc = {"verify": {"suite": "theorem-suite-small", "n": 64}, "outputs": {}}
        cfg = write_config(tmp_path / "c.json", doc)
        children = watch_writers(monkeypatch)
        reports = []
        for cores in (1, 2, 3, None):
            if cores is None:
                monkeypatch.delattr(os, "fork")  # no fork: the main process runs all
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cores: set(range(k)))
            children.update(live=0, peak=0, forks=0)
            out = tmp_path / f"cores{cores}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            if cores is not None:
                # the main process pulls tasks too: one child per further core
                assert children["forks"] == children["peak"] == cores - 1
            assert children["live"] == 0
            assert_no_child_left()
            reports.append(json.loads((out / "report.json").read_text()))
            reports[-1].pop("generated_at")
        assert len(reports[0]["checks"]) == 60
        assert all(report == reports[0] for report in reports[1:])

    def test_children_finishing_first_keep_task_order(self, tmp_path, monkeypatch):
        main_pid, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()
        real_pull = suites._pull

        def pull_after_the_child(tasks, queue, report):
            if os.getpid() == main_pid:
                wait_for(marks / "child")  # the child takes task 0
            real_pull(tasks, queue, report)

        def task(i):
            if os.getpid() == main_pid:
                # task 1: held until the child has run tasks 0 and 2
                (marks / f"main-{i}").touch()
                wait_for(marks / "0")
                wait_for(marks / "2")
            elif i == 0:
                (marks / "child").touch()
                wait_for(marks / "main-1")  # the main process takes task 1
            (marks / str(i)).touch()
            return probe_result(i)

        cfg = probe_suite(monkeypatch, tmp_path, task, 3)
        monkeypatch.setattr(suites, "_pull", pull_after_the_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert [p.name for p in marks.glob("main-*")] == ["main-1"]
        report = json.loads((out / "report.json").read_text())
        assert [c["check_id"] for c in report["checks"]] == ["probe-0", "probe-1", "probe-2"]
        assert_no_child_left()

    def test_more_processes_than_cores_run_each_task_once(self, tmp_path, monkeypatch):
        marks = tmp_path / "marks"
        marks.mkdir()

        def task(i):
            (marks / f"{i}-{os.getpid()}").touch()
            time.sleep(0.001 * (i % 3))
            return probe_result(i)

        cfg = probe_suite(monkeypatch, tmp_path, task, 40)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(int(p.name.split("-")[0]) for p in marks.iterdir()) == list(range(40))
        report = json.loads((out / "report.json").read_text())
        assert [c["check_id"] for c in report["checks"]] == [f"probe-{i}" for i in range(40)]
        assert_no_child_left()

    @pytest.mark.parametrize("share", ["child", "main"])
    def test_task_error_as_on_one_core(self, tmp_path, monkeypatch, capsys, share):
        main_pid, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()
        failed = tmp_path / "failed"

        def task(i):
            hold_one_each(marks, i, 2)
            if (os.getpid() != main_pid) == (share == "child"):
                failed.write_text(str(i))
                raise SolverError(f"probe task {i} cannot go on")
            return probe_result(i)

        cfg = probe_suite(monkeypatch, tmp_path, task, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        children = watch_writers(monkeypatch)
        code, errors = verify_errors(cfg, tmp_path / "out", capsys)
        assert children["forks"] == 1
        assert_no_child_left()
        bad = int(failed.read_text())
        assert (code, errors) == (2, [f"error: probe task {bad} cannot go on"])

        def serial_task(i):
            if i == bad:
                raise SolverError(f"probe task {i} cannot go on")
            return probe_result(i)

        cfg = probe_suite(monkeypatch, tmp_path, serial_task, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert verify_errors(cfg, tmp_path / "serial", capsys) == (code, errors)

    def test_earliest_failing_task_re_raises(self, tmp_path, monkeypatch, capsys):
        marks = tmp_path / "marks"
        marks.mkdir()

        def task(i):
            hold_one_each(marks, i, 2)
            if i == 0:
                wait_for(marks / "failed-1")  # task 1 fails first
            else:
                (marks / "failed-1").touch()
            raise SolverError(f"probe task {i} cannot go on")

        cfg = probe_suite(monkeypatch, tmp_path, task, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code, errors = verify_errors(cfg, tmp_path / "out", capsys)
        assert (code, errors) == (2, ["error: probe task 0 cannot go on"])
        assert_no_child_left()

    def test_child_dying_unreported_named_and_no_child_left(self, tmp_path, monkeypatch, capsys):
        main_pid, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()
        died = tmp_path / "died"

        def task(i):
            hold_one_each(marks, i, 2)
            if os.getpid() != main_pid:
                died.write_text(str(i))
                os._exit(1)
            return probe_result(i)

        cfg = probe_suite(monkeypatch, tmp_path, task, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code, errors = verify_errors(cfg, tmp_path / "out", capsys)
        assert code == 2 and len(errors) == 1
        assert f"suite task {died.read_text()} (task)" in errors[0]
        assert "child process" in errors[0]
        assert not (tmp_path / "out" / "report.json").exists()
        assert_no_child_left()

    def test_main_process_failure_kills_a_busy_child(self, tmp_path, monkeypatch):
        main_pid, marks = os.getpid(), tmp_path / "marks"
        marks.mkdir()

        class Interrupt(BaseException):
            pass

        def task(i):
            hold_one_each(marks, i, 2)
            if os.getpid() == main_pid:
                raise Interrupt
            wait_for(marks / "never", timeout=60.0)

        probe_suite(monkeypatch, tmp_path, task, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        t0 = time.monotonic()
        with pytest.raises(Interrupt):
            suites.run_suite("probe")
        assert_no_child_left()
        assert time.monotonic() - t0 < 30.0

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
