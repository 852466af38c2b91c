"""The package runs on numpy alone: no command loads scipy.

Each case runs in a fresh interpreter and reads `sys.modules` afterwards:
importing the package and the CLI, `simulate`, `fronts`, `plot` and `verify`
(whose barrier curves come from a numpy quadrature) leave no scipy module.
"""

import json
import os
import subprocess
import sys

from coulombflow.csvio import write_csv

from conftest import VERIFY_SMALL

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(ROOT, "configs")

# Runs cli.main(argv) when argv (JSON on the command line) is not null and
# prints the exit code and the scipy modules then loaded as the last line.
PROBE = """
import json, sys
import coulombflow, coulombflow.cli
argv = json.loads(sys.argv[1])
code = None if argv is None else coulombflow.cli.main(argv)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def fresh_run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert fresh_run(None, tmp_path) == {"code": None, "scipy": []}


def test_simulate_loads_no_scipy(tmp_path):
    doc = {
        "grid": {"dim": 1, "n": 32},
        "solver": {"m": 2.0, "epsilon": "auto", "t_end": 0.1, "output_times": [0.05, 0.1]},
        "initial_condition": {"kind": "cosine", "base": 1.0, "amplitudes": [0.5]},
        "outputs": {"formats": ["csv", "svg"]},
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert fresh_run(argv, tmp_path) == {"code": 0, "scipy": []}
    assert (out / "k_0.100000.csv").exists()


def test_fronts_loads_no_scipy(tmp_path):
    out = tmp_path / "out"
    argv = ["fronts", "--config", os.path.join(CONFIG_DIR, "fronts_single_m1.json"),
            "--out", str(out)]
    assert fresh_run(argv, tmp_path) == {"code": 0, "scipy": []}
    assert (out / "fronts.csv").exists()


def test_plot_loads_no_scipy(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(src, ["t", "a"], [[0.0, 0.5, 1.0], [1.0, 2.0, 0.5]])
    argv = ["plot", "--in", str(src), "--out", str(tmp_path / "a.svg"), "--x", "t", "--y", "a"]
    assert fresh_run(argv, tmp_path) == {"code": 0, "scipy": []}
    assert (tmp_path / "a.svg").exists()


def test_verify_loads_no_scipy_and_reports_as_in_process(tmp_path, verify_small_run):
    fresh = tmp_path / "fresh"
    run = fresh_run(["verify", "--config", VERIFY_SMALL, "--out", str(fresh)], tmp_path)
    assert run["code"] == 0
    assert run["scipy"] == []
    code, here, _ = verify_small_run
    assert code == 0
    docs = [json.loads((d / "report.json").read_text()) for d in (fresh, here)]
    for doc in docs:
        doc.pop("generated_at")
    assert docs[0] == docs[1]
