"""Batch command-line interface.

Subcommands: simulate (one integration run, CSV/SVG artifacts), fronts
(analytic front ODE systems), verify (named check suites, JSON report),
plot (CSV columns to an SVG line chart).  Exit codes: 0 success, 1
verification failure, 2 usage or configuration error or a failed output
write.  `verify --jobs N` runs suite tasks on N >= 1 threads (default 1);
reports are identical for any N.
simulate writes its per-snapshot u_<t>.csv and k_<t>.csv files in up to one
process per usable core (forked children write every share but the first);
the files are byte-identical for any core count, and no flag sets it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from coulombflow.config import ConfigError, load_config
from coulombflow.csvio import format_cells, read_csv, write_csv
from coulombflow.hj_fronts import FRONT_SYSTEMS
from coulombflow.pde_solver import SolverError, run
from coulombflow.rearrangement import rearrange, support_measure, support_threshold
from coulombflow.suites import run_suite
from coulombflow.svgplot import write_line_chart
from coulombflow.verify import emit_report

__all__ = ["main"]


def _ensure_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {path!r} is not writable: {exc}") from exc


def _t_tag(t: float) -> str:
    return f"{t:.6f}"


def _write_snapshots(out_dir, snapshots, u_header, u_grid, s_cells) -> None:
    """Write u_<t>.csv and the rearranged k_<t>.csv of each (t, field)."""
    for t, f in snapshots:
        tag = _t_tag(t)
        prof = rearrange(f)
        write_csv(os.path.join(out_dir, f"u_{tag}.csv"), u_header, [*u_grid, f.values.ravel()])
        write_csv(
            os.path.join(out_dir, f"k_{tag}.csv"),
            ["s", "u_star", "k"],
            [s_cells, prof.u_star, prof.k_at_midpoints()],
        )


def _usable_cores() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _in_shares(snapshots, write) -> None:
    """Call write(snapshots[i::workers]) for each share i, one process per usable core.

    The parent writes share 0 and forks a child for every other share, so no
    more processes are busy than there are cores; the children share the
    snapshots copy-on-write and leave by os._exit, never unwinding into the
    caller.  Every child is reaped, also when the parent's own share fails,
    and a child that exits nonzero raises OSError naming its time tags.
    """
    workers = min(_usable_cores(), len(snapshots))
    children = {}
    try:
        for i in range(1, workers):
            with warnings.catch_warnings():
                # Python >= 3.12 warns on a fork while BLAS pool threads exist;
                # the child only formats and writes files and leaves by os._exit.
                warnings.filterwarnings("ignore", "This process .* is multi-threaded")
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    write(snapshots[i::workers])
                    code = 0
                except BaseException:
                    # os._exit below drops the exception: print it here
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            children[pid] = snapshots[i::workers]
        write(snapshots[::workers])
    finally:
        failed = [share for pid, share in children.items() if os.waitpid(pid, 0)[1] != 0]
    if failed:
        tags = ", ".join(_t_tag(t) for share in failed for t, _ in share)
        raise OSError(f"writing the snapshot files at t = {tags} failed in a child process")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.solver is None:
        raise ConfigError("simulate needs grid, solver and initial_condition sections")
    # snapshot files are named by their time tag, so two tags must not collide
    times = [0.0, *cfg.solver.output_schedule()]
    for a, b in zip(times, times[1:]):
        if _t_tag(a) == _t_tag(b):
            raise ConfigError(
                f"solver.output_times: snapshots at t = {a!r} and t = {b!r} would both be "
                f"written as u_{_t_tag(a)}.csv; output times must differ in the sixth decimal"
            )
    out_dir = args.out or cfg.outputs.get("dir", "out")
    _ensure_outdir(out_dir)
    formats = cfg.outputs.get("formats", ["csv"])

    grid = cfg.grid
    traj = run(cfg.u0, cfg.solver)

    obs = traj.observables
    write_csv(
        os.path.join(out_dir, "observables.csv"),
        ["t", "mass", "min", "max", "l1", "l2", "linf", "energy", "dissipation", "grad_sup"],
        [
            obs.t,
            obs.mass,
            obs.min,
            obs.max,
            obs.mass,
            obs.l2,
            obs.max,
            obs.energy,
            obs.cumulative_dissipation,
            obs.grad_sup,
        ],
    )
    theta = support_threshold(traj.snapshots[0][1])
    # The grid columns are the same in every snapshot file: format them once.
    axis = format_cells(grid.axis_coordinates())
    if grid.dim == 1:
        u_header, u_grid = ["x", "value"], [axis]
    else:
        # C order of an "ij" meshgrid: x1 holds each coordinate n times in
        # a row, x2 the whole axis n times; both share the n axis strings.
        x1 = [x for x in axis for _ in range(grid.n)]
        u_header, u_grid = ["x1", "x2", "value"], [x1, axis * grid.n]
    s_cells = format_cells(rearrange(traj.snapshots[0][1]).s_midpoints)
    _in_shares(
        traj.snapshots,
        lambda share: _write_snapshots(out_dir, share, u_header, u_grid, s_cells),
    )
    support = np.array([support_measure(f, theta) for _, f in traj.snapshots])
    write_csv(os.path.join(out_dir, "support.csv"), ["t", "S"], [traj.times, support])
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(
            {
                "config": cfg.raw,
                "epsilon_resolved": traj.epsilon,
                "theta_support": theta,
                "mollify_width": cfg.solver.mollify_width,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    if "svg" in formats:
        write_line_chart(
            os.path.join(out_dir, "observables.svg"),
            obs.t,
            {"energy": obs.energy, "max": obs.max, "min": obs.min},
            xlabel="t",
            ylabel="value",
            title="run observables",
        )
        write_line_chart(
            os.path.join(out_dir, "support.svg"),
            traj.times,
            {"S": support},
            xlabel="t",
            ylabel="support measure",
            title="support vs time",
        )
    return 0


def cmd_fronts(args) -> int:
    cfg = load_config(args.config)
    if cfg.fronts is None:
        raise ConfigError("fronts section missing from config")
    mode, state, t_end = cfg.fronts
    traj = FRONT_SYSTEMS[mode][1](state, t_end)

    out_dir = args.out or cfg.outputs.get("dir", "out")
    _ensure_outdir(out_dir)
    stride = max(1, len(traj.times) // 2000)
    idx = list(range(0, len(traj.times), stride))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    ts = traj.times[idx]
    cols = [ts] + [traj.positions[idx, j] for j in range(traj.positions.shape[1])]
    # the dominating profile flags its hitting time t_star, the others their halt
    flag_from = traj.t_star if mode == "super" else traj.halted_at
    cols.append((ts >= (math.inf if flag_from is None else flag_from)).astype(int))
    write_csv(os.path.join(out_dir, "fronts.csv"), ["t", *state.MOVING, "t_star_flag"], cols)
    if "svg" in cfg.outputs.get("formats", ["csv"]):
        write_line_chart(
            os.path.join(out_dir, "fronts.svg"),
            ts,
            {lab: traj.positions[idx, j] for j, lab in enumerate(state.MOVING)},
            xlabel="t",
            ylabel="front position",
            title=f"{mode} front tracking",
        )
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    sizes = dict(cfg.verify)  # the keys besides suite are run_suite's
    suite = sizes.pop("suite", None)
    if not suite:
        raise ConfigError("verify.suite is required")
    out_dir = args.out or cfg.outputs.get("dir", "out")
    _ensure_outdir(out_dir)
    try:
        results, warnings = run_suite(suite, jobs=args.jobs, **sizes)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    code = emit_report(
        results, os.path.join(out_dir, "report.json"), config=cfg.raw, warnings=warnings
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"{suite}: {sum(r.status == 'pass' for r in results)} pass, "
        f"{sum(r.status == 'fail' for r in results)} fail, "
        f"{sum(r.status == 'inconclusive' for r in results)} inconclusive"
    )
    return code


def cmd_plot(args) -> int:
    try:
        header, cols = read_csv(getattr(args, "in"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot plot: {exc}") from exc
    x_name = args.x
    y_names = [c.strip() for c in args.y.split(",") if c.strip()]
    for name in [x_name] + y_names:
        if name not in cols:
            raise ConfigError(f"column {name!r} not in CSV (has {header})")
    write_line_chart(
        args.out,
        cols[x_name],
        {name: cols[name] for name in y_names},
        xlabel=x_name,
        title=os.path.basename(getattr(args, "in")),
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulombflow",
        description="Finite-volume / spectral laboratory for Coulomb-driven "
        "nonlinear-mobility transport on the unit torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one integration")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fr = sub.add_parser("fronts", help="integrate analytic front systems")
    p_fr.add_argument("--config", required=True)
    p_fr.add_argument("--out", default=None)
    p_fr.set_defaults(func=cmd_fronts)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--jobs", type=_positive_int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="CSV columns to SVG line chart")
    p_plot.add_argument("--in", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--x", required=True)
    p_plot.add_argument("--y", required=True, help="comma-separated column names")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
