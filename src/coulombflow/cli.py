"""Batch command-line interface.

Subcommands: simulate (one integration run, CSV/SVG artifacts), fronts
(analytic front ODE systems), verify (named check suites, JSON report),
plot (CSV columns to an SVG line chart).  Exit codes: 0 success, 1
verification failure, 2 usage or configuration error, a front system that
loses its ordering, or a failed output write.  verify runs its suite's
tasks on every usable core, pulled from one queue by the main process and
a forked child per further core (suites.run_suite); the report does not
depend on the core count, and no flag sets it.  `--jobs` admits only 1,
sets nothing, and is kept for callers that pass it.
simulate writes its per-snapshot u_<t>.csv and k_<t>.csv files while the
solver steps: each snapshot goes to a forked child as it lands, with up to
one child per usable core but the solver's, and the snapshots still queued
when the run ends are shared by the main process and the free cores.  The
files are byte-identical for any core count, and no flag sets it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from coulombflow.config import ConfigError, load_config
from coulombflow.csvio import format_cells, read_csv, write_csv
from coulombflow.forking import Children, usable_cores
from coulombflow.hj_fronts import FRONT_SYSTEMS, FrontIntegrationError
from coulombflow.pde_solver import SolverError, _grad_sup, run
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


def _write_while_stepping(u0, solver, write):
    """Return run(u0, solver), writing its snapshots with write(share) meanwhile.

    The solver's snapshot hook queues each snapshot as it lands, reaps
    finished writers without blocking, and forks a child for the oldest
    queued snapshot while fewer than usable cores - 1 children are alive: the
    solver holds one core.  The snapshots still queued when the run ends are
    dealt out round-robin to the main process and the free slots, one
    process per core.  Where os.fork is missing, or with one core, the main
    process writes them all after the run.  The children share the snapshots
    copy-on-write.  Every child is reaped, also when the run or a write
    fails, and a child that exits nonzero raises OSError naming its time
    tags, at the latest when the run ends.
    """
    slots = usable_cores() - 1
    queue, writers = [], Children()

    def reap(flags):
        failed = [snap for share in writers.reap(flags) for snap in share]
        if failed:
            tags = ", ".join(_t_tag(t) for t, _ in failed)
            raise OSError(f"writing the snapshot files at t = {tags} failed in a child process")

    def hand_over(member, t, field):
        queue.append((t, field))
        reap(os.WNOHANG)
        while queue and len(writers) < slots:
            writers.spawn(write, [queue.pop(0)])

    try:
        traj = run(u0, solver, on_snapshot=hand_over)
        reap(os.WNOHANG)
        workers = min(1 + slots - len(writers), len(queue))
        for i in range(1, workers):
            writers.spawn(write, queue[i::workers])
        if queue:
            write(queue[::workers])
        reap(0)
    finally:
        writers.close(kill=False)
    return traj


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
    # The grid columns are the same in every snapshot file: format them once.
    axis = format_cells(grid.axis_coordinates())
    if grid.dim == 1:
        u_header, u_grid = ["x", "value"], [axis]
    else:
        # C order of an "ij" meshgrid: x1 holds each coordinate n times in
        # a row, x2 the whole axis n times; both share the n axis strings.
        x1 = [x for x in axis for _ in range(grid.n)]
        u_header, u_grid = ["x1", "x2", "value"], [x1, axis * grid.n]
    # the rearranged cells depend on the grid alone, so u0 gives every file's s
    s_cells = format_cells(rearrange(cfg.u0).s_midpoints)
    traj = _write_while_stepping(
        cfg.u0,
        cfg.solver,
        lambda share: _write_snapshots(out_dir, share, u_header, u_grid, s_cells),
    )

    obs = traj.observables
    write_csv(
        os.path.join(out_dir, "observables.csv"),
        ["t", "mass", "min", "max", "l2", "energy", "dissipation"],
        [obs.t, obs.mass, obs.min, obs.max, obs.l2, obs.energy, obs.cumulative_dissipation],
    )
    theta = support_threshold(traj.snapshots[0][1])
    support = np.array([support_measure(f, theta) for _, f in traj.snapshots])
    grad_sup = np.array([_grad_sup(grid, f.values) for _, f in traj.snapshots])
    write_csv(
        os.path.join(out_dir, "support.csv"), ["t", "S", "grad_sup"], [traj.times, support, grad_sup]
    )
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(
            {
                "config": cfg.raw,
                "epsilon_resolved": traj.epsilon,
                "theta_support": theta,
                "mollify_width": cfg.mollify_width,
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
        results, warnings = run_suite(suite, **sizes)
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
    p_ver.add_argument("--jobs", type=int, choices=[1], default=1)
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
    except (ConfigError, ValueError, SolverError, FrontIntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
