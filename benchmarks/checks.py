"""Output checkers for the benchmark workloads.

Each checker returns a list of problems (empty means the output is correct).
They test properties the method must have, recomputed here from the
written files or returned values, never a stored copy of an earlier output.
CSV files are read by this module's own parser, not by coulombflow.csvio.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np

# The check ids of theorem-suite-small in report order, as suites.py defines
# them: four cosine runs (m = 0.5, 1, 2, 4), weak-strong stability, front
# exactness, supersolution bounds, comparison and the waiting-time study.
_CONSERVATION = [
    "mass-conservation",
    "max-nonincreasing",
    "min-nondecreasing",
    "l2-nonincreasing",
    "linf-nonincreasing",
    "energy-dissipation",
]
_BARRIERS = ["upper-barrier", "lower-barrier"]
_DECAY = ["decay-rate-l1", "decay-rate-linf", "decay-rate-hm1"]
EXPECTED_CHECK_IDS = (
    _CONSERVATION + _BARRIERS + ["fast-diffusion-lower-barrier"] + _DECAY
    + _CONSERVATION + _BARRIERS + _DECAY + ["rearranged-subsolution"]
    + _CONSERVATION + _BARRIERS + _DECAY
    + _CONSERVATION + _BARRIERS
    + ["l1-stability-fit", "l1-stability-constant"]
    + [
        "single-vortex-m1-exact",
        "two-vortex-m1-exact",
        "single-vortex-subsolution-residual",
        "single-vortex-supersolution-residual",
    ]
    + [
        "supersolution-residual",
        "front-retreat-bound",
        "front-advance-bound",
        "front-spread-bound",
        "front-gap-bound",
        "front-tstar-bound",
    ]
    + ["supersolution-domination"]
    + [
        "edge-mass-classifier-jump",
        "support-growth-jump",
        "edge-mass-classifier-critical",
        "support-stasis-lipschitz",
    ]
)

MASS_RTOL = 1e-11
SYMMETRY_TOL = 1e-12
ENERGY_RTOL = 1e-6
KAPPA0_FLOOR = -1e-8
LADDER_H_FACTOR = 0.01
LADDER_REFINEMENT = 0.6
SUBSOLUTION_FACTOR = 0.05
COMPARISON_TOL = 0.02
VISCOSITY_TOL = 1e-6
FRONT_EXACT_TOL = 1e-8


def check_verify_report(doc: dict, exit_code: int) -> list[str]:
    """`verify` exited 0 and its report holds the suite's 60 passing checks."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exit code {exit_code}")
    checks = doc.get("checks", [])
    ids = [c.get("check_id") for c in checks]
    if ids != EXPECTED_CHECK_IDS:
        problems.append(
            f"check ids differ from the suite's {len(EXPECTED_CHECK_IDS)}: got {len(ids)}"
        )
    for c in checks:
        if c.get("status") != "pass":
            problems.append(f"{c.get('check_id')}: status {c.get('status')!r}")
            continue
        measured, bound, tol = (c.get(k) for k in ("measured", "bound", "tolerance"))
        if not all(isinstance(v, (int, float)) for v in (measured, bound, tol)):
            problems.append(f"{c.get('check_id')}: non-numeric measurement")
        elif not measured <= bound + tol:
            problems.append(
                f"{c.get('check_id')}: measured {measured} > bound {bound} + tol {tol}"
            )
    summary = doc.get("summary", {})
    expected = {"total": len(checks), "pass": len(checks), "fail": 0, "inconclusive": 0}
    if summary != expected:
        problems.append(f"summary {summary} != {expected}")
    return problems


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a comma-separated file, read in blocks."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        blocks = []
        while True:
            lines = fh.readlines(1 << 20)
            if not lines:
                break
            text = "".join(lines).replace("\n", ",").rstrip(",")
            blocks.append(np.fromstring(text, dtype=float, sep=","))
    flat = np.concatenate(blocks) if blocks else np.zeros(0)
    if flat.size % len(header):
        raise ValueError(f"{path}: ragged rows")
    return header, flat.reshape(-1, len(header))


def check_snapshots(snapshots: list[tuple[float, np.ndarray]]) -> list[str]:
    """Nonnegativity, exact mass, monotone extrema and x1<->x2 symmetry.

    `snapshots` holds (t, values) in time order, values as an (n, n) array
    indexed [x1, x2].
    """
    problems = []
    if len(snapshots) < 2:
        return [f"only {len(snapshots)} snapshots"]
    mass0 = float(np.mean(snapshots[0][1]))
    prev_max = prev_min = None
    for t, v in snapshots:
        vmin, vmax = float(np.min(v)), float(np.max(v))
        if vmin < 0.0:
            problems.append(f"t={t}: negative density {vmin}")
        drift = abs(float(np.mean(v)) - mass0) / abs(mass0)
        if not drift <= MASS_RTOL:
            problems.append(f"t={t}: relative mass drift {drift:.3e} > {MASS_RTOL}")
        if prev_max is not None and vmax > prev_max:
            problems.append(f"t={t}: max increased by {vmax - prev_max:.3e}")
        if prev_min is not None and vmin < prev_min:
            problems.append(f"t={t}: min decreased by {prev_min - vmin:.3e}")
        asym = float(np.max(np.abs(v - v.T)))
        if not asym <= SYMMETRY_TOL:
            problems.append(f"t={t}: x1<->x2 asymmetry {asym:.3e} > {SYMMETRY_TOL}")
        prev_max, prev_min = vmax, vmin
    return problems


def check_rearranged(values: np.ndarray, u_star: np.ndarray) -> list[str]:
    """The written u_star is the descending sort of the snapshot."""
    expected = np.sort(values.ravel())[::-1]
    if u_star.shape != expected.shape or not np.array_equal(u_star, expected):
        return ["u_star is not the descending sort of its snapshot"]
    return []


def check_energy(energy: np.ndarray, dissipation: np.ndarray) -> list[str]:
    """E(t) + int_0^t D never exceeds E(0) by more than 1e-6 E(0).

    Viscosity removes energy that the recorded dissipation does not count,
    so the balance is one-sided, as in the suite's energy-dissipation check.
    """
    excess = float(np.max(energy + dissipation - energy[0]))
    if not excess <= ENERGY_RTOL * energy[0]:
        return [f"energy balance exceeded by {excess:.3e} (E0 = {energy[0]:.3e})"]
    return []


def check_simulate_2d(out_dir, output_times) -> list[str]:
    """All properties of a 2-D `simulate` output directory.

    A snapshot must exist at t = 0 and at each of `output_times`.
    """
    problems = []
    u_paths = sorted(
        glob.glob(os.path.join(out_dir, "u_*.csv")),
        key=lambda p: float(os.path.basename(p)[2:-4]),
    )
    found = [float(os.path.basename(p)[2:-4]) for p in u_paths]
    if found != [0.0] + [round(t, 6) for t in output_times]:
        problems.append(f"snapshot times {found}")
    snapshots = []
    for path in u_paths:
        header, data = read_csv(path)
        if header != ["x1", "x2", "value"]:
            return [f"{path}: header {header}"]
        n = math.isqrt(len(data))
        if n * n != len(data):
            return [f"{path}: {len(data)} rows is not a square grid"]
        values = data[:, 2].reshape(n, n)
        if not (np.all(np.diff(data[:, 0].reshape(n, n), axis=0) > 0)
                and np.all(np.diff(data[:, 1].reshape(n, n), axis=1) > 0)):
            problems.append(f"{path}: rows are not in [x1, x2] grid order")
        t = float(os.path.basename(path)[2:-4])
        snapshots.append((t, values))
        k_header, k_data = read_csv(os.path.join(out_dir, f"k_{os.path.basename(path)[2:]}"))
        if k_header != ["s", "u_star", "k"]:
            problems.append(f"k file header {k_header}")
        else:
            problems += [f"t={t}: {p}" for p in check_rearranged(values, k_data[:, 1])]
    problems += check_snapshots(snapshots)
    header, obs = read_csv(os.path.join(out_dir, "observables.csv"))
    problems += check_energy(obs[:, header.index("energy")], obs[:, header.index("dissipation")])
    for name in ("observables.svg", "support.svg"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} missing")
    return problems


def check_analysis(res: dict) -> list[str]:
    """Residual bounds of the post-processing workload.

    `res` holds the measured values: `kappa0`, `ladder` ({n: residual}),
    `subsolution` with `ubar`, `comparison`, `viscosity` ({name: residual}),
    `supersolution` and the m = 1 single-vortex positions `single_m1`
    (times, s1, s2).
    """
    problems = []
    if not res["kappa0"] >= KAPPA0_FLOOR:
        problems.append(f"kappa=0 entropy residual {res['kappa0']:.3e} < {KAPPA0_FLOOR}")
    ladder = res["ladder"]
    for n, r in ladder.items():
        if not r >= -LADDER_H_FACTOR / n:
            problems.append(f"Kruzhkov ladder residual {r:.3e} < -0.01 h at n={n}")
    coarse, fine = min(ladder), max(ladder)
    if not abs(ladder[fine]) <= LADDER_REFINEMENT * abs(ladder[coarse]):
        problems.append(
            f"ladder residual does not refine: |r{fine}| = {abs(ladder[fine]):.3e} > "
            f"{LADDER_REFINEMENT} |r{coarse}| = {abs(ladder[coarse]):.3e}"
        )
    if not res["subsolution"] <= SUBSOLUTION_FACTOR * res["ubar"] ** 2:
        problems.append(f"subsolution residual {res['subsolution']:.3e} > 0.05 ubar^2")
    if not res["comparison"] <= COMPARISON_TOL:
        problems.append(f"comparison excess {res['comparison']:.3e} > {COMPARISON_TOL}")
    for name, r in res["viscosity"].items():
        if not abs(r) <= VISCOSITY_TOL:
            problems.append(f"viscosity residual {name} = {r:.3e} beyond {VISCOSITY_TOL}")
    if not res["supersolution"] >= -VISCOSITY_TOL:
        problems.append(f"supersolution residual {res['supersolution']:.3e} < -{VISCOSITY_TOL}")
    ts, s1, s2 = (np.asarray(res["single_m1"][k]) for k in ("times", "s1", "s2"))
    exact = 0.25 * np.exp(-ts)
    err = float(np.max(np.abs(s1 - exact) + np.abs(s2 - (1.0 - exact))))
    if not err <= FRONT_EXACT_TOL:
        problems.append(f"m=1 single-vortex fronts off 0.25 e^-t by {err:.3e}")
    return problems
