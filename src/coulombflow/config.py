"""Strict JSON experiment configuration.

One JSON document per experiment.  Unknown sections and keys are rejected
with the offending key named.  Every other rule is checked once, by the code
that uses the section, all at load time: `make_grid` checks the grid,
`build_initial_condition` the initial data and the keys its kind uses,
`SolverConfig` when it is built the solver, and the state class that
`fronts.mode` names the front system.  Their errors become a `ConfigError`
that names the section, and for the grid, the solver, `verify.n`, a missing,
unused or non-numeric `initial_condition` key and a missing or non-numeric
`fronts` key the key.  This module checks only what no owner does:
`initial_condition.mollify`, `fronts.t_end` positive, each field of the
front state a number, no `fronts` key that the chosen mode does not use, and
`outputs.formats`.
Wherever a number is required, it must pass `is_number`: a finite number,
never a JSON boolean.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from coulombflow.hj_fronts import FRONT_SYSTEMS
from coulombflow.initial_conditions import KINDS, build_initial_condition
from coulombflow.pde_solver import SolverConfig
from coulombflow.torus_field import ScalarField, TorusGrid, is_number, make_grid, mollify

__all__ = ["ConfigError", "ExperimentConfig", "FrontRun", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; message names the key and the constraint."""


_KEYS = {
    "grid": {"dim", "n"},
    "solver": {f.name for f in dataclasses.fields(SolverConfig)},
    "initial_condition": {"kind", "mollify"}.union(
        *(required + optional for _, required, optional in KINDS.values())
    ),
    "outputs": {"dir", "formats"},
    "verify": {"suite", "n"},
    "fronts": {"mode", "t_end"}.union(
        *((f.name for f in dataclasses.fields(state)) for state, _ in FRONT_SYSTEMS.values())
    ),
}
_SIMULATION = ("grid", "solver", "initial_condition")


class FrontRun(NamedTuple):
    """What `fronts` integrates: the system `mode` from `state` up to `t_end`."""

    mode: str
    state: object
    t_end: float


@dataclass
class ExperimentConfig:
    """A loaded configuration.

    grid, u0 and solver are what `simulate` runs: u0 is the initial data
    after the Gaussian of standard deviation mollify_width (0 for none), the
    width resolved from `initial_condition.mollify`.  They are None when the
    document has no grid, solver and initial_condition sections.  fronts is
    what `fronts` runs, None without a fronts section.
    """

    raw: dict
    grid: Optional[TorusGrid] = None
    u0: Optional[ScalarField] = None
    mollify_width: Optional[float] = None
    solver: Optional[SolverConfig] = None
    fronts: Optional[FrontRun] = None
    outputs: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)


@contextlib.contextmanager
def _owned(section: str, keyed: bool = False):
    """Re-raise what a section's owner raises as a ConfigError naming the section.

    Keyed owners (make_grid, SolverConfig when it is built) begin each
    ValueError with the offending key, which then reads `section.key ...`.
    """
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{section}.{exc.args[0]} is required") from exc
    except ValueError as exc:
        raise ConfigError(f"{section}{'.' if keyed else ': '}{exc}") from exc
    except (TypeError, OSError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _mollify_width(ic: dict, grid: TorusGrid) -> float:
    if "mollify" not in ic:
        # indicator data gets a two-cell mollifier unless explicitly disabled
        return 2.0 * grid.h if ic.get("kind") == "blocks" else 0.0
    mol = ic["mollify"]
    if mol == "off":
        return 0.0
    if not (is_number(mol) and mol >= 0):
        raise ConfigError(
            f"initial_condition.mollify must be 'off' or a finite number >= 0, got {mol!r}"
        )
    return float(mol)


def _build_simulation(cfg: ExperimentConfig, grid: dict, solver: dict, ic: dict) -> None:
    with _owned("grid", keyed=True):
        cfg.grid = make_grid(**grid)
    cfg.mollify_width = _mollify_width(ic, cfg.grid)
    data = {key: value for key, value in ic.items() if key != "mollify"}
    with _owned("initial_condition"):
        cfg.u0 = mollify(build_initial_condition(cfg.grid, data), cfg.mollify_width)
    with _owned("solver", keyed=True):
        cfg.solver = SolverConfig(**solver)


def _build_fronts(fronts: dict) -> FrontRun:
    with _owned("fronts", keyed=True):
        mode = fronts["mode"]
        if mode not in FRONT_SYSTEMS:
            raise ValueError(f"mode must be one of {sorted(FRONT_SYSTEMS)}, got {mode!r}")
        t_end = fronts.get("t_end", 1.0)
        if not (is_number(t_end) and t_end > 0):
            raise ValueError(f"t_end must be a positive finite number, got {t_end!r}")
        cls = FRONT_SYSTEMS[mode][0]
        names = [f.name for f in dataclasses.fields(cls)]
        values = {name: fronts[name] for name in names}
        for name, value in values.items():
            if not is_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
    with _owned("fronts"):
        state = cls(**values)
    unused = fronts.keys() - {"mode", "t_end", *names}
    if unused:
        raise ConfigError(f"fronts.{min(unused)} is not used by mode {mode!r}; it takes {names}")
    return FrontRun(mode, state, t_end)


def load_config(path) -> ExperimentConfig:
    """Parse a configuration file and build the run it describes."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section, data in raw.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section {section!r}; allowed: {sorted(_KEYS)}")
        if not isinstance(data, dict):
            raise ConfigError(f"section {section!r} must be a JSON object")
        for key in data:
            if key not in _KEYS[section]:
                raise ConfigError(
                    f"unknown key {section}.{key!r}; allowed: {sorted(_KEYS[section])}"
                )

    cfg = ExperimentConfig(raw=raw, outputs=raw.get("outputs", {}), verify=raw.get("verify", {}))
    sim = [raw.get(section) for section in _SIMULATION]
    if all(sim):
        _build_simulation(cfg, *sim)
    elif any(sim):
        raise ConfigError(f"a simulation needs all of {', '.join(_SIMULATION)}")
    if "fronts" in raw:
        cfg.fronts = _build_fronts(raw["fronts"])

    formats = cfg.outputs.get("formats", ["csv"])
    if not all(f in ("csv", "svg") for f in formats):
        raise ConfigError(f"outputs.formats entries must be 'csv' or 'svg', got {formats}")
    if "n" in cfg.verify:
        # the suites build grids of n cells per axis
        with _owned("verify", keyed=True):
            make_grid(1, cfg.verify["n"])
    return cfg
