"""Strict JSON experiment configuration.

One JSON document per experiment.  Validation is strict: unknown keys are
rejected with the offending key named, and every module precondition that
can be checked statically is checked before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from coulombflow.initial_conditions import KINDS

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; message names the key and the constraint."""


_SECTIONS = {"grid", "solver", "initial_condition", "outputs", "verify", "fronts"}
_GRID_KEYS = {"dim", "n"}
_SOLVER_KEYS = {
    "m",
    "epsilon",
    "cfl",
    "t_end",
    "output_times",
    "floor_m_lt_1",
    "record_every",
}
_IC_KEYS = {
    "kind",
    "value",
    "base",
    "amplitudes",
    "blocks",
    "c",
    "s0",
    "exponent",
    "center",
    "path",
    "mollify",
}
_OUTPUT_KEYS = {"dir", "formats"}
_VERIFY_KEYS = {"suite", "n"}
_FRONTS_KEYS = {"mode", "m", "ubar", "s1", "s2", "s3", "s4", "alpha", "C", "t_end"}


@dataclass
class ExperimentConfig:
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    initial_condition: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    fronts: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _require_keys(section: str, data: dict, allowed: set):
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {section}.{key!r}; allowed: {sorted(allowed)}"
            )


def _check(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_config(path) -> ExperimentConfig:
    """Parse and strictly validate an experiment configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section {key!r}; allowed: {sorted(_SECTIONS)}")

    cfg = ExperimentConfig(raw=raw)

    grid = raw.get("grid", {})
    _require_keys("grid", grid, _GRID_KEYS)
    if grid:
        _check("dim" in grid and "n" in grid, "grid needs both 'dim' and 'n'")
        _check(grid["dim"] in (1, 2), f"grid.dim must be 1 or 2, got {grid.get('dim')}")
        _check(
            isinstance(grid["n"], int) and grid["n"] >= 8,
            f"grid.n must be an integer >= 8, got {grid.get('n')}",
        )
    cfg.grid = grid

    solver = raw.get("solver", {})
    _require_keys("solver", solver, _SOLVER_KEYS)
    if solver:
        _check("m" in solver, "solver.m is required")
        _check(solver["m"] > 0, f"solver.m must be > 0, got {solver['m']}")
        eps = solver.get("epsilon", "auto")
        _check(
            eps == "auto" or (isinstance(eps, (int, float)) and eps >= 0),
            f"solver.epsilon must be 'auto' or a number >= 0, got {eps!r}",
        )
        cfl = solver.get("cfl", 0.45)
        _check(0 < cfl <= 1, f"solver.cfl must lie in (0, 1], got {cfl}")
        if eps == "auto" or eps > 0:
            _check(
                cfl <= 0.5,
                f"solver.cfl must be <= 0.5 when solver.epsilon is 'auto' or > 0, got {cfl}",
            )
        t_end = solver.get("t_end", 1.0)
        _check(t_end > 0, f"solver.t_end must be > 0, got {t_end}")
        times = solver.get("output_times", [])
        _check(
            all(isinstance(t, (int, float)) and 0 < t <= t_end for t in times),
            "solver.output_times must be numbers in (0, t_end]",
        )
        if solver["m"] < 1:
            _check(
                solver.get("floor_m_lt_1", 0.0) > 0,
                "solver.floor_m_lt_1 must be > 0 when m < 1",
            )
    cfg.solver = solver

    ic = raw.get("initial_condition", {})
    _require_keys("initial_condition", ic, _IC_KEYS)
    if ic:
        _check(
            ic.get("kind") in KINDS,
            f"initial_condition.kind must be one of {KINDS}, got {ic.get('kind')!r}",
        )
        mol = ic.get("mollify", "off")
        _check(
            mol == "off" or (isinstance(mol, (int, float)) and mol > 0),
            f"initial_condition.mollify must be 'off' or a width > 0, got {mol!r}",
        )
    cfg.initial_condition = ic

    outputs = raw.get("outputs", {})
    _require_keys("outputs", outputs, _OUTPUT_KEYS)
    formats = outputs.get("formats", ["csv"])
    _check(
        all(f in ("csv", "svg") for f in formats),
        f"outputs.formats entries must be 'csv' or 'svg', got {formats}",
    )
    cfg.outputs = outputs

    verify = raw.get("verify", {})
    _require_keys("verify", verify, _VERIFY_KEYS)
    cfg.verify = verify

    fronts = raw.get("fronts", {})
    _require_keys("fronts", fronts, _FRONTS_KEYS)
    cfg.fronts = fronts

    return cfg
