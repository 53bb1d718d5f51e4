"""Seeded workloads: the CLI configs, command lists and expected exit codes.

Sizes are fixed per workload.  The seed only draws values inside a fixed
regime (the A points, kept a margin away from every wall, the phase of
gamma, and d), so every seed exercises the same code paths with the same
amount of work and every command has a known, checkable answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
DELTA = 1.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``bandflow <command> --config <label>.json``."""

    label: str
    command: str
    config: dict
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    work: dict  # work done by one round, derived from the configs


def _params(rng: np.random.Generator, L: int, S: float, d: float,
            delta: float = DELTA, A: float = 0.0) -> dict:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {"A": A, "delta": delta, "d": d, "gamma_re": math.cos(phase),
            "gamma_im": math.sin(phase), "L": L, "S": S}


def _mesh_vertices(n_theta: int, n_phi: int) -> int:
    return (n_theta - 1) * n_phi + 2


def _n_levels(params: dict) -> int:
    return round(2 * params["S"] + 1) * (2 * params["L"] + 1)


def _chern(rng, S: float, n: int, a_grid: list, d: float,
           label: str, expect_exit: int) -> Command:
    config = {"schema_version": SCHEMA_VERSION,
              "params": _params(rng, L=5, S=S, d=d),
              "a_grid": a_grid,
              "mesh": {"n_theta": n, "n_phi": n}}
    return Command(label, "chern", config, expect_exit)


def chern_sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    d = float(rng.uniform(-0.3, 0.3))

    def domains():
        # One A per iso-Chern domain; the walls sit at -d -+ delta.
        return [-d + float(rng.uniform(-2.5, -1.3)),
                -d + float(rng.uniform(-0.7, 0.7)),
                -d + float(rng.uniform(1.3, 2.5))]

    commands = (
        _chern(rng, 2.0, 32, domains(), d, "chern_s2", 0),
        _chern(rng, 0.5, 64, domains(), d, "chern_s05", 0),
        _chern(rng, 2.0, 32, [-d - DELTA], d, "chern_wall", 3),
    )
    solves = sum(len(c.config["a_grid"])
                 * _mesh_vertices(c.config["mesh"]["n_theta"],
                                  c.config["mesh"]["n_phi"]) for c in commands)
    return Workload(
        "chern_sweep",
        "Semiquantum and linalg do nearly all the work: 2x2 vertex solves are "
        "bound by per-call overhead, 5x5 ones by solver arithmetic, and the "
        "wall point keeps the refusal path measured.",
        commands, {"vertex_solves": solves, "levels": 0, "rows": 7})


def spectrum_flow(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    L, S = 60, 3.0
    d = float(rng.uniform(-0.002, 0.002))
    center = -d * L * L  # middle of the quantum redistribution window
    a_points = [center - float(rng.uniform(700.0, 1000.0)),
                center + float(rng.uniform(-3.0, 3.0)),
                center + float(rng.uniform(700.0, 1000.0))]
    params = _params(rng, L=L, S=S, d=d)
    config = {"schema_version": SCHEMA_VERSION, "params": params,
              "a_grid": a_points, "flow": {"a_points": a_points}}
    commands = (Command("spectrum", "spectrum", config, 0),
                Command("flow", "flow", config, 0))
    levels = 2 * len(a_points) * _n_levels(params)
    return Workload(
        "spectrum_flow",
        "The quantum layer is bound by its 7x7 block eigensolves while "
        "semiquantum sits idle and the outputs stay small.",
        commands, {"vertex_solves": 0, "levels": levels,
                   "rows": len(a_points) * _n_levels(params)})


def lattice_wide(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    L = 1500
    d = float(rng.uniform(-1e-4, 1e-4))
    center = -d * L * L
    spectrum = {"schema_version": SCHEMA_VERSION,
                "params": _params(rng, L=L, S=0.5, d=d),
                "a_grid": [center - float(rng.uniform(2600.0, 3500.0)),
                           center + float(rng.uniform(-700.0, 700.0))]}
    # Classical system with interior critical values at J_z = +-(L - S).
    classical = {"schema_version": SCHEMA_VERSION,
                 "params": _params(rng, L=16, S=5.0,
                                   d=float(rng.uniform(-0.004, 0.004)),
                                   delta=0.0, A=float(rng.uniform(-2.0, 2.0))),
                 "jz_grid": {"start": -21.0, "stop": 21.0, "num": 4001}}
    monodromy = {"schema_version": SCHEMA_VERSION,
                 "params": _params(rng, L=16, S=5.0, d=0.0, delta=0.0),
                 "monodromy": {
                     "start": {"jz": 6.0, "n": 6, "dn": None},
                     "loop": [[6, 30], [16, 30], [16, -30], [6, -30], [6, 30]]}}
    commands = (Command("spectrum", "spectrum", spectrum, 0),
                Command("emmap", "emmap", classical, 0),
                Command("dh", "dh", classical, 0),
                Command("monodromy", "monodromy", monodromy, 0))
    levels = len(spectrum["a_grid"]) * _n_levels(spectrum["params"]) \
        + _n_levels(monodromy["params"])
    rows = len(spectrum["a_grid"]) * _n_levels(spectrum["params"]) + 2 * 4001
    return Workload(
        "lattice_wide",
        "Thousands of tiny blocks make the quantum layer bound by block "
        "assembly, per-level objects and CSV output, and it is the only "
        "workload where classical, monodromy and serialize do measurable work.",
        commands, {"vertex_solves": 0, "levels": levels, "rows": rows})


WORKLOADS = {"chern_sweep": chern_sweep, "spectrum_flow": spectrum_flow,
             "lattice_wide": lattice_wide}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write_configs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write one JSON config per command; return label -> config path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in workload.commands:
        path = directory / f"{cmd.label}.json"
        path.write_text(json.dumps(cmd.config), encoding="utf-8")
        paths[cmd.label] = path
    return paths
