"""Command-line surface: spectrum | chern | emmap | dh | monodromy | flow.

Each run is driven by a single JSON config file and writes machine-readable
CSV/JSON outputs into --out.  Exit codes: 0 success, 2 config error,
3 numerical refusal (wall, unassignable bands, too coarse a mesh, or a
failed eigensolve), 4 transport ambiguity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classical import dh_volume, em_image
from .monodromy import (LatticeCell, TransportAmbiguityError, TransportError,
                        build_lattice, transport_cell)
from .params import PhysParams
from .semiquantum import MeshTooCoarseError, chern_numbers, sphere_mesh
from .serialize import write_csv, write_json
from .spectrum import BandAssignmentError, assign_bands, joint_spectrum, \
    sweep_spectral_flow

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_AMBIGUOUS = 4


class ConfigError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _finite_real(value, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number")
    x = float(value)
    _require(x == x and abs(x) != float("inf"), f"{name} must be finite")
    return x


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(config, dict), "config root must be a JSON object")
    _require(config.get("schema_version") == SCHEMA_VERSION,
             f"config schema_version must be {SCHEMA_VERSION}")
    return config


def parse_params(config: dict, need_a: bool) -> PhysParams:
    """Look up the params keys; PhysParams validates their values."""
    raw = config.get("params")
    _require(isinstance(raw, dict), "config needs a 'params' object")
    for key in ("delta", "d", "gamma_re", "gamma_im", "L", "S"):
        _require(key in raw, f"params.{key} is required")
    _require(not need_a or "A" in raw, "params.A is required for this command")
    gamma = complex(_finite_real(raw["gamma_re"], "params.gamma_re"),
                    _finite_real(raw["gamma_im"], "params.gamma_im"))
    try:
        return PhysParams(A=raw.get("A", 0.0), delta=raw["delta"], d=raw["d"],
                          gamma=gamma, L=raw["L"], S=raw["S"])
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc


def parse_a_grid(config: dict) -> list[float]:
    grid = config.get("a_grid")
    _require(isinstance(grid, list) and len(grid) > 0,
             "config needs a non-empty 'a_grid' list")
    values = [_finite_real(a, "a_grid entry") for a in grid]
    _require(all(b > a for a, b in zip(values, values[1:])),
             "a_grid must be strictly ascending")
    return values


def parse_jz_grid(config: dict) -> list[float]:
    grid = config.get("jz_grid")
    _require(isinstance(grid, dict), "config needs a 'jz_grid' object")
    if "values" in grid:
        values = grid["values"]
        _require(isinstance(values, list) and values, "jz_grid.values must be "
                 "a non-empty list")
        out = [_finite_real(v, "jz_grid value") for v in values]
    else:
        for key in ("start", "stop", "num"):
            _require(key in grid, f"jz_grid.{key} is required")
        start = _finite_real(grid["start"], "jz_grid.start")
        stop = _finite_real(grid["stop"], "jz_grid.stop")
        num = grid["num"]
        _require(isinstance(num, int) and num >= 2, "jz_grid.num must be an "
                 "integer >= 2")
        _require(stop > start, "jz_grid.stop must exceed jz_grid.start")
        out = [start + (stop - start) * i / (num - 1) for i in range(num)]
    _require(all(b > a for a, b in zip(out, out[1:])),
             "jz grid must be strictly ascending")
    return out


def cmd_spectrum(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=False)
    a_grid = parse_a_grid(config)
    rows = []
    clean = True
    for a in a_grid:
        spec = joint_spectrum(replace(params, A=a))
        decomp = assign_bands(spec)
        band_of = decomp.band_by_site()
        if decomp.unassigned:
            clean = False
        for lv in sorted(spec.levels, key=lambda v: (v.jz, v.n)):
            band = band_of.get((lv.jz, lv.n), -1)
            is_edge = abs(lv.jz) > params.L - params.S
            rows.append((a, lv.jz, lv.n, lv.energy, band, is_edge))
    write_csv(out_dir / "spectrum.csv",
              ["A", "jz", "n", "energy", "band", "is_edge"], rows)
    if not clean:
        print("spectrum: some levels could not be assigned to a band "
              "(band = -1 rows); refusing success", file=sys.stderr)
        return EXIT_REFUSAL
    return EXIT_OK


def cmd_chern(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=False)
    a_grid = parse_a_grid(config)
    mesh_cfg = config.get("mesh", {})
    _require(isinstance(mesh_cfg, dict), "'mesh' must be an object")
    n_theta = mesh_cfg.get("n_theta", 64)
    n_phi = mesh_cfg.get("n_phi", 64)
    _require(isinstance(n_theta, int) and isinstance(n_phi, int),
             "mesh.n_theta and mesh.n_phi must be integers")
    mesh = sphere_mesh(n_theta, n_phi)
    reports = [chern_numbers(replace(params, A=a), mesh) for a in a_grid]

    n_bands = params.n_bands
    header = ["A"] + [f"ch_{b}" for b in range(n_bands)] + \
        ["min_gap", "valid", "message"]
    rows = []
    all_valid = True
    for rep in reports:
        chern_cells = list(rep.chern) if rep.valid else [None] * n_bands
        rows.append((rep.A, *chern_cells, rep.min_gap, rep.valid, rep.message))
        all_valid = all_valid and rep.valid
    write_csv(out_dir / "chern.csv", header, rows)
    if not all_valid:
        print("chern: some A values were refused (near a degeneracy wall)",
              file=sys.stderr)
        return EXIT_REFUSAL
    return EXIT_OK


def cmd_emmap(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=True)
    jz_grid = parse_jz_grid(config)
    scan_points = config.get("scan_points", 2001)
    _require(isinstance(scan_points, int) and scan_points >= 2,
             "scan_points must be an integer >= 2")
    image = em_image(params, jz_grid, scan_points=scan_points)
    write_csv(out_dir / "emmap.csv", ["jz", "e_min", "e_max"],
              zip(image.jz.tolist(), image.e_min.tolist(), image.e_max.tolist()))
    write_json(out_dir / "critical_values.json", {
        "A": params.A,
        "critical_values": [
            {"jz": cv.jz, "energy": cv.energy, "location": cv.location}
            for cv in image.critical_values
        ],
    })
    return EXIT_OK


def cmd_dh(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=False)
    jz_grid = parse_jz_grid(config)
    _require(params.S > 0 and params.L > 0, "dh needs positive S and L")
    profile = dh_volume(params.S, float(params.L), jz_grid)
    write_csv(out_dir / "dh.csv", ["jz", "volume"],
              zip(profile.jz.tolist(), profile.volume.tolist()))
    return EXIT_OK


def cmd_monodromy(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=True)
    section = config.get("monodromy")
    _require(isinstance(section, dict), "config needs a 'monodromy' object")
    loop = section.get("loop")
    _require(isinstance(loop, list) and len(loop) >= 3,
             "monodromy.loop must list at least three [jz, E] waypoints")
    for wp in loop:
        _require(isinstance(wp, list) and len(wp) == 2,
                 "each waypoint must be a [jz, E] pair")
        _finite_real(wp[0], "waypoint jz")
        _finite_real(wp[1], "waypoint E")
    start_cfg = section.get("start")
    _require(isinstance(start_cfg, dict), "monodromy.start must be an object")
    _require("jz" in start_cfg and "n" in start_cfg,
             "monodromy.start needs 'jz' and 'n'")
    _require(isinstance(start_cfg["n"], int), "monodromy.start.n must be an integer")
    dn = start_cfg.get("dn")
    _require(dn is None or isinstance(dn, int),
             "monodromy.start.dn must be an integer or null")
    start = LatticeCell(jz=_finite_real(start_cfg["jz"], "monodromy.start.jz"),
                        n=start_cfg["n"], dn=dn)

    lattice = build_lattice(joint_spectrum(params))
    result = transport_cell(lattice, start, [(wp[0], wp[1]) for wp in loop])
    write_json(out_dir / "monodromy.json", {
        "A": params.A,
        "loop": loop,
        "basis": {
            "u": "one step up in energy within the same jz column",
            "v": f"one column step toward larger jz with level offset "
                 f"{result.start.dn} at the start cell",
        },
        "start": {"jz": result.start.jz, "n": result.start.n,
                  "dn": result.start.dn},
        "trace": [{"jz": c.jz, "n": c.n, "dn": c.dn} for c in result.trace],
        "matrix": [list(row) for row in result.matrix],
        "det": 1,
    })
    return EXIT_OK


def cmd_flow(config: dict, out_dir: Path) -> int:
    params = parse_params(config, need_a=False)
    section = config.get("flow")
    _require(isinstance(section, dict), "config needs a 'flow' object")
    a_points = section.get("a_points")
    _require(isinstance(a_points, list) and len(a_points) >= 2,
             "flow.a_points must list at least two A values")
    a_points = [_finite_real(a, "flow.a_points entry") for a in a_points]
    report = sweep_spectral_flow(params, a_points)
    n_bands = params.n_bands
    pairs = []
    for i, moves in enumerate(report.redistributions):
        pairs.append({
            "a_from": report.a_points[i],
            "a_to": report.a_points[i + 1],
            "redistributions": {f"{j}->{k}": count
                                for (j, k), count in sorted(moves.items())},
            "delta_n_by_band": {str(b): report.local_flows[i][b]
                                for b in range(n_bands)},
        })
    write_json(out_dir / "flow.json", {
        "a_points": list(report.a_points),
        "bands": n_bands,
        "local_flows": pairs,
        "global_delta_n_by_band": {str(b): report.global_flow[b]
                                   for b in range(n_bands)},
    })
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "chern": cmd_chern,
    "emmap": cmd_emmap,
    "dh": cmd_dh,
    "monodromy": cmd_monodromy,
    "flow": cmd_flow,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandflow",
        description="Band rearrangement toolkit: spectra, Chern numbers, "
                    "energy-momentum maps, and lattice monodromy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportAmbiguityError as exc:
        print(f"transport ambiguity: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BandAssignmentError, MeshTooCoarseError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first.
        print(f"refusal: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
