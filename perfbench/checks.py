"""Output checks against the oracle references, and corruptions that prove
each check can fail.

A checker reads one command's output directory and returns a list of
problems; an empty list means the output is correct.  Checks run outside
the timed phase.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

ENERGY_RTOL = 1e-11  # relative to the largest |E| at that A point
# Today's 2001-point scan misses the slice extrema of the workload's classical
# system by at most 1.1e-7 of the slice span (40 seeds); a refined extremum
# misses them by rounding only.  Both pass; a 1% error does not.
EMMAP_SPAN_RTOL = 1e-5
VALUE_RTOL = 1e-12


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _close(a, b, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= VALUE_RTOL * max(1.0, scale)))


def check_chern(out: Path, config: dict, ref: list) -> list[str]:
    n_bands = round(2 * config["params"]["S"]) + 1
    header, rows = _read_csv(out / "chern.csv")
    want = ["A"] + [f"ch_{b}" for b in range(n_bands)] + \
        ["min_gap", "valid", "message"]
    if header != want:
        return [f"chern.csv header {header}"]
    if len(rows) != len(ref):
        return [f"chern.csv has {len(rows)} rows, expected {len(ref)}"]
    errors = []
    for row, r in zip(rows, ref):
        a, cells, min_gap, valid = float(row[0]), row[1:1 + n_bands], \
            row[1 + n_bands], row[2 + n_bands]
        if not _close(a, r["A"], abs(r["A"])):
            errors.append(f"row A={a} expected A={r['A']}")
        elif r["chern"] is None:
            if valid != "false" or any(cells):
                errors.append(f"A={a}: wall point not refused ({row})")
        elif valid != "true" or [int(c) if c else None for c in cells] != r["chern"]:
            errors.append(f"A={a}: chern {cells} valid={valid}, "
                          f"expected {r['chern']}")
        elif not float(min_gap) >= r["min_field"] * (1 - 1e-9):
            errors.append(f"A={a}: min_gap {min_gap} below the analytic "
                          f"minimum {r['min_field']}")
    return errors


def check_spectrum(out: Path, config: dict, ref: list) -> list[str]:
    p = config["params"]
    header, rows = _read_csv(out / "spectrum.csv")
    if header != ["A", "jz", "n", "energy", "band", "is_edge"]:
        return [f"spectrum.csv header {header}"]
    if len(rows) != sum(len(r["energy"]) for r in ref):
        return [f"spectrum.csv has {len(rows)} rows"]
    cols = list(zip(*rows))
    a_col = np.array(cols[0], dtype=float)
    jz = np.array(cols[1], dtype=float)
    n = np.array(cols[2], dtype=int)
    energy = np.array(cols[3], dtype=float)
    band = np.array(cols[4], dtype=int)
    edge = np.array(cols[5]) == "true"
    errors = []
    if not np.array_equal(edge, np.abs(jz) > p["L"] - p["S"]):
        errors.append("is_edge disagrees with |jz| > L - S")
    for r in ref:
        at = np.flatnonzero(np.abs(a_col - r["A"]) <= VALUE_RTOL * max(1, abs(r["A"])))
        if len(at) != len(r["energy"]):
            errors.append(f"A={r['A']}: {len(at)} levels, expected {len(r['energy'])}")
            continue
        at = at[np.lexsort((n[at], jz[at]))]
        want_e = np.array(r["energy"])
        if not (np.array_equal(jz[at], r["jz"]) and np.array_equal(n[at], r["n"])):
            errors.append(f"A={r['A']}: (jz, n) sites differ from the oracle")
            continue
        tol = ENERGY_RTOL * float(np.max(np.abs(want_e)))
        worst = float(np.max(np.abs(energy[at] - want_e)))
        if worst > tol:
            errors.append(f"A={r['A']}: energy off by {worst:.3e} (tol {tol:.1e})")
        b, e = band[at], energy[at]
        counts = [int(np.sum(b == k)) for k in range(len(r["counts"]))]
        if counts != r["counts"]:
            errors.append(f"A={r['A']}: band counts {counts}, expected "
                          f"{r['counts']} = 2L+1 - Ch")
        elif any(e[b == k].max() >= e[b == k + 1].min()
                 for k in range(len(counts) - 1)):
            errors.append(f"A={r['A']}: bands overlap in energy")
    return errors


def check_flow(out: Path, config: dict, ref: dict) -> list[str]:
    doc = json.loads((out / "flow.json").read_text(encoding="utf-8"))
    n_bands = round(2 * config["params"]["S"]) + 1
    if doc["a_points"] != ref["a_points"] or doc["bands"] != n_bands:
        return [f"flow.json a_points/bands {doc['a_points']} {doc['bands']}"]
    if len(doc["local_flows"]) != len(ref["local"]):
        return [f"flow.json has {len(doc['local_flows'])} intervals"]
    errors = []
    for i, (pair, want) in enumerate(zip(doc["local_flows"], ref["local"])):
        got = [pair["delta_n_by_band"][str(b)] for b in range(n_bands)]
        moved = [0] * n_bands
        for key, count in pair["redistributions"].items():
            j, k = (int(x) for x in key.split("->"))
            moved[j] -= count
            moved[k] += count
        if got != want or moved != want:
            errors.append(f"interval {i}: flow {got} (moves give {moved}), "
                          f"expected -dCh = {want}")
    total = [doc["global_delta_n_by_band"][str(b)] for b in range(n_bands)]
    if total != ref["global"]:
        errors.append(f"global flow {total}, expected {ref['global']}")
    return errors


def check_emmap(out: Path, config: dict, ref: dict) -> list[str]:
    header, rows = _read_csv(out / "emmap.csv")
    if header != ["jz", "e_min", "e_max"] or len(rows) != len(ref["jz"]):
        return [f"emmap.csv header {header}, {len(rows)} rows"]
    got = np.array(rows, dtype=float)
    lo, hi = np.array(ref["e_min"]), np.array(ref["e_max"])
    scale = float(np.max(np.abs([lo, hi])))
    tol = EMMAP_SPAN_RTOL * (hi - lo) + VALUE_RTOL * scale
    errors = []
    if not _close(got[:, 0], ref["jz"], float(np.max(np.abs(ref["jz"])))):
        errors.append("emmap.csv jz column differs from the grid")
    worst = np.max(np.abs(got[:, 1:] - np.column_stack([lo, hi])) - tol[:, None])
    if worst > 0:
        errors.append(f"slice range outside tolerance by {worst:.3e}")
    doc = json.loads((out / "critical_values.json").read_text(encoding="utf-8"))
    want = ref["critical_values"]
    cvs = doc["critical_values"]
    if doc["A"] != config["params"]["A"] or len(cvs) != len(want):
        return errors + [f"critical_values.json A={doc['A']}, {len(cvs)} values"]
    for cv, w in zip(cvs, want):
        if not (_close(cv["jz"], w["jz"], abs(w["jz"]))
                and _close(cv["energy"], w["energy"], abs(w["energy"]))
                and cv["location"] == w["location"]):
            errors.append(f"critical value {cv}, expected {w}")
    return errors


def check_dh(out: Path, config: dict, ref: dict) -> list[str]:
    header, rows = _read_csv(out / "dh.csv")
    if header != ["jz", "volume"] or len(rows) != len(ref["jz"]):
        return [f"dh.csv header {header}, {len(rows)} rows"]
    got = np.array(rows, dtype=float)
    scale = float(np.max(np.abs(ref["jz"])))
    if not (_close(got[:, 0], ref["jz"], scale)
            and _close(got[:, 1], ref["volume"], scale)):
        return ["dh volume differs from the piecewise-linear profile"]
    return []


def check_monodromy(out: Path, config: dict, ref: dict) -> list[str]:
    doc = json.loads((out / "monodromy.json").read_text(encoding="utf-8"))
    first, last = doc["trace"][0], doc["trace"][-1]
    if doc["matrix"] != ref["matrix"] or doc["det"] != 1:
        return [f"monodromy matrix {doc['matrix']}, expected {ref['matrix']}"]
    if (first["jz"], first["n"]) != (last["jz"], last["n"]):
        return [f"transport did not close: {first} -> {last}"]
    return []


CHECKERS = {
    "chern": check_chern,
    "spectrum": check_spectrum,
    "flow": check_flow,
    "emmap": check_emmap,
    "dh": check_dh,
    "monodromy": check_monodromy,
}


def check(command, out: Path, exit_code, ref) -> list[str]:
    """All problems with one command's exit code and outputs."""
    if exit_code != command.expect_exit:
        return [f"exit code {exit_code}, expected {command.expect_exit}"]
    try:
        return CHECKERS[command.command](out, command.config, ref)
    except Exception as exc:  # any malformed output is a failed command
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# --- corruptions for the checker self-test --------------------------------

def _edit_csv(path: Path, edit) -> bool:
    """Apply ``edit`` to the rows; False when it found nothing to corrupt."""
    header, rows = _read_csv(path)
    if edit(header, rows) is False:
        return False
    _write_csv(path, header, rows)
    return True


def _edit_json(path: Path, edit) -> bool:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return True


def _flip_chern_sign(out: Path) -> bool:
    def edit(header, rows):
        for row in rows:
            for i, cell in enumerate(row[1:], start=1):
                if header[i].startswith("ch_") and cell not in ("", "0"):
                    row[i] = str(-int(cell))
                    return True
        return False
    return _edit_csv(out / "chern.csv", edit)


def _accept_refusal(out: Path) -> bool:
    def edit(header, rows):
        for row in rows:
            if row[header.index("valid")] == "false":
                row[header.index("valid")] = "true"
                return True
        return False
    return _edit_csv(out / "chern.csv", edit)


def _shift_energy(out: Path) -> bool:
    def edit(header, rows):
        row = rows[len(rows) // 2]
        row[3] = repr(float(row[3]) + 1e-6)
    return _edit_csv(out / "spectrum.csv", edit)


def _change_band(out: Path) -> bool:
    def edit(header, rows):
        row = rows[len(rows) // 3]
        n_bands = max(int(r[4]) for r in rows) + 1
        row[4] = str((int(row[4]) + 1) % n_bands)
    return _edit_csv(out / "spectrum.csv", edit)


def _wrong_matrix(out: Path) -> bool:
    def edit(doc):
        doc["matrix"] = [[1, 0], [1, 1]]
    return _edit_json(out / "monodromy.json", edit)


def _flip_flow(out: Path) -> bool:
    def edit(doc):
        pair = doc["local_flows"][0]
        pair["delta_n_by_band"]["0"] = -pair["delta_n_by_band"]["0"]
    return _edit_json(out / "flow.json", edit)


def _move_slice(out: Path) -> bool:
    def edit(header, rows):
        row = rows[len(rows) // 2]
        row[2] = repr(float(row[2]) + 0.01 * (float(row[2]) - float(row[1])))
    return _edit_csv(out / "emmap.csv", edit)


def _shift_volume(out: Path) -> bool:
    def edit(header, rows):
        row = rows[len(rows) // 2]
        row[1] = repr(float(row[1]) + 1e-6)
    return _edit_csv(out / "dh.csv", edit)


CORRUPTIONS = {
    "chern": [("flipped Chern sign", _flip_chern_sign)],
    "spectrum": [("energy shifted by 1e-6", _shift_energy),
                 ("changed band label", _change_band)],
    "flow": [("flipped flow", _flip_flow)],
    "emmap": [("slice maximum raised by 1% of the span", _move_slice)],
    "dh": [("volume shifted by 1e-6", _shift_volume)],
    "monodromy": [("wrong monodromy matrix", _wrong_matrix)],
}


def corruptions(command) -> list:
    """(name, corrupt) cases for one command's output."""
    if command.command == "chern" and command.expect_exit != 0:
        # A refusing command's rows have no Chern numbers to flip.
        return [("refused row marked valid", _accept_refusal)]
    return CORRUPTIONS[command.command]


def self_test(command, out: Path, exit_code, ref, scratch: Path) -> list[str]:
    """Corruptions of a good output that the checker accepted or that found
    nothing to corrupt."""
    missed = []
    for name, corrupt in corruptions(command):
        copy = scratch / command.label
        shutil.copytree(out, copy)
        try:
            if not corrupt(copy):
                missed.append(f"{command.label}: {name} found nothing to "
                              "corrupt")
            elif not check(command, copy, exit_code, ref):
                missed.append(f"{command.label}: {name}")
        finally:
            shutil.rmtree(copy)
    return missed
