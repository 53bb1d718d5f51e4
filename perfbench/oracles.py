"""Reference answers for every benchmark command, built without bandflow.

Nothing here imports the package under test.  The Chern numbers come from
the field form H(x) = B(x).S, whose eigenvalues are m|B|; the L=60 spectra
from a dense Kronecker Hamiltonian solved by LAPACK; the S=1/2 spectra
from the closed-form 2x2 block eigenvalues; the energy-momentum slice
ranges from a scan refined by golden-section search; and the reduced
volume from its piecewise-linear closed form.

Run as a script it writes the references of one seeded workload to a JSON
file, so the dense matrices never count toward the benchmark's own memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SCAN_POINTS = 1025
GOLDEN_STEPS = 90
INTERIOR_MARGIN_RTOL = 1e-6


def _gamma(p: dict) -> complex:
    return complex(p["gamma_re"], p["gamma_im"])


def _f(p: dict, A: float, m):
    return A + p["delta"] * m + p["d"] * m * m


def degree(p: dict, A: float, radius: float) -> int:
    """(sgn f_N - sgn f_S)/2 for f evaluated at M = +-radius."""
    north, south = _f(p, A, radius), _f(p, A, -radius)
    return round((np.sign(north) - np.sign(south)) / 2)


def chern(p: dict, A: float, radius: float = 1.0) -> list[int]:
    """Ch_b = 2(S - b) deg; radius 1 is the unit sphere, radius L the
    quantum system, whose walls sit at A = -d L^2 -+ delta L."""
    deg = degree(p, A, radius)
    n_bands = round(2 * p["S"]) + 1
    return [round(2 * (p["S"] - b)) * deg for b in range(n_bands)]


def min_field(p: dict, A: float) -> float:
    """min over the unit sphere of |B| = 2 sqrt(|gamma|^2 (1 - z^2) + f(z)^2)."""
    g2 = abs(_gamma(p)) ** 2
    a, dl, dd = A, p["delta"], p["d"]
    # d/dz of |gamma|^2 (1 - z^2) + (a + dl z + dd z^2)^2, a cubic in z.
    cubic = [4 * dd * dd, 6 * dl * dd, 2 * dl * dl + 4 * a * dd - 2 * g2,
             2 * a * dl]
    roots = [r.real for r in np.roots(cubic) if abs(r.imag) < 1e-12]
    zs = np.array([-1.0, 1.0] + [r for r in roots if -1.0 <= r <= 1.0])
    return float(2.0 * np.sqrt(np.min(g2 * (1 - zs ** 2) + _f(p, A, zs) ** 2)))


def _spin(j: float):
    """(S_z, S_+) in the basis m = j, j-1, ..., -j."""
    dim = round(2 * j) + 1
    m = j - np.arange(dim)
    splus = np.zeros((dim, dim))
    splus[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(
        j * (j + 1) - m[1:] * (m[1:] + 1))
    return np.diag(m), splus


def dense_blocks(p: dict, A: float):
    """Per-J_z eigenvalues of the Kronecker-product Hamiltonian."""
    sz, sp = _spin(p["S"])
    lz, lp = _spin(float(p["L"]))
    f = A * np.eye(len(lz)) + p["delta"] * lz + p["d"] * lz @ lz
    g = _gamma(p)
    h = (2.0 * np.kron(sz, f) + g * np.kron(sp.T, lp)
         + np.conj(g) * np.kron(sp, lp.T))
    jz = np.round(np.add.outer(np.diag(sz), np.diag(lz)).ravel() * 2) / 2
    out = []
    for value in np.unique(jz):
        idx = np.flatnonzero(jz == value)
        out.append((float(value), np.linalg.eigvalsh(h[np.ix_(idx, idx)])))
    return out


def two_level_blocks(p: dict, A: float):
    """Closed-form S=1/2 block eigenvalues: (-1/2, jz+1/2) with (+1/2, jz-1/2)."""
    L = p["L"]
    jz = np.arange(-L + 0.5, L)
    a = -_f(p, A, jz + 0.5)
    b = _f(p, A, jz - 0.5)
    c2 = abs(_gamma(p)) ** 2 * (L * (L + 1) - jz * jz + 0.25)
    mid, rad = (a + b) / 2, np.sqrt(((a - b) / 2) ** 2 + c2)
    out = [(-L - 0.5, np.array([-_f(p, A, -L)]))]
    out += [(float(j), np.array([lo, hi]))
            for j, lo, hi in zip(jz, mid - rad, mid + rad)]
    out.append((L + 0.5, np.array([_f(p, A, L)])))
    return out


def spectrum_reference(config: dict) -> list[dict]:
    p = config["params"]
    blocks = two_level_blocks if p["S"] == 0.5 else dense_blocks
    refs = []
    for A in config["a_grid"]:
        jz, n, energy = [], [], []
        for value, es in blocks(p, A):
            jz += [value] * len(es)
            n += list(range(len(es)))
            energy += [float(e) for e in es]
        counts = [2 * p["L"] + 1 - ch for ch in chern(p, A, p["L"])]
        refs.append({"A": A, "jz": jz, "n": n, "energy": energy,
                     "counts": counts})
    return refs


def flow_reference(config: dict) -> dict:
    p, a = config["params"], config["flow"]["a_points"]
    ch = [chern(p, A, p["L"]) for A in a]
    local = [[-(after - before) for before, after in zip(c0, c1)]
             for c0, c1 in zip(ch, ch[1:])]
    return {"a_points": a, "local": local,
            "global": [sum(col) for col in zip(*local)]}


def chern_reference(config: dict) -> list[dict]:
    p = config["params"]
    refs = []
    for A in config["a_grid"]:
        wall = min(abs(_f(p, A, 1.0)), abs(_f(p, A, -1.0))) < 1e-9
        refs.append({"A": A, "chern": None if wall else chern(p, A),
                     "min_field": min_field(p, A)})
    return refs


def _slice_extrema(p: dict, jz: np.ndarray):
    """Exact (E_min, E_max) per J_z slice: scan, then golden-section refine."""
    s, l = p["S"], float(p["L"])
    amp = 2.0 * abs(_gamma(p))
    lo = np.maximum(-s, jz - l)[:, None]
    hi = np.minimum(s, jz + l)[:, None]

    def energy(t, sign):
        sz = lo + (hi - lo) * t
        lz = jz[:, None] - sz
        rho = np.sqrt(np.maximum((s * s - sz * sz) * (l * l - lz * lz), 0.0))
        return 2.0 * sz * _f(p, p["A"], lz) + sign * amp * rho

    grid = np.linspace(0.0, 1.0, SCAN_POINTS)[None, :]
    rows = np.arange(len(jz))
    out = []
    for sign in (-1.0, 1.0):
        # Maximize sign * energy for the upper branch, -energy for the lower.
        scan = sign * energy(grid, sign)
        k = np.argmax(scan, axis=1)
        a = grid[0, np.maximum(k - 1, 0)][:, None]
        b = grid[0, np.minimum(k + 1, SCAN_POINTS - 1)][:, None]
        for _ in range(GOLDEN_STEPS):
            c = b - GOLDEN * (b - a)
            e = a + GOLDEN * (b - a)
            left = sign * energy(c, sign) > sign * energy(e, sign)
            b = np.where(left, e, b)
            a = np.where(left, a, c)
        best = np.maximum(scan[rows, k], sign * energy((a + b) / 2, sign)[:, 0])
        out.append(sign * best)
    return out[0], out[1]


def emmap_reference(config: dict) -> dict:
    p, grid = config["params"], config["jz_grid"]
    jz = np.linspace(grid["start"], grid["stop"], grid["num"])
    e_min, e_max = np.empty_like(jz), np.empty_like(jz)
    for i in range(0, len(jz), 256):
        e_min[i:i + 256], e_max[i:i + 256] = _slice_extrema(p, jz[i:i + 256])
    s, l = p["S"], float(p["L"])
    critical = []
    for sz in (s, -s):
        for lz in (l, -l):
            energy = 2.0 * sz * _f(p, p["A"], lz)
            (lo,), (hi,) = _slice_extrema(p, np.array([sz + lz]))
            span = hi - lo
            margin = INTERIOR_MARGIN_RTOL * span
            interior = bool(lo + margin < energy < hi - margin)
            clearance = min(energy - lo, hi - energy) / span if span else 0.0
            critical.append({"jz": sz + lz, "energy": energy,
                             "location": "interior" if interior else "boundary",
                             "clearance": clearance})
    critical.sort(key=lambda cv: (cv["jz"], cv["energy"]))
    return {"jz": jz.tolist(), "e_min": e_min.tolist(),
            "e_max": e_max.tolist(), "critical_values": critical}


def dh_reference(config: dict) -> dict:
    p, grid = config["params"], config["jz_grid"]
    s, l = p["S"], float(p["L"])
    jz = np.linspace(grid["start"], grid["stop"], grid["num"])
    volume = np.clip(np.minimum(2 * min(s, l), l + s - np.abs(jz)), 0.0, None)
    return {"jz": jz.tolist(), "volume": volume.tolist()}


MONODROMY_MATRIX = [[1, 0], [-1, 1]]

REFERENCES = {
    "chern": chern_reference,
    "spectrum": spectrum_reference,
    "flow": flow_reference,
    "emmap": emmap_reference,
    "dh": dh_reference,
    "monodromy": lambda config: {"matrix": MONODROMY_MATRIX},
}


def reference(workload: workloads.Workload) -> dict:
    """label -> reference answer for every command of the workload."""
    return {cmd.label: REFERENCES[cmd.command](cmd.config)
            for cmd in workload.commands}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    refs = reference(workloads.build(args.workload, args.seed))
    Path(args.out).write_text(json.dumps(refs), encoding="utf-8")


if __name__ == "__main__":
    main()
