"""Quantum joint spectra of (H, J_z), band assignment, and spectral flow.

The Hamiltonian H = 2 S_z (A + delta L_z + d L_z^2) + gamma S_- L_+
+ conj(gamma) S_+ L_- commutes with J_z = L_z + S_z, so it splits into one
block per J_z eigenvalue.  Each block is tridiagonal in the (k, M_L) basis
with k + M_L = J_z, which keeps every eigensolve tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linalg import eigh, hermitian_matrix
from .params import PhysParams


class BandAssignmentError(RuntimeError):
    """Band decomposition left levels unassigned where the caller needs it clean."""


def jz_values(params: PhysParams) -> np.ndarray:
    """All J_z eigenvalues, -(L+S) .. (L+S) in steps of one."""
    lo = -(params.L + params.S)
    return lo + np.arange(round(2 * (params.L + params.S)) + 1)


@dataclass(frozen=True)
class JzBlock:
    """One invariant block of the Hamiltonian at a fixed J_z eigenvalue.

    ``basis`` lists (k, M_L) pairs with k ascending; ``matrix`` is the
    Hermitian block in that basis.
    """

    jz: float
    basis: tuple[tuple[float, float], ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def jz_blocks(params: PhysParams) -> list[JzBlock]:
    """Block-diagonalize the Hamiltonian over the J_z eigenspaces.

    Diagonal entries are 2k(A + delta*M + d*M^2); the coupling between
    (k, M) and (k+1, M-1) is gamma * sqrt(S(S+1)-k(k+1)) * sqrt(L(L+1)-M(M-1)).
    """
    L, S = params.L, params.S
    gamma = params.gamma
    blocks = []
    for jz in jz_values(params):
        k_lo = max(-S, jz - L)
        k_hi = min(S, jz + L)
        ks = k_lo + np.arange(round(k_hi - k_lo) + 1)
        basis = tuple((float(k), float(jz - k)) for k in ks)
        dim = len(basis)
        h = np.zeros((dim, dim), dtype=np.complex128)
        for i, (k, m) in enumerate(basis):
            h[i, i] = 2.0 * k * (params.A + params.delta * m + params.d * m * m)
            if i + 1 < dim:
                coupling = gamma * math.sqrt(S * (S + 1) - k * (k + 1)) * math.sqrt(
                    L * (L + 1) - m * (m - 1)
                )
                h[i, i + 1] = coupling
                h[i + 1, i] = np.conj(coupling)
        blocks.append(JzBlock(jz=float(jz), basis=basis, matrix=hermitian_matrix(h)))
    return blocks


class Level(NamedTuple):
    """A joint-spectrum level: block label jz, index n within the block, energy."""

    jz: float
    n: int
    energy: float


@dataclass(frozen=True)
class JointSpectrum:
    """All (jz, n, E) levels of the Hamiltonian at one parameter point."""

    params: PhysParams
    levels: tuple[Level, ...]

    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    def column(self, jz: float) -> np.ndarray:
        """Ascending energies of the block with the given jz."""
        es = [lv.energy for lv in self.levels if lv.jz == jz]
        return np.array(sorted(es))


def joint_spectrum(params: PhysParams) -> JointSpectrum:
    """Eigensolve every J_z block and tag each level with its (jz, n) address.

    Blocks of equal dimension are stacked and solved in one ``eigh`` call.
    """
    blocks = jz_blocks(params)
    by_dim: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_dim.setdefault(block.dim, []).append(i)
    values = [None] * len(blocks)
    for members in by_dim.values():
        stacked = eigh(np.stack([blocks[i].matrix for i in members])).values
        for i, block_values in zip(members, stacked):
            values[i] = block_values
    levels = tuple(Level(jz=block.jz, n=n, energy=float(energy))
                   for block, block_values in zip(blocks, values)
                   for n, energy in enumerate(block_values))
    return JointSpectrum(params=params, levels=levels)


@dataclass(frozen=True)
class BandDecomposition:
    """Levels grouped into 2S+1 bands by the largest spectral gaps.

    ``bands[b]`` is the b-th band in ascending energy.  Levels bordering a
    split gap that is too small to trust end up in ``unassigned``.
    """

    bands: tuple[tuple[Level, ...], ...]
    unassigned: tuple[Level, ...]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(band) for band in self.bands)

    def band_by_site(self) -> dict[tuple[float, int], int]:
        """Map (jz, n) to band label, for assigned levels only."""
        out: dict[tuple[float, int], int] = {}
        for b, band in enumerate(self.bands):
            for lv in band:
                out[(lv.jz, lv.n)] = b
        return out


def assign_bands(spec: JointSpectrum, gap_rtol: float = 1e-6) -> BandDecomposition:
    """Split the sorted spectrum into 2S+1 bands at the 2S largest gaps.

    A split whose gap is below gap_rtol times the spectral width is considered
    unreliable; the two levels adjacent to it are reported as unassigned
    instead of being forced into a band.
    """
    n_bands = spec.params.n_bands
    order = sorted(spec.levels, key=lambda lv: (lv.energy, lv.jz, lv.n))
    if n_bands == 1 or len(order) < 2:
        return BandDecomposition(bands=(tuple(order),), unassigned=())

    energies = np.array([lv.energy for lv in order])
    gaps = np.diff(energies)
    width = float(energies[-1] - energies[0])
    gap_tol = gap_rtol * width
    # Stable argsort on the negated gaps: ties break toward lower energy.
    split_at = np.sort(np.argsort(-gaps, kind="stable")[: n_bands - 1])

    dropped = set()
    for pos in split_at:
        if gaps[pos] < gap_tol:
            dropped.add(pos)
            dropped.add(pos + 1)

    bands = []
    start = 0
    for pos in split_at:
        bands.append(tuple(order[i] for i in range(start, pos + 1) if i not in dropped))
        start = pos + 1
    bands.append(tuple(order[i] for i in range(start, len(order)) if i not in dropped))
    unassigned = tuple(order[i] for i in sorted(dropped))
    return BandDecomposition(bands=tuple(bands), unassigned=unassigned)


@dataclass(frozen=True)
class SpectralFlowReport:
    """Per-wall level redistributions and the resulting band-count changes.

    ``redistributions[i]`` counts levels moving from band j to band k between
    a_points[i] and a_points[i+1]; ``local_flows[i][b]`` is the net change of
    band b's level count over that interval, and ``global_flow`` the sum over
    all intervals.  Flow vectors are indexed by the band label b = 0 .. 2S.
    """

    a_points: tuple[float, ...]
    redistributions: tuple[dict[tuple[int, int], int], ...]
    local_flows: tuple[tuple[int, ...], ...]
    global_flow: tuple[int, ...]


def sweep_spectral_flow(params: PhysParams, a_points) -> SpectralFlowReport:
    """Track band membership of every (jz, n) level across an ascending A sweep.

    Within a block, levels never cross, so (jz, n) is a stable identity; a
    change of band label between consecutive A points is one unit of
    redistribution.  Every A point must yield a clean band decomposition.
    """
    a_points = tuple(float(a) for a in a_points)
    if len(a_points) < 2:
        raise ValueError("need at least two A points to measure spectral flow")
    if any(a2 <= a1 for a1, a2 in zip(a_points, a_points[1:])):
        raise ValueError("A points must be strictly ascending")

    n_bands = params.n_bands
    site_maps = []
    for a in a_points:
        decomp = assign_bands(joint_spectrum(replace(params, A=a)))
        if decomp.unassigned:
            sites = [(lv.jz, lv.n) for lv in decomp.unassigned]
            raise BandAssignmentError(
                f"band assignment at A={a} left {len(sites)} level(s) unassigned "
                f"(sites {sites}); pick representative points away from walls"
            )
        site_maps.append(decomp.band_by_site())

    redistributions = []
    local_flows = []
    for before, after in zip(site_maps, site_maps[1:]):
        moves: dict[tuple[int, int], int] = {}
        for site, b_from in before.items():
            b_to = after[site]
            if b_to != b_from:
                moves[(b_from, b_to)] = moves.get((b_from, b_to), 0) + 1
        delta = [0] * n_bands
        for (b_from, b_to), count in moves.items():
            delta[b_from] -= count
            delta[b_to] += count
        redistributions.append(moves)
        local_flows.append(tuple(delta))

    global_flow = tuple(int(sum(col)) for col in zip(*local_flows))
    return SpectralFlowReport(
        a_points=a_points,
        redistributions=tuple(redistributions),
        local_flows=tuple(local_flows),
        global_flow=global_flow,
    )
