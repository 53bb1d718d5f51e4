"""Semi-quantum matrix Hamiltonian on the sphere and Chern numbers per band.

The slow variables live on the unit sphere; the fast ones stay quantum, so
the Hamiltonian is a (2S+1)x(2S+1) Hermitian matrix field over S^2.  Chern
numbers of the eigenline bundles are computed by the discrete Berry-phase
plaquette method on a closed polygonal mesh: the per-face phase of the
product of link overlaps sums to 2*pi times an exact integer once the mesh
resolves the gap structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import eigh, spin_operators
from .params import PhysParams
from .spectrum import BandDecomposition

DEFAULT_GAP_RTOL = 1e-8
DEFAULT_RESIDUAL_TOL = 0.05


class MeshTooCoarseError(RuntimeError):
    """Plaquette phases failed to round to integers; refine the mesh."""


@dataclass(frozen=True)
class SphereMesh:
    """Closed oriented mesh of the unit sphere.

    Latitude-longitude grid with quad faces between rings and triangle fans
    closing each pole on a single vertex, so eigenvectors stay single-valued
    at the poles.  All faces share the same orientation.
    """

    n_theta: int
    n_phi: int
    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def refined(self) -> "SphereMesh":
        """One subdivision level: double both angular resolutions."""
        return sphere_mesh(2 * self.n_theta, 2 * self.n_phi)


def sphere_mesh(n_theta: int = 64, n_phi: int = 64) -> SphereMesh:
    """Build the pole-closed latitude-longitude mesh."""
    if n_theta < 2 or n_phi < 3:
        raise ValueError("need n_theta >= 2 and n_phi >= 3")
    north = 0
    south = 1 + (n_theta - 1) * n_phi
    verts = np.empty((south + 1, 3))
    verts[north] = (0.0, 0.0, 1.0)
    verts[south] = (0.0, 0.0, -1.0)
    thetas = np.pi * np.arange(1, n_theta) / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi

    def ring(i):
        return 1 + (i - 1) * n_phi

    for i, th in enumerate(thetas, start=1):
        st, ct = math.sin(th), math.cos(th)
        base = ring(i)
        verts[base:base + n_phi, 0] = st * np.cos(phis)
        verts[base:base + n_phi, 1] = st * np.sin(phis)
        verts[base:base + n_phi, 2] = ct

    # Faces are wound clockwise as seen from outside the sphere, which makes
    # the plaquette phase sum equal 2*pi times the Chern number directly
    # (lower band of the two-level model comes out +1).
    faces: list[tuple[int, ...]] = []
    for j in range(n_phi):
        jn = (j + 1) % n_phi
        faces.append((north, ring(1) + jn, ring(1) + j))
    for i in range(1, n_theta - 1):
        for j in range(n_phi):
            jn = (j + 1) % n_phi
            faces.append((ring(i) + jn, ring(i + 1) + jn, ring(i + 1) + j, ring(i) + j))
    last = ring(n_theta - 1)
    for j in range(n_phi):
        jn = (j + 1) % n_phi
        faces.append((south, last + j, last + jn))
    return SphereMesh(n_theta=n_theta, n_phi=n_phi, vertices=verts, faces=tuple(faces))


def check_closed_oriented(mesh: SphereMesh) -> None:
    """Assert the mesh is a closed oriented surface with Euler characteristic 2."""
    seen: dict[tuple[int, int], int] = {}
    for face in mesh.faces:
        for a, b in zip(face, face[1:] + face[:1]):
            if a == b:
                raise ValueError(f"degenerate edge in face {face}")
            seen[(a, b)] = seen.get((a, b), 0) + 1
    for (a, b), count in seen.items():
        if count != 1 or seen.get((b, a), 0) != 1:
            raise ValueError(f"edge ({a},{b}) not shared by exactly two opposite faces")
    n_edges = len(seen) // 2
    euler = mesh.n_vertices - n_edges + len(mesh.faces)
    if euler != 2:
        raise ValueError(f"Euler characteristic {euler} != 2")


def h_semiquantum(point, params: PhysParams) -> np.ndarray:
    """Evaluate the matrix Hamiltonian at a point of the unit sphere.

    H(x) = 2 S_z (A + delta*x3 + d*x3^2) + gamma (x1 + i x2) S_-
    + conj(gamma) (x1 - i x2) S_+, tridiagonal in the m = S .. -S basis.
    A point of shape (3,) gives one (2S+1, 2S+1) matrix; a stack of shape
    (n, 3) gives the (n, 2S+1, 2S+1) stack of matrices.
    """
    x = np.asarray(point, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError(f"expected a point of shape (3,) or (n, 3), got {x.shape}")
    r2 = np.sum(x * x, axis=-1)
    off_sphere = r2[np.abs(r2 - 1.0) > 1e-12]
    if off_sphere.size:
        raise ValueError(
            f"point must lie on the unit sphere, |x|^2 = {float(off_sphere[0])!r}")
    ops = spin_operators(params.S)
    # Trailing axes broadcast each coordinate against the spin matrices.
    x1, x2, x3 = (x[..., i, None, None] for i in range(3))
    f = params.A + params.delta * x3 + params.d * x3 * x3
    w = params.gamma * (x1 + 1j * x2)
    return 2.0 * f * ops.sz + w * ops.sminus + np.conj(w) * ops.splus


@dataclass(frozen=True)
class DegeneracyPoint:
    """Control-parameter value and pole at which the matrix spectrum collapses."""

    A: float
    pole: str  # "north" or "south"


def degeneracy_scan(params: PhysParams, a_min: float, a_max: float,
                    verify_atol: float = 1e-9) -> list[DegeneracyPoint]:
    """Locate the degeneracy walls inside [a_min, a_max].

    Away from the poles the coupling term keeps the eigenvalues apart for
    gamma != 0, so degeneracies sit at x3 = +1 when A = -d - delta and at
    x3 = -1 when A = -d + delta.  Each returned wall is verified by
    evaluating the spectrum at its pole.
    """
    if params.gamma == 0:
        raise ValueError("gamma must be nonzero; at gamma = 0 the degeneracy set "
                         "is not isolated")
    if a_max < a_min:
        raise ValueError("empty A range")
    candidates = [
        (-params.d - params.delta, "north", np.array([0.0, 0.0, 1.0])),
        (-params.d + params.delta, "south", np.array([0.0, 0.0, -1.0])),
    ]
    found = []
    for a_star, pole, x in candidates:
        if a_min <= a_star <= a_max:
            h = h_semiquantum(x, replace(params, A=a_star))
            values = eigh(h).values
            spread = float(values[-1] - values[0]) if len(values) > 1 else 0.0
            if spread > verify_atol:
                raise AssertionError(
                    f"expected full degeneracy at A={a_star} ({pole}); "
                    f"eigenvalue spread {spread:.3e}"
                )
            found.append(DegeneracyPoint(A=float(a_star), pole=pole))
    found.sort(key=lambda dp: (dp.A, dp.pole))
    return found


@dataclass(frozen=True)
class ChernReport:
    """Integer Chern numbers per band (ascending energy) at one A value.

    ``valid`` is False when the eigenvalue gap somewhere on the mesh fell
    below tolerance, in which case ``chern`` is None and ``message`` names
    the offending vertex.
    """

    A: float
    chern: Optional[tuple[int, ...]]
    min_gap: float
    valid: bool
    message: str = ""


def _band_vectors(params: PhysParams, mesh: SphereMesh):
    """Eigensolve all vertices at once; return (vectors, min_gap, argmin vertex, scale)."""
    decomp = eigh(h_semiquantum(mesh.vertices, params))
    max_abs = float(np.max(np.abs(decomp.values)))
    if params.n_bands == 1:
        return decomp.vectors, np.inf, -1, max_abs
    gaps = np.min(np.diff(decomp.values, axis=-1), axis=-1)
    min_at = int(np.argmin(gaps))
    return decomp.vectors, float(gaps[min_at]), min_at, max_abs


def chern_numbers(params: PhysParams, mesh: SphereMesh,
                  gap_rtol: float = DEFAULT_GAP_RTOL,
                  residual_tol: float = DEFAULT_RESIDUAL_TOL) -> ChernReport:
    """Chern number of every eigenline bundle by the plaquette method.

    For band n the number is (1/2pi) * sum over faces of the phase of the
    product of link overlaps <v_n(p_i)|v_n(p_j)> around the oriented face.
    The result must round to an integer within ``residual_tol`` on every
    band, otherwise the mesh is too coarse.  Near a degeneracy wall the gap
    check refuses to produce numbers instead of guessing.
    """
    if params.gamma == 0:
        raise ValueError("gamma must be nonzero for isolated degeneracies")
    vectors, min_gap, min_at, max_abs = _band_vectors(params, mesh)
    gap_tol = gap_rtol * max_abs
    if params.n_bands > 1 and min_gap <= gap_tol:
        x = mesh.vertices[min_at]
        return ChernReport(
            A=params.A, chern=None, min_gap=min_gap, valid=False,
            message=(f"eigenvalue gap {min_gap:.3e} at vertex {min_at} "
                     f"(x = {x[0]:+.4f}, {x[1]:+.4f}, {x[2]:+.4f}) is below "
                     f"tolerance {gap_tol:.3e}; A may sit on a wall"),
        )

    faces_by_arity: dict[int, np.ndarray] = {}
    for face in mesh.faces:
        faces_by_arity.setdefault(len(face), []).append(face)
    faces_by_arity = {k: np.array(v) for k, v in faces_by_arity.items()}

    chern = []
    residual_max = 0.0
    for band in range(params.n_bands):
        vecs = vectors[:, :, band]
        total = 0.0
        for arity, face_idx in faces_by_arity.items():
            prod = np.ones(face_idx.shape[0], dtype=np.complex128)
            for e in range(arity):
                a = face_idx[:, e]
                b = face_idx[:, (e + 1) % arity]
                prod *= np.sum(np.conj(vecs[a]) * vecs[b], axis=1)
            if np.any(np.abs(prod) < 1e-300):
                raise MeshTooCoarseError(
                    f"vanishing link overlap on band {band}; refine the mesh"
                )
            angles = np.angle(prod)
            # Per-face phases are only defined mod 2*pi; they must stay well
            # clear of the branch cut or the flux total is untrustworthy.
            worst = float(np.max(np.abs(angles)))
            if worst > 0.5 * np.pi:
                raise MeshTooCoarseError(
                    f"plaquette phase {worst:.3f} rad on band {band} is too "
                    f"close to the branch cut; refine the mesh"
                )
            total += float(np.sum(angles))
        value = total / (2.0 * np.pi)
        nearest = round(value)
        residual_max = max(residual_max, abs(value - nearest))
        chern.append(int(nearest))

    if residual_max >= residual_tol:
        raise MeshTooCoarseError(
            f"plaquette sums miss integers by {residual_max:.3f} "
            f"(tolerance {residual_tol}); refine the mesh"
        )
    if sum(chern) != 0:
        raise MeshTooCoarseError(
            f"band Chern numbers {chern} do not sum to zero; refine the mesh"
        )
    return ChernReport(A=params.A, chern=tuple(chern), min_gap=float(min_gap),
                       valid=True)


def delta_chern(before: ChernReport, after: ChernReport) -> tuple[int, ...]:
    """Componentwise Chern change across a wall: after minus before."""
    if not (before.valid and after.valid):
        raise ValueError("delta-Chern needs two valid reports")
    if len(before.chern) != len(after.chern):
        raise ValueError(
            f"band count mismatch: {len(before.chern)} vs {len(after.chern)}"
        )
    return tuple(b - a for a, b in zip(before.chern, after.chern))


@dataclass(frozen=True)
class BandCount:
    band: int
    n_levels: int
    chern: int
    expected: int
    ok: bool


@dataclass(frozen=True)
class CountingReport:
    """Check of N_b = 2L + 1 - Ch_b, band by band."""

    rows: tuple[BandCount, ...]
    conclusive: bool
    ok: bool
    message: str = ""


def verify_counting(params: PhysParams, chern: ChernReport,
                    bands: BandDecomposition) -> CountingReport:
    """Compare quantum band populations against 2L + 1 minus the Chern numbers."""
    if not chern.valid:
        return CountingReport(rows=(), conclusive=False, ok=False,
                              message="Chern report is invalid (gap refusal)")
    if bands.unassigned:
        return CountingReport(rows=(), conclusive=False, ok=False,
                              message=f"{len(bands.unassigned)} unassigned level(s)")
    if len(bands.bands) != len(chern.chern):
        return CountingReport(
            rows=(), conclusive=False, ok=False,
            message=f"band count mismatch: {len(bands.bands)} bands vs "
                    f"{len(chern.chern)} Chern entries")
    rows = []
    for b, band in enumerate(bands.bands):
        expected = 2 * params.L + 1 - chern.chern[b]
        rows.append(BandCount(band=b, n_levels=len(band), chern=chern.chern[b],
                              expected=expected, ok=len(band) == expected))
    return CountingReport(rows=tuple(rows), conclusive=True,
                          ok=all(r.ok for r in rows))
