"""Dense complex Hermitian matrices, spin operator construction, and the
LAPACK eigensolver every layer uses for its small blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITIAN_ATOL = 1e-12


def hermitian_matrix(entries, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate a square complex matrix, or a ``(..., n, n)`` stack of them,
    as Hermitian and return it symmetrized.

    Rejects non-square input, non-finite entries, and any matrix whose
    anti-Hermitian part exceeds ``atol`` in absolute value.
    """
    h = np.asarray(entries, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    h_dag = np.swapaxes(h, -1, -2).conj()
    defect = np.max(np.abs(h - h_dag)) if h.size else 0.0
    if defect > atol:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}")
    return 0.5 * (h + h_dag)


@dataclass(frozen=True)
class SpinOperators:
    """Spin-j operator matrices in the basis |j, m> with m = j, j-1, ..., -j."""

    j: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray

    @property
    def dim(self) -> int:
        return round(2 * self.j) + 1


def spin_operators(j) -> SpinOperators:
    """Build the standard ladder representation of the spin-j operators.

    The basis is ordered by decreasing magnetic quantum number, so ``sz`` is
    diagonal with entries j, j-1, ..., -j and ``splus`` couples m to m+1 with
    matrix element sqrt(j(j+1) - m(m+1)).
    """
    jj = float(j)
    two_j = 2.0 * jj
    if jj < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"j must be a non-negative integer or half-integer, got {j}")
    dim = round(two_j) + 1
    m = jj - np.arange(dim)
    sz = np.diag(m).astype(np.complex128)
    splus = np.zeros((dim, dim), dtype=np.complex128)
    if dim > 1:
        # splus[i-1, i] = <m+1|S+|m> for m = m[i]
        raising = np.sqrt(jj * (jj + 1.0) - m[1:] * (m[1:] + 1.0))
        splus[np.arange(dim - 1), np.arange(1, dim)] = raising
    sminus = splus.conj().T
    sx = 0.5 * (splus + sminus)
    sy = -0.5j * (splus - sminus)
    return SpinOperators(j=jj, sx=sx, sy=sy, sz=sz, splus=splus, sminus=sminus)


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(entries, atol: float = HERMITIAN_ATOL) -> EigenDecomposition:
    """Diagonalize a complex Hermitian matrix, or a ``(..., n, n)`` stack of
    them, in one LAPACK call.

    ``values[..., k]`` ascend along the last axis and ``vectors[..., :, k]``
    is the matching orthonormal eigenvector.  Identical input gives identical
    output on the same machine and BLAS build.
    """
    values, vectors = np.linalg.eigh(hermitian_matrix(entries, atol=atol))
    return EigenDecomposition(values=values, vectors=vectors)
