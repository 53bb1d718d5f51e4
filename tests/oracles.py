"""Independent reference constructions used by the tests only.

Everything here deliberately avoids the production code paths: the dense
Hamiltonian is assembled via Kronecker products and diagonalized with
LAPACK, the block eigensolves have a LAPACK-free cyclic Jacobi reference,
the two-level block spectra and the semi-quantum Chern numbers come from
closed forms, and the classical checks use plain Monte Carlo sampling.
"""

from __future__ import annotations

import math

import numpy as np

from bandflow.linalg import spin_operators
from bandflow.params import PhysParams


def dense_hamiltonian(params: PhysParams) -> np.ndarray:
    """Full (2S+1)(2L+1) Hamiltonian, no block structure."""
    s_ops = spin_operators(params.S)
    l_ops = spin_operators(params.L)
    eye_l = np.eye(l_ops.dim)
    f = params.A * eye_l + params.delta * l_ops.sz + params.d * (l_ops.sz @ l_ops.sz)
    return (2.0 * np.kron(s_ops.sz, f)
            + params.gamma * np.kron(s_ops.sminus, l_ops.splus)
            + np.conj(params.gamma) * np.kron(s_ops.splus, l_ops.sminus))


def dense_jz(params: PhysParams) -> np.ndarray:
    s_ops = spin_operators(params.S)
    l_ops = spin_operators(params.L)
    return np.kron(s_ops.sz, np.eye(l_ops.dim)) + np.kron(np.eye(s_ops.dim), l_ops.sz)


def dense_spectrum(params: PhysParams) -> np.ndarray:
    return np.linalg.eigvalsh(dense_hamiltonian(params))


class JacobiConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the convergence threshold."""


JACOBI_RTOL = 1e-13


def _offdiag_norm(h: np.ndarray) -> float:
    off = h - np.diag(np.diag(h))
    return float(np.linalg.norm(off))


def jacobi_eigh(h: np.ndarray, max_sweeps: int = 40):
    """Diagonalize one Hermitian matrix by cyclic Jacobi rotations.

    Returns (ascending values, eigenvector columns).  Convergence requires
    the off-diagonal Frobenius norm to drop below JACOBI_RTOL times the
    matrix norm; failure within ``max_sweeps`` raises JacobiConvergenceError.
    """
    h = np.array(h, dtype=np.complex128)
    n = h.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return h.real.diagonal().copy(), v
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(n), v
    threshold = JACOBI_RTOL * scale

    for _sweep in range(max_sweeps):
        if _offdiag_norm(h) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = h[p, q]
                if hpq == 0.0:
                    continue
                # Phase rotation makes the (p, q) entry real, then a real
                # Jacobi rotation annihilates it.
                alpha = math.atan2(hpq.imag, hpq.real)
                mag = abs(hpq)
                app = h[p, p].real
                aqq = h[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                u = complex(math.cos(alpha), -math.sin(alpha))  # e^{-i alpha}
                # Column update: H <- H G with G_pp=c, G_pq=s, G_qp=-s*u, G_qq=c*u
                col_p = h[:, p].copy()
                col_q = h[:, q].copy()
                h[:, p] = c * col_p - s * u * col_q
                h[:, q] = s * col_p + c * u * col_q
                # Row update: H <- G^dag H
                row_p = h[p, :].copy()
                row_q = h[q, :].copy()
                h[p, :] = c * row_p - s * np.conj(u) * row_q
                h[q, :] = s * row_p + c * np.conj(u) * row_q
                # Clean the annihilated pair against roundoff drift.
                h[p, q] = 0.0
                h[q, p] = 0.0
                h[p, p] = h[p, p].real
                h[q, q] = h[q, q].real
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * u * vec_q
                v[:, q] = s * vec_p + c * u * vec_q
    if _offdiag_norm(h) > threshold:
        raise JacobiConvergenceError(
            f"Jacobi did not converge in {max_sweeps} sweeps: "
            f"off-diagonal norm {_offdiag_norm(h):.3e} vs threshold {threshold:.3e} "
            f"for a {n}x{n} matrix of norm {scale:.3e}"
        )
    values = h.real.diagonal().copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def analytic_chern(params: PhysParams) -> tuple[int, ...]:
    """Band Chern numbers from the field form H(x) = B(x) . S.

    The vertex field is a spin S in the field B = (2 Re gamma w,
    2 Im gamma w, 2 f(x3)) with w = x1 + i x2 and f = A + delta x3 + d x3^2,
    so band b (ascending energy, m = b - S) has Ch_b = 2 (S - b) deg, where
    deg = (sgn f_N - sgn f_S) / 2 is the degree of B/|B| over the sphere.
    Valid only off the walls, where f_N and f_S are nonzero.
    """
    f_north = params.A + params.delta + params.d
    f_south = params.A - params.delta + params.d
    deg = round((math.copysign(1.0, f_north) - math.copysign(1.0, f_south)) / 2)
    return tuple(round(2 * (params.S - b)) * deg for b in range(params.n_bands))


def two_level_block_eigenvalues(params: PhysParams, m_l: float):
    """Closed-form eigenvalues of the S=1/2 block pairing (−, M_L) with (+, M_L−1)."""
    L = params.L
    half_shift = -(params.delta + (2.0 * m_l - 1.0) * params.d) / 2.0
    inner = params.A + params.delta * (m_l - 0.5) + params.d * (m_l * m_l - m_l + 0.5)
    radical = math.sqrt(inner * inner
                        + abs(params.gamma) ** 2 * (L * (L + 1) - m_l * (m_l - 1)))
    return half_shift - radical, half_shift + radical


def one_dim_energies(params: PhysParams):
    """Energies of the two one-dimensional S=1/2 blocks (jz = -L-1/2, +L+1/2)."""
    L = params.L
    lower = -params.A + params.delta * L - params.d * L * L
    upper = params.A + params.delta * L + params.d * L * L
    return lower, upper


def sample_product_spheres(rng: np.random.Generator, s_norm: float,
                           l_norm: float, n: int):
    """Uniform points on S^2 x S^2 w.r.t. the product of area measures."""

    def sphere(radius):
        z = rng.uniform(-radius, radius, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        rho = np.sqrt(np.maximum(radius * radius - z * z, 0.0))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])

    return sphere(s_norm), sphere(l_norm)


def sample_jz_slice(rng: np.random.Generator, s_norm: float, l_norm: float,
                    jz: float, n: int):
    """Random points of the J_z = const subset of S^2 x S^2."""
    sz_lo = max(-s_norm, jz - l_norm)
    sz_hi = min(s_norm, jz + l_norm)
    sz = rng.uniform(sz_lo, sz_hi, size=n)
    lz = jz - sz
    phi_s = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi_l = rng.uniform(0.0, 2.0 * np.pi, size=n)
    rho_s = np.sqrt(np.maximum(s_norm ** 2 - sz ** 2, 0.0))
    rho_l = np.sqrt(np.maximum(l_norm ** 2 - lz ** 2, 0.0))
    svec = np.column_stack([rho_s * np.cos(phi_s), rho_s * np.sin(phi_s), sz])
    lvec = np.column_stack([rho_l * np.cos(phi_l), rho_l * np.sin(phi_l), lz])
    return svec, lvec


def slice_energies(svec: np.ndarray, lvec: np.ndarray, params: PhysParams):
    """Vectorized classical energies for arrays of (svec, lvec) rows."""
    sz = svec[:, 2]
    lz = lvec[:, 2]
    tau = svec[:, 0] * lvec[:, 0] + svec[:, 1] * lvec[:, 1]
    sigma = svec[:, 0] * lvec[:, 1] - svec[:, 1] * lvec[:, 0]
    f = params.A + params.delta * lz + params.d * lz ** 2
    return 2.0 * sz * f + 2.0 * params.gamma.real * tau \
        - 2.0 * params.gamma.imag * sigma
