import numpy as np
import pytest
from oracles import JacobiConvergenceError, jacobi_eigh

from bandflow.linalg import eigh, hermitian_matrix, spin_operators


def random_hermitian(rng, *shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def test_hermitian_matrix_accepts_and_symmetrizes():
    h = hermitian_matrix([[1.0, 1.0 - 2.0j], [1.0 + 2.0j, -3.0]])
    assert np.array_equal(h, h.conj().T)


def test_hermitian_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        hermitian_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        hermitian_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_matrix([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="square"):
        hermitian_matrix(np.zeros(3))


def test_hermitian_matrix_rejects_stack_with_one_bad_member():
    stack = random_hermitian(np.random.default_rng(7), 4, 3, 3)
    assert np.array_equal(hermitian_matrix(stack), stack)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_matrix(stack)


def test_spin_half_is_half_pauli():
    ops = spin_operators(0.5)
    assert np.allclose(ops.sz, np.diag([0.5, -0.5]))
    assert np.allclose(ops.sx, 0.5 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(ops.sy, 0.5 * np.array([[0, -1j], [1j, 0]]))


def test_spin_one_raising_element():
    ops = spin_operators(1)
    # coupling m=0 -> m=1 sits at row m=1 (index 0), column m=0 (index 1)
    assert ops.splus[0, 1] == pytest.approx(np.sqrt(2.0))


def test_spin_two_casimir():
    ops = spin_operators(2)
    total = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.allclose(total, 6.0 * np.eye(5), atol=1e-12)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5, 5, 16])
def test_spin_algebra(j):
    ops = spin_operators(j)
    comm_xy = ops.sx @ ops.sy - ops.sy @ ops.sx
    comm_yz = ops.sy @ ops.sz - ops.sz @ ops.sy
    comm_zx = ops.sz @ ops.sx - ops.sx @ ops.sz
    assert np.max(np.abs(comm_xy - 1j * ops.sz)) < 1e-12
    assert np.max(np.abs(comm_yz - 1j * ops.sx)) < 1e-12
    assert np.max(np.abs(comm_zx - 1j * ops.sy)) < 1e-12
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(ops.dim))) < 1e-12
    assert np.max(np.abs(ops.splus - (ops.sx + 1j * ops.sy))) < 1e-12
    assert np.max(np.abs(ops.sminus - (ops.sx - 1j * ops.sy))) < 1e-12


def test_spin_operators_rejects_invalid_j():
    with pytest.raises(ValueError):
        spin_operators(-0.5)
    with pytest.raises(ValueError):
        spin_operators(0.7)


def test_eigh_identity():
    decomp = eigh(np.eye(4))
    assert np.allclose(decomp.values, np.ones(4))


def test_eigh_two_level_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal()
        c = rng.normal() + 1j * rng.normal()
        h = np.array([[-a, np.conj(c)], [c, a]])
        expected = np.sqrt(a * a + abs(c) ** 2)
        values = eigh(h).values
        assert abs(values[0] + expected) < 1e-12
        assert abs(values[1] - expected) < 1e-12


def test_eigh_block_example_sqrt_two():
    # L=1, M_L=1 two-level block with A=delta=d=0, gamma=1
    h = np.array([[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]], dtype=complex)
    values = eigh(h).values
    assert np.allclose(values, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21, 34, 64])
def test_eigh_random_hermitian(dim):
    h = random_hermitian(np.random.default_rng(dim), dim, dim)
    decomp = eigh(h)
    norm = np.linalg.norm(h)
    assert np.all(np.diff(decomp.values) >= 0)
    residual = h @ decomp.vectors - decomp.vectors * decomp.values
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * (1 + norm)
    gram = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    recon = decomp.vectors @ np.diag(decomp.values) @ decomp.vectors.conj().T
    assert np.linalg.norm(recon - h) <= 1e-9 * (1 + norm)
    # cyclic Jacobi as the LAPACK-free reference for the eigenvalues
    assert np.allclose(decomp.values, jacobi_eigh(h)[0],
                       atol=1e-10 * (1 + norm))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_eigh_stack_matches_per_matrix(dim):
    stack = random_hermitian(np.random.default_rng(dim), 6, dim, dim)
    batched = eigh(stack)
    assert batched.values.shape == (6, dim)
    assert batched.vectors.shape == (6, dim, dim)
    for k, h in enumerate(stack):
        single = eigh(h)
        assert np.allclose(batched.values[k], single.values, rtol=0, atol=1e-12)
        # eigenvectors agree up to one phase per column
        overlap = np.abs(np.sum(batched.vectors[k].conj() * single.vectors, axis=0))
        assert np.allclose(overlap, 1.0, rtol=0, atol=1e-10)


def test_eigh_deterministic():
    h = random_hermitian(np.random.default_rng(3), 6, 6)
    d1 = eigh(h)
    d2 = eigh(h)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_eigh_nonconvergence_diagnostics():
    h = random_hermitian(np.random.default_rng(5), 8, 8)
    with pytest.raises(JacobiConvergenceError, match="did not converge"):
        jacobi_eigh(h, max_sweeps=1)
